"""Decoding-tree capture and its NDJSON rendering."""
import json

import pytest

from conftest import random_fixture
from sketchdec.decoders import ARGMAX, BEAMVAR, VAR, DecoderConfig, decode
from sketchdec.lm import TableLM, Vocabulary, ordered_sum
from sketchdec.sketch import Chunk, OneOf, Sketch, VariableSpec
from sketchdec.trace import DecodingTree, TraceNode, TraceRecorder
from test_decoders import TopK

NDJSON_KEYS = ["id", "parent", "token_text", "logprob", "norm_score", "pool", "status"]


def test_recorder_root_is_eager():
    rec = TraceRecorder()
    tree = rec.tree()
    assert len(tree.nodes) == 1
    root = tree.nodes[0]
    assert (root.id, root.parent, root.status) == (0, None, "expanded")


def test_recorder_ids_are_sequential():
    rec = TraceRecorder()
    ids = [rec.add(0, "t", -1.0, -1.0, 0, "expanded") for _ in range(5)]
    assert ids == [1, 2, 3, 4, 5]
    assert [n.id for n in rec.tree().nodes] == [0, 1, 2, 3, 4, 5]


def test_ndjson_shape():
    rec = TraceRecorder()
    rec.add(0, "a\n", -0.5, -0.25, 1, "pruned")
    text = rec.tree().to_ndjson()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert list(json.loads(line).keys()) == NDJSON_KEYS
    second = json.loads(lines[1])
    assert second == {
        "id": 1,
        "parent": 0,
        "token_text": "a\n",
        "logprob": -0.5,
        "norm_score": -0.25,
        "pool": 1,
        "status": "pruned",
    }


def two_var_fixture():
    vocab = Vocabulary(("", "a", "b", "."), eos_index=0)
    rows = {"": [0.1, 0.5, 0.3, 0.1]}
    backend = TableLM(vocab, rows, default_row=[0.25] * 4)
    sketch = Sketch(
        name="s",
        chunks=(
            Chunk.det("."),
            Chunk.variable(VariableSpec("X", one_of=OneOf(("a", "b")), max_tokens=2)),
            Chunk.det("."),
            Chunk.variable(VariableSpec("Y", one_of=OneOf(("a", "b")), max_tokens=2)),
        ),
    )
    return sketch, backend


def test_argmax_trace_is_a_chain():
    sketch, backend = two_var_fixture()
    result = decode(
        sketch, backend, DecoderConfig(kind=ARGMAX, width=1, record_tree=True)
    )
    nodes = result.tree.nodes
    # every node continues the one before it: no branching under width 1
    for prev, node in zip(nodes, nodes[1:]):
        assert node.parent == prev.id
    assert nodes[-1].status == "done"
    assert sum(1 for n in nodes if n.status == "forced") == 2  # two det runs
    assert not any(n.status == "pruned" for n in nodes)


def test_beamvar_trace_records_pools_and_pruning():
    sketch, backend = two_var_fixture()
    result = decode(
        sketch, backend, DecoderConfig(kind=BEAMVAR, width=2, record_tree=True)
    )
    nodes = result.tree.nodes
    statuses = {n.status for n in nodes}
    assert "expanded" in statuses and "done" in statuses
    pools = {n.pool for n in nodes if n.status in ("expanded", "pruned")}
    assert pools >= {0}  # pool labels present on search nodes
    by_id = {n.id: n for n in nodes}
    for n in nodes[1:]:
        assert n.parent in by_id and n.parent < n.id


def test_tree_round_trips_through_ndjson():
    sketch, backend = two_var_fixture()
    result = decode(
        sketch, backend, DecoderConfig(kind=BEAMVAR, width=2, record_tree=True)
    )
    parsed = [json.loads(line) for line in result.tree.to_ndjson().splitlines()]
    rebuilt = DecodingTree(nodes=tuple(TraceNode(**d) for d in parsed))
    assert rebuilt == result.tree


@pytest.mark.parametrize(
    "config",
    [
        DecoderConfig(kind=VAR, width=2, proposal="branch", record_tree=True),
        DecoderConfig(kind=VAR, width=2, proposal="exhaustive", record_tree=True),
        DecoderConfig(kind=BEAMVAR, width=2, record_tree=True),
    ],
    ids=["var-branch", "var-exhaustive", "beamvar"],
)
def test_value_closed_by_rendered_eos_shows_its_edge(config):
    """The node of a value closed by an EOS that renders as text ends in
    that text, and its log-probability adds the edge's tokens in order."""
    vocab = Vocabulary(("</s>", "a", "b", "."), eos_index=0)
    rows = {".ab": [0.7, 0.1, 0.1, 0.1]}
    backend = TableLM(vocab, rows, default_row=[0.1, 0.5, 0.3, 0.1])
    # "ab" is complete but "abb" extends it, so only EOS closes it
    members = OneOf(("ab", "abb", "ba"))
    sketch = Sketch(
        name="s",
        chunks=(
            Chunk.det("."),
            Chunk.variable(VariableSpec("X", one_of=members, max_tokens=4)),
            Chunk.det("."),
        ),
    )
    result = decode(sketch, backend, config)
    nodes = {}
    for line in result.tree.to_ndjson().splitlines():
        node = json.loads(line)
        nodes[node["id"]] = node
    path = []
    node_id = result.best.node_id
    while node_id is not None:
        path.append(nodes[node_id])
        node_id = nodes[node_id]["parent"]
    value_node = next(n for n in path if n["token_text"].endswith("</s>"))
    span = result.best.spans[1]
    assert (span.name, span.text, span.end - span.start) == ("X", "ab", 3)
    lps = result.best.logprobs[span.start : span.end]
    if config.kind == BEAMVAR:
        # a token step's edge is its one token
        assert value_node["token_text"] == "</s>"
        assert value_node["logprob"] == lps[-1]
    else:
        # a proposal's edge spans the whole value, from the forced "."
        assert nodes[value_node["parent"]]["status"] == "forced"
        assert value_node["token_text"] == "ab</s>"
        assert value_node["logprob"] == ordered_sum(lps)


@pytest.mark.parametrize("proposal", ["branch", "sample", "exhaustive"])
def test_best_path_edges_add_their_tokens_in_order(proposal):
    """Over a top-2 backend, where some values are spelled by whole-member
    fallback after a token walk, every selection node on the best path
    holds its edge's token log-probabilities added in order, bit for bit."""
    sketch, backend = random_fixture(103)
    config = DecoderConfig(kind=VAR, width=3, proposal=proposal, record_tree=True)
    result = decode(sketch, TopK(backend, 2), config)
    best, nodes = result.best, result.tree.nodes
    path = []
    node_id = best.node_id
    while node_id:
        path.append(nodes[node_id])
        node_id = nodes[node_id].parent
    selected = [n for n in reversed(path) if n.status == "expanded"]
    # a variable-level step selects one whole value per variable
    spans = [s for s in best.spans if s.kind == "var"]
    assert len(selected) == len(spans) > 0
    for node, span in zip(selected, spans):
        edge = best.tokens[span.start : span.end]
        assert node.token_text == "".join(map(backend.vocab.token_text, edge))
        lps = best.logprobs[span.start : span.end]
        assert node.logprob.hex() == ordered_sum(lps).hex()
