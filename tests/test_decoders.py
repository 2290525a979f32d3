"""Decoding strategies: greedy, beam, variable-level, and pooled beam."""
import builtins
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    isolated_greedy,
    random_backend,
    random_fixture,
    random_sketch,
    stable_unit,
)
from sketchdec import decoders
from sketchdec.constraints import MAX_TOKENS, advance, compute_mask
from sketchdec.decoders import (
    ARGMAX,
    BEAM,
    BEAMVAR,
    DEFAULT_DYNAMIC_CAP,
    PROPOSAL_BRANCH,
    PROPOSAL_EXHAUSTIVE,
    PROPOSAL_SAMPLE,
    VAR,
    DecoderConfig,
    Pool,
    allocate_pools,
    decode,
    decode_argmax,
    decode_beam,
    decode_beamvar,
    decode_var,
    default_token_cap,
    _Engine,
)
from sketchdec.errors import DeadEnd, TemplateUnsatisfiable
from sketchdec.lm import (
    LMBackend,
    NGramLM,
    TableLM,
    TokenDistribution,
    Vocabulary,
    _SmoothedCounts,
    greedy_tokenize,
    ordered_sum,
)
from sketchdec.scoring import Hypothesis, ScoreParams, rank_hypotheses
from sketchdec.sketch import (
    Bindings,
    Chunk,
    DynamicSketchSource,
    OneOf,
    Sketch,
    StaticSketchSource,
    VariableSpec,
    instantiate,
)
from sketchdec.tasks import dungeon, jsonfmt


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(kind="simulated-annealing")
    with pytest.raises(ValueError):
        DecoderConfig(width=0)
    with pytest.raises(ValueError):
        DecoderConfig(kind=ARGMAX, width=2)
    with pytest.raises(ValueError):
        DecoderConfig(proposal="psychic")
    with pytest.raises(ValueError):
        DecoderConfig(temperature=0.0)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="global_max_tokens"):
            DecoderConfig(global_max_tokens=cap)
    assert DecoderConfig(kind=ARGMAX, width=1).width == 1
    assert DecoderConfig(global_max_tokens=1).global_max_tokens == 1


def simple_sketch(max_tokens: int = 3) -> Sketch:
    return Sketch(
        name="s",
        chunks=(
            Chunk.det("a"),
            Chunk.variable(VariableSpec("X", max_tokens=max_tokens)),
            Chunk.det("b"),
        ),
    )


def test_default_token_cap():
    backend = random_backend(0, letters="ab", merges=())
    source = StaticSketchSource(simple_sketch(max_tokens=5))
    assert default_token_cap(source, backend) == 1 + 5 + 1
    dynamic = DynamicSketchSource(lambda v, s: [])
    assert default_token_cap(dynamic, backend) == DEFAULT_DYNAMIC_CAP


def hand_table() -> TableLM:
    vocab = Vocabulary(("", "x", "y", "."), eos_index=0)
    rows = {
        "": [0.05, 0.6, 0.3, 0.05],
        "x": [0.1, 0.2, 0.6, 0.1],
        "xy": [0.7, 0.1, 0.1, 0.1],
    }
    return TableLM(vocab, rows, default_row=[0.25, 0.25, 0.25, 0.25])


def test_argmax_follows_per_step_maxima():
    sketch = Sketch(
        name="s", chunks=(Chunk.variable(VariableSpec("X", max_tokens=4)),)
    )
    result = decode_argmax(sketch, hand_table())
    # x (0.6), then y (0.6), then EOS (0.7)
    assert result.best.tokens == (1, 2, 0)
    assert result.bindings.value("X") == "xy"
    assert result.best.raw_score == pytest.approx(
        math.log(0.6) + math.log(0.6) + math.log(0.7)
    )
    assert result.text == "xy"


def myopia_fixture() -> tuple[DynamicSketchSource, TableLM]:
    """Greedy takes the locally best first value and pays for it later."""
    vocab = Vocabulary(("", "a", "b", "1", "2"), eos_index=0)
    rows = {
        "": [0.02, 0.55, 0.35, 0.04, 0.04],
        "a": [0.04, 0.04, 0.04, 0.01, 0.87],  # the det after "a" is unlikely
        "b": [0.02, 0.02, 0.02, 0.04, 0.90],  # the det after "b" is likely
    }
    backend = TableLM(vocab, rows, default_row=[0.2] * 5)

    def program(values, seed):
        if "A" not in values:
            return [
                Chunk.variable(
                    VariableSpec("A", one_of=OneOf(("a", "b")), max_tokens=2)
                )
            ]
        return [Chunk.det("1" if values["A"] == "a" else "2")]

    return DynamicSketchSource(program), backend


def test_search_beats_greedy_on_myopic_template():
    source, backend = myopia_fixture()
    greedy = decode_argmax(source, backend)
    assert greedy.bindings.value("A") == "a"
    for result in (
        decode_beamvar(source, backend, width=2),
        decode_var(source, backend, width=2),
    ):
        assert result.bindings.value("A") == "b"
        assert result.best.normalized_score(ScoreParams()) > greedy.best.normalized_score(
            ScoreParams()
        )


def test_beam_width_one_equals_argmax_spot():
    for seed in (11, 12, 13):
        sketch, backend = random_fixture(seed)
        a = decode_argmax(sketch, backend)
        b = decode_beam(sketch, backend, width=1)
        assert a.best.tokens == b.best.tokens


def test_var_width_one_branch_equals_argmax_spot():
    for seed in (21, 22, 23):
        sketch, backend = random_fixture(seed)
        a = decode_argmax(sketch, backend)
        v = decode_var(sketch, backend, width=1, proposal="branch")
        assert a.best.tokens == v.best.tokens


def test_beamvar_equals_beam_on_single_variable_spot():
    rng = random.Random(31)
    for seed in (31, 32, 33):
        from conftest import random_sketch

        sketch = random_sketch(random.Random(seed), max_vars=1)
        backend = random_backend(seed)
        for width in (1, 2, 3):
            b = decode_beam(sketch, backend, width=width)
            bv = decode_beamvar(sketch, backend, width=width)
            assert b.best.tokens == bv.best.tokens, (seed, width)


def test_decode_accepts_sketch_or_source():
    sketch, backend = random_fixture(41)
    direct = decode(sketch, backend)
    via_source = decode(StaticSketchSource(sketch), backend)
    assert direct.best.tokens == via_source.best.tokens


def test_stop_and_go_equivalence_spot():
    for seed in (51, 52, 53):
        sketch, backend = random_fixture(seed)
        result = decode_argmax(sketch, backend)
        text, values, tokens, raw = isolated_greedy(sketch, backend)
        assert result.best.tokens == tokens
        assert result.text == text
        assert result.bindings.as_dict() == values
        assert result.best.raw_score == pytest.approx(raw, abs=1e-9)


def test_decoded_spans_resegment_instantiate_output():
    for seed in (61, 62):
        sketch, backend = random_fixture(seed)
        for result in (
            decode_argmax(sketch, backend),
            decode_beamvar(sketch, backend, width=2),
        ):
            assert result.text == instantiate(sketch, result.bindings)


# -- pool allocation --------------------------------------------------------


def pools_of(*sizes: int) -> list[Pool]:
    return [
        Pool(variable_index=i, members=list(range(size)))
        for i, size in enumerate(sizes)
    ]


def test_allocation_splits_evenly():
    assert allocate_pools(pools_of(3, 3), 4) == [2, 2]


def test_allocation_remainder_goes_to_most_advanced():
    assert allocate_pools(pools_of(3, 3), 5) == [2, 3]


def test_allocation_donates_excess_forward():
    assert allocate_pools(pools_of(1, 3), 4) == [1, 3]


def test_allocation_never_donates_backward():
    # the advanced pool's spare slot stays put even though pool 0 is starved
    assert allocate_pools(pools_of(5, 1), 4) == [2, 2]


def test_allocation_requires_pools():
    with pytest.raises(ValueError):
        allocate_pools([], 4)


def test_allocation_sums_and_floors():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(1, 4)
        sizes = [rng.randint(1, 6) for _ in range(k)]
        n = rng.randint(1, 8)
        widths = allocate_pools(pools_of(*sizes), n)
        assert sum(widths) == n
        if n >= k:
            assert all(w >= 1 for w in widths)
        assert all(w >= 0 for w in widths)


# -- proposals ----------------------------------------------------------------


def test_branch_proposals_diversify_first_token():
    vocab = Vocabulary(("", "p", "q", "r"), eos_index=0)
    rows = {"": [0.1, 0.5, 0.3, 0.1]}
    backend = TableLM(vocab, rows, default_row=[0.7, 0.1, 0.1, 0.1])
    sketch = Sketch(
        name="s", chunks=(Chunk.variable(VariableSpec("X", max_tokens=3)),)
    )
    result = decode_var(sketch, backend, width=2, proposal="branch")
    values = {result.bindings.value("X")} | {
        alt.bindings.value("X") for alt in result.alternatives
    }
    # two proposals, one per distinct first token
    assert len(values) == 2
    assert {v[:1] for v in values} == {"p", "q"}


def test_sampled_proposals_are_deterministic():
    sketch, backend = random_fixture(71)
    first = decode_var(sketch, backend, width=2, proposal="sample", seed=9)
    second = decode_var(sketch, backend, width=2, proposal="sample", seed=9)
    assert first.best.tokens == second.best.tokens
    assert [a.tokens for a in first.alternatives] == [
        a.tokens for a in second.alternatives
    ]


def test_sampled_fallback_draw_is_uniform_when_every_weight_underflows():
    # at this temperature exp(lp / T) is 0.0 for every member completion
    sketch, backend = truncated_fixture(0)
    config = DecoderConfig(
        kind=VAR, width=2, proposal=PROPOSAL_SAMPLE, temperature=0.001
    )
    result = decode(sketch, backend, config)
    assert result.best.bindings.value("X") in OFF_TOP_MEMBERS
    assert decode(sketch, backend, config) == result


def test_exhaustive_proposals_cover_every_completion():
    vocab = Vocabulary(("", "a", "b"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[0.2, 0.4, 0.4])
    sketch = Sketch(
        name="s",
        chunks=(
            Chunk.variable(
                VariableSpec("X", one_of=OneOf(("a", "ab", "b")), max_tokens=3)
            ),
        ),
    )
    result = decode_var(sketch, backend, width=16, proposal="exhaustive")
    values = {result.bindings.value("X")} | {
        alt.bindings.value("X") for alt in result.alternatives
    }
    # "a" closes by EOS or by extension to "ab"; "b" closes immediately
    assert values == {"a", "ab", "b"}


# -- surface behaviour -------------------------------------------------------


def test_alternatives_are_ranked_and_done():
    sketch, backend = random_fixture(81)
    result = decode_var(sketch, backend, width=3)
    finals = [result.best, *result.alternatives]
    assert all(h.done for h in finals)
    assert [h.tokens for h in finals] == [
        h.tokens for h in rank_hypotheses(finals, ScoreParams())
    ]


def dotted_sketch() -> Sketch:
    return Sketch(
        name="s",
        chunks=(
            Chunk.det("."),
            Chunk.variable(VariableSpec("X", max_tokens=3)),
            Chunk.det("."),
        ),
    )


def test_settle_forces_only_deterministic_text():
    backend = hand_table()
    sketch = dotted_sketch()
    eng = _Engine(StaticSketchSource(sketch), backend, DecoderConfig())
    h = eng.settle(Hypothesis())
    # the text up to the variable is forced, and the variable is opened
    assert h.rendered() == "."
    assert h.tokens == tuple(backend.tokenize("."))
    assert h.open_spec == sketch.chunks[1].var
    assert not h.done


def test_settle_marks_exhausted_template_done():
    backend = hand_table()
    sketch = dotted_sketch()
    eng = _Engine(StaticSketchSource(sketch), backend, DecoderConfig())
    h = Hypothesis()
    h = h.with_forced_span(backend.tokenize("."), [-1.0], ".")
    h = h.with_open_variable(sketch.chunks[1].var)
    from sketchdec.constraints import MaskState

    h = h.with_closing_token(1, -1.0, MaskState("x", 1, None), "x")
    h = eng.settle(h)  # forces the trailing "." and finds nothing after it
    assert h.rendered() == ".x."
    assert h.done
    assert eng.settle(h) is h


def test_global_cap_kills_open_hypotheses():
    # EOS ranks below both letters so even width 2 never closes the variable
    vocab = Vocabulary(("", "a", "b"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[0.001, 0.6, 0.399])
    sketch = Sketch(
        name="s",
        chunks=(
            Chunk.det("a"),
            Chunk.variable(VariableSpec("X", max_tokens=6)),
        ),
    )
    config = DecoderConfig(kind=ARGMAX, width=1, global_max_tokens=2)
    with pytest.raises(TemplateUnsatisfiable):
        decode(sketch, backend, config)
    with pytest.raises(TemplateUnsatisfiable):
        decode(sketch, backend, DecoderConfig(kind=BEAMVAR, width=2, global_max_tokens=2))


def test_unspellable_member_is_unsatisfiable():
    vocab = Vocabulary(("", "a"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[0.5, 0.5])
    sketch = Sketch(
        name="s",
        chunks=(
            Chunk.variable(VariableSpec("X", one_of=OneOf(("zz",)), max_tokens=3)),
        ),
    )
    for kind, width in ((ARGMAX, 1), (BEAM, 2), (VAR, 2), (BEAMVAR, 2)):
        with pytest.raises(TemplateUnsatisfiable):
            decode(sketch, backend, DecoderConfig(kind=kind, width=width))


def test_tree_recorded_only_on_request():
    sketch, backend = random_fixture(91)
    plain = decode_beamvar(sketch, backend, width=2)
    assert plain.tree is None
    traced = decode(
        sketch, backend, DecoderConfig(kind=BEAMVAR, width=2, record_tree=True)
    )
    assert traced.tree is not None
    assert len(traced.tree.nodes) > 1
    assert traced.best.tokens == plain.best.tokens


def test_dynamic_branches_decode_independently():
    """Hypotheses on different branches see different continuations."""
    source, backend = myopia_fixture()
    result = decode_beamvar(source, backend, width=2)
    # both branches completed; the alternative carries the other template arm
    rendered = {result.text} | {a.rendered() for a in result.alternatives}
    assert rendered == {"b2", "a1"}


@given(
    seed=st.integers(0, 2**16),
    ngram=st.booleans(),
    prefix=st.lists(st.integers(0, 6), max_size=5),
)
def test_unconstrained_continuations_equal_masked_entries(seed, ngram, prefix):
    """A free variable skips the mask; the list is what the mask kept."""
    backend = random_backend(seed)
    if ngram:
        rng = random.Random(seed)
        corpus = [rng.randrange(len(backend.vocab)) for _ in range(20)]
        backend = NGramLM(backend.vocab, 1 + seed % 3, corpus)
    spec = VariableSpec("X", stop_phrases=("d",))
    source = StaticSketchSource(Sketch("s", (Chunk.variable(spec),)))
    eng = _Engine(source, backend, DecoderConfig())
    h = Hypothesis().with_forced_span(
        prefix, [0.0] * len(prefix), backend.detokenize(prefix)
    )
    h = h.with_open_variable(spec)
    mask = compute_mask(h.open_state, backend.vocab)
    want = [(t, lp) for t, lp in backend.next_distribution(prefix).entries if t in mask]
    assert eng.allowed_continuations(h) == want


# -- pinned outputs -----------------------------------------------------------


class TopK(LMBackend):
    """A local model cut to its k best entries per step, the way a remote
    completions service returns them (``complete=False``)."""

    def __init__(self, inner: LMBackend, k: int):
        self.inner = inner
        self.k = k
        self.vocab = inner.vocab

    def next_distribution(self, prefix, text=None):
        entries = self.inner.next_distribution(prefix, text=text).entries[: self.k]
        return TokenDistribution(entries=entries, complete=False)

    def score_forced(self, prefix, continuation, text=None):
        return self.inner.score_forced(prefix, continuation, text=text)


OFF_TOP_MEMBERS = ("bd", "cd", "dc")


def truncated_fixture(seed: int) -> tuple[Sketch, TopK]:
    """A top-2 backend whose two best tokens are always "a" and "b".

    No member of X but "bd" starts with either, and "bd" needs "d" after
    its "b", so every value of X is spelled by whole-member fallback.
    """
    vocab = Vocabulary(("", "a", "b", "c", "d", "cd"), eos_index=0)

    def rows(prefix: str) -> list[float]:
        weights = [stable_unit(seed, prefix, i) for i in range(len(vocab))]
        weights[1] += 2.0
        weights[2] += 2.0
        total = ordered_sum(weights)
        return [w / total for w in weights]

    inner = TableLM(vocab, rows, default_row=rows(""), check_rows=False)
    sketch = Sketch(
        name="truncated",
        chunks=(
            Chunk.det("a"),
            Chunk.variable(
                VariableSpec("X", one_of=OneOf(OFF_TOP_MEMBERS), max_tokens=3)
            ),
            Chunk.det("b"),
            Chunk.variable(VariableSpec("Y", stop_phrases=("b",), max_tokens=3)),
            Chunk.det("a"),
        ),
    )
    return sketch, TopK(inner, 2)


def decoder_configs(widths=(1, 2, 3)):
    """(label, config) for every kind and var proposal at the given widths."""
    yield ARGMAX, {"kind": ARGMAX, "width": 1}
    for width in widths:
        yield BEAM, {"kind": BEAM, "width": width}
        yield BEAMVAR, {"kind": BEAMVAR, "width": width}
        for proposal in (PROPOSAL_BRANCH, PROPOSAL_SAMPLE, PROPOSAL_EXHAUSTIVE):
            yield f"{VAR}-{proposal}", {
                "kind": VAR,
                "width": width,
                "proposal": proposal,
            }


def _hyp_fingerprint(h: Hypothesis) -> tuple:
    return (
        h.tokens,
        tuple(lp.hex() for lp in h.logprobs),
        h.raw_score.hex(),
        tuple(
            (s.chunk_ordinal, s.kind, s.name, s.text, s.start, s.end, s.raw_logprob.hex())
            for s in h.spans
        ),
    )


def decode_fingerprint(source, backend, **config) -> str:
    """Everything a decode shows: tokens, float bits, spans, alternatives,
    truncations and the NDJSON tree.  An unsatisfiable template shows only
    the exception type."""
    try:
        r = decode(source, backend, DecoderConfig(record_tree=True, **config))
    except TemplateUnsatisfiable:
        return "unsatisfiable"
    return repr(
        (
            _hyp_fingerprint(r.best),
            tuple(_hyp_fingerprint(a) for a in r.alternatives),
            r.truncated_count,
            r.tree.to_ndjson(),
        )
    )


def cap_escape_fixture() -> tuple[Sketch, TableLM]:
    """Two one-token variables under a one-token global cap.

    A token that closes its variable is not truncated, so var's
    per-variable steps finish this template past the cap while beamvar's
    token steps stop at the cap and find it unsatisfiable.
    """
    sketch = Sketch(
        name="cap-escape",
        chunks=(
            Chunk.variable(VariableSpec("A", one_of=OneOf(("a", "b")), max_tokens=2)),
            Chunk.variable(VariableSpec("B", one_of=OneOf(("c", "d")), max_tokens=2)),
        ),
    )
    return sketch, random_backend(3)


def pinned_families():
    """(family, source, backend, extra config) for the pinned-output test."""
    for seed in range(20):
        sketch, backend = random_fixture(seed)
        yield "random", sketch, backend, {}
        yield "random-cap3", sketch, backend, {"global_max_tokens": 3}
    for seed in range(5):
        sketch, backend = random_fixture(100 + seed)
        yield "topk", sketch, TopK(backend, 2), {}
        yield "topk", *truncated_fixture(seed), {}
    instance = dungeon.suite(0)[0]
    yield (
        "dungeon",
        dungeon.dungeon_source(instance),
        dungeon.dungeon_backend(instance),
        {},
    )
    sketch, backend = cap_escape_fixture()
    yield "cap-escape", sketch, backend, {"global_max_tokens": 1}


def pinned_digests() -> dict[str, str]:
    hashes = {}
    for family, source, backend, extra in pinned_families():
        for label, config in decoder_configs():
            if label == f"{VAR}-{PROPOSAL_EXHAUSTIVE}" and config["width"] == 2:
                # the enumeration does not depend on the width, and repeating
                # it at width 2 would add a second to the test
                continue
            fingerprint = decode_fingerprint(source, backend, **config, **extra)
            key = f"{family}/{label}"
            hashes.setdefault(key, hashlib.sha256()).update(fingerprint.encode())
    return {key: h.hexdigest() for key, h in hashes.items()}


# sha256 per family and decoder of every decode's fingerprint: any change
# to a token, a float bit, a span, an alternative, a truncation count or a
# trace node changes one of these, so re-record them only for an intended
# change of decoder output
PINNED_DIGESTS = {
    "random/argmax": "f8ee7b704ef8c70cce28456dfa511b372c1aadbabc7e50a72e78a23a765ed5d1",
    "random/beam": "94599b3a207d5a58e88bed5d456945243b11b2ddf2a9e257f3843f5fb7d9e078",
    "random/beamvar": "cb58e7f993ad19cea36ed90d7c9e2517579a2d9bd7b9106213da53dec2daf153",
    "random/var-branch": "2134745a95a02075f95be336ad1aad29ef784a4f23e632da31cad6156eb46e13",
    "random/var-sample": "3d72a27278e72a31f24057d33032960e2352e2bc863bbf7fe190158fa73c094e",
    "random/var-exhaustive": "55bd6a852a9e53ad3b5a42acadd1a2652d63b74cd7bfb48d1b2b9ca799d8d81a",
    "random-cap3/argmax": "50c596456d291539f8de5fce8243f894740e39c50b81e1014df90c84e6672506",
    "random-cap3/beam": "3dd5b9cc721600b9feb9fe7c6024df653878515402d31f74f507d98daf803d7d",
    "random-cap3/beamvar": "3dd5b9cc721600b9feb9fe7c6024df653878515402d31f74f507d98daf803d7d",
    "random-cap3/var-branch": "3dd5b9cc721600b9feb9fe7c6024df653878515402d31f74f507d98daf803d7d",
    "random-cap3/var-sample": "3dd5b9cc721600b9feb9fe7c6024df653878515402d31f74f507d98daf803d7d",
    "random-cap3/var-exhaustive": "89b214f77bdcee1cd69147ab811bd41dff661288edbf95c7226fd26ec9e61656",
    "topk/argmax": "b04f8ea70f6372af56c3f73af44c1853846f455420e99745c4ceb2b329bc9904",
    "topk/beam": "7888565d26558eddea8928fb71d4206760eef87cfe88dfed7d6b6f0d25f62c0b",
    "topk/beamvar": "0ba8d355ffb41c060bc82e58426791ff132c5de8ef152e60b6bb28ad7f2ac0f2",
    "topk/var-branch": "2b9b24c3381f3af01e07c840534625462e4cd6916e7bd91ed20a181de5777c20",
    "topk/var-sample": "14461ccc1641151d2316ae81549cd8d258d08115919a1e68cc6eab014cb4183e",
    "topk/var-exhaustive": "135429a37fa9d16e7fe9a56c434f181da37b138645eb99bab417abe3e35c8d28",
    "dungeon/argmax": "9f2a73e2166a810b2e4a8ee0db4f6900b20448e7fd633db33554c9708126c905",
    "dungeon/beam": "bc23ae47c5778fc75d7aed1a542842f89b298e0af3ed47f61004a5f8f9bde53b",
    "dungeon/beamvar": "31b845165a2dabbbe729a31625324b52dc59b011143d1d99bde301df15a884da",
    "dungeon/var-branch": "31b845165a2dabbbe729a31625324b52dc59b011143d1d99bde301df15a884da",
    "dungeon/var-sample": "34e9f7633da12730858dd1929462a8f80e4ff36d5c56b8add217d4ef4b5f9b4e",
    "dungeon/var-exhaustive": "67775b264b1996766b70b9e8080b82a315e09f7209c75ba0aaa9ca016c236bbf",
    "cap-escape/argmax": "ba9d52e0a29b229cd701e7075ab360ab1946b084072bbcff2df46db614aa262b",
    "cap-escape/beam": "09968c1ace0d73b8d3a9049a121191174c1bdce02fca50551f97d8648cdd3316",
    "cap-escape/beamvar": "ba6979393552a145ef3a1304aff5a194c7905b86e2874f2017deeb8af7e29c57",
    "cap-escape/var-branch": "93e7d082f14c7003af417db7a6ab48827ab58436455b08b79d98621c140fb062",
    "cap-escape/var-sample": "317cad4cae8d43063087c8e679a9486b705d4a815227240b948b9b64d543152f",
    "cap-escape/var-exhaustive": "3eb3b9d64922c9eefd7c2beac0fe3ec0299627c5af639ea71376c166bc2bc740",
}


def test_decoder_outputs_are_pinned():
    assert pinned_digests() == PINNED_DIGESTS


def test_pinned_outputs_hold_under_compensated_sum(monkeypatch):
    """From Python 3.12 the built-in sum compensates float rounding; with
    such a sum, every decode must still have the pinned float bits."""
    plain_sum = builtins.sum

    def compensated_sum(values, start=0):
        values = list(values)
        if start == 0 and values and all(type(v) is float for v in values):
            return math.fsum(values)
        return plain_sum(values, start)

    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert pinned_digests() == PINNED_DIGESTS


def test_truncated_distributions_fall_back_to_whole_members(monkeypatch):
    calls = []
    fallback = _Engine.fallback_completions

    def counted(self, h):
        calls.append(h.open_state.partial_value)
        return fallback(self, h)

    monkeypatch.setattr(_Engine, "fallback_completions", counted)
    for label, config in decoder_configs(widths=(1, 2)):
        for seed in range(3):
            sketch, backend = truncated_fixture(seed)
            calls.clear()
            result = decode(sketch, backend, DecoderConfig(**config))
            assert calls, (label, config, seed)
            for h in (result.best, *result.alternatives):
                assert h.bindings.value("X") in OFF_TOP_MEMBERS
            assert decode(sketch, backend, DecoderConfig(**config)) == result


def counted_masks(monkeypatch) -> list:
    """Record the key of every ``compute_mask`` call the decoders make."""
    keys = []

    def counted(state, vocab):
        keys.append((state.index.members, state.partial_value))
        return compute_mask(state, vocab)

    monkeypatch.setattr(decoders, "compute_mask", counted)
    return keys


@pytest.mark.parametrize(
    "config",
    [
        DecoderConfig(kind=VAR, width=3, proposal=PROPOSAL_EXHAUSTIVE),
        DecoderConfig(kind=BEAMVAR, width=2),
    ],
    ids=["var-exhaustive-w3", "beamvar-w2"],
)
@pytest.mark.parametrize("record", jsonfmt.RECORDS[:3], ids=lambda r: r.name)
def test_masks_are_computed_once_per_key(config, record, monkeypatch):
    keys = counted_masks(monkeypatch)
    backend = jsonfmt.record_backend(record)
    reads = []
    read = backend.next_distribution
    monkeypatch.setattr(
        backend,
        "next_distribution",
        lambda prefix, **kw: reads.append(prefix) or read(prefix, **kw),
    )
    decode(jsonfmt.build_sketch(record), backend, config)
    assert len(keys) == len(set(keys))
    # every variable is a OneOf: the reads beyond the distinct keys were
    # served by the decode's index without building a mask
    assert len(reads) > len(keys)


def large_ngram_fixture() -> tuple[Sketch, NGramLM]:
    """An order-2 n-gram model over 703 tokens (EOS, letters and letter
    pairs) and a template whose one variable is a OneOf of 150 members."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    pairs = [a + b for a in letters for b in letters]
    vocab = Vocabulary(("",) + tuple(letters) + tuple(pairs), eos_index=0)
    rng = random.Random(7)
    members = set()
    while len(members) < 150:
        members.add("".join(rng.choice(letters) for _ in range(rng.randint(3, 6))))
    # the template's text around every member, with a random token between
    corpus = []
    for member in sorted(members) * 2:
        corpus += greedy_tokenize(vocab, "ab" + member + "cd")
        corpus.append(rng.randrange(1, len(vocab)))
    spec = VariableSpec("X", one_of=OneOf(tuple(members)), max_tokens=7)
    sketch = Sketch(
        name="large", chunks=(Chunk.det("ab"), Chunk.variable(spec), Chunk.det("cd"))
    )
    return sketch, NGramLM(vocab, 2, corpus)


@pytest.mark.parametrize(
    "config",
    [DecoderConfig(kind=ARGMAX, width=1), DecoderConfig(kind=BEAMVAR, width=2)],
    ids=["argmax", "beamvar-w2"],
)
def test_top_n_reads_build_fewer_masks_than_reads(config, monkeypatch):
    """A read that wants the n best allowed tokens walks the sparse n-gram
    view against the index, so most reads build no mask."""
    keys = counted_masks(monkeypatch)
    sketch, backend = large_ngram_fixture()
    reads = []
    read = backend.next_distribution
    monkeypatch.setattr(
        backend,
        "next_distribution",
        lambda prefix, **kw: reads.append(prefix) or read(prefix, **kw),
    )
    decode(sketch, backend, config)
    assert len(keys) == len(set(keys))
    assert len(keys) < len(reads)


def test_pinned_outputs_hold_on_the_full_mask_path(monkeypatch):
    """With every best-first walk declined, each constrained read goes
    through the full token mask, and every decode is the same."""
    monkeypatch.setattr(TokenDistribution, "first", lambda self, n, accept: None)
    monkeypatch.setattr(_SmoothedCounts, "first", lambda self, n, accept: None)
    assert pinned_digests() == PINNED_DIGESTS


def test_dead_end_mask_raises_on_every_lookup(monkeypatch):
    keys = counted_masks(monkeypatch)
    vocab = Vocabulary(("", "a", "b"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[0.25, 0.5, 0.25])
    spec = VariableSpec("X", one_of=OneOf(("ac",)), max_tokens=3)
    sketch = Sketch(name="s", chunks=(Chunk.variable(spec),))
    eng = _Engine(StaticSketchSource(sketch), backend, DecoderConfig())
    h = eng.apply_token(eng.settle(Hypothesis()), 1, -1.0).hyp
    # no token spells the "c" that "a" needs
    for _ in range(3):
        with pytest.raises(DeadEnd):
            eng.allowed_continuations(h)
    assert [partial for _, partial in keys] == ["a"]


def eager_child(eng: _Engine, h: Hypothesis, token: int, logprob: float) -> Hypothesis:
    """Reference for the engine's candidates: the child built at once by
    the transition rule, written out with the Hypothesis steps."""
    spec = h.open_spec
    new_state, verdict = advance(
        h.open_state, token, eng.backend.vocab, spec.stop_phrases, spec.max_tokens
    )
    piece = eng.backend.detokenize((token,))
    if verdict.closes_chunk:
        if verdict.status == MAX_TOKENS and new_state.constrained:
            return h.with_variable_token(token, logprob, new_state, piece).as_dead()
        return h.with_closing_token(token, logprob, new_state, piece)
    h = h.with_variable_token(token, logprob, new_state, piece)
    if h.m_total > eng.cap:
        return h.as_dead(truncated=True)
    return h


member_sets = st.lists(
    st.text("abcd", min_size=1, max_size=4), min_size=1, max_size=4, unique=True
)


@st.composite
def child_specs(draw) -> VariableSpec:
    """A free or a OneOf variable whose budget may run out mid-member."""
    max_tokens = draw(st.integers(1, 4))
    if draw(st.booleans()):
        stops = draw(st.sampled_from([(), ("b",), ("cd",)]))
        return VariableSpec("X", stop_phrases=stops, max_tokens=max_tokens)
    return VariableSpec("X", one_of=OneOf(draw(member_sets)), max_tokens=max_tokens)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    spec=child_specs(),
    headroom=st.integers(0, 4),
    score=st.builds(
        ScoreParams,
        alpha=st.sampled_from([0.0, 0.7, 1.0]),
        beta=st.sampled_from([0.0, 1.5]),
        count_forced_tokens=st.booleans(),
    ),
    path=st.lists(st.integers(0, 6), max_size=4),
)
def test_candidates_ranked_unbuilt_equal_built_children(seed, spec, headroom, score, path):
    """Every child along a walk (closing, continuing, dead at its token
    budget, truncated over the cap) reads the same rank key, normalized
    score, pool and death from its parent as from the Hypothesis built at
    once, and builds to that Hypothesis."""
    backend = random_backend(seed)
    first = VariableSpec("W", one_of=OneOf(("ab",)), max_tokens=2)
    sketch = Sketch(
        name="s",
        chunks=(
            Chunk.variable(first),
            Chunk.det("c"),
            Chunk.variable(spec),
            Chunk.det("d"),
        ),
    )
    # the cap falls somewhere in X, so its children can be truncated
    config = DecoderConfig(score=score, global_max_tokens=2 + headroom)
    eng = _Engine(StaticSketchSource(sketch), backend, config)
    # token 5 spells "ab", which closes W; settling forces "c" and opens X
    h = eng.settle(eng.apply_token(eng.settle(Hypothesis()), 5, -0.25).hyp)
    assert h.open_spec is spec and h.vars_done == 1 and not h.dead
    for step in [*path, None]:
        try:
            mask = compute_mask(h.open_state, backend.vocab)
        except DeadEnd:
            return
        continuing = []
        for t, lp in backend.next_distribution(h.tokens).allowed(mask):
            truncated = eng.truncated
            cand = eng.apply_token(h, t, lp)
            ref = eager_child(eng, h, t, lp)
            assert eng.truncated - truncated == int(ref.truncated)
            assert cand.rank_key(score) == ref.rank_key(score)
            assert cand.normalized_score(score).hex() == ref.normalized_score(score).hex()
            # a child that closed its variable stays in that variable's pool
            closed_pool = max(ref.vars_done - 1, 0)
            assert cand.pool_key() == (
                ref.vars_done if ref.open_spec is not None else closed_pool
            )
            assert cand.dead == ref.dead
            assert cand.closed == (ref.open_spec is None)
            assert cand.built(41) == ref.with_node(41)
            assert cand.hyp == ref
            if not ref.dead and ref.open_spec is not None:
                continuing.append(ref)
        if step is None or not continuing:
            return
        h = continuing[step % len(continuing)]


def check_invariants(h: Hypothesis, sketch: Sketch) -> None:
    """Spans tile the tokens, the raw score is the sum of the token
    log-probabilities, and every OneOf value is a member."""
    ends = [0] + [s.end for s in h.spans]
    assert [s.start for s in h.spans] == ends[:-1]
    assert ends[-1] == len(h.tokens)
    assert all(s.start <= s.end for s in h.spans)
    assert math.isclose(h.raw_score, math.fsum(h.logprobs), rel_tol=0.0, abs_tol=1e-9)
    members = {
        c.var.name: c.var.one_of.members
        for c in sketch.chunks
        if c.is_var and c.var.one_of is not None
    }
    for b in h.bindings:
        if b.name in members:
            assert b.value in members[b.name]


@settings(max_examples=90, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    labelled=st.sampled_from(list(decoder_configs())),
    cap=st.one_of(st.none(), st.integers(1, 12)),
    top_k=st.sampled_from([None, 2, 3]),
)
def test_decode_invariants(seed, labelled, cap, top_k):
    """On full and on truncated top-k backends, where a OneOf value can
    come from whole-member fallback."""
    _, config = labelled
    sketch = random_sketch(random.Random(seed))
    backend = random_backend(seed)
    if top_k is not None:
        backend = TopK(backend, top_k)
    config = DecoderConfig(global_max_tokens=cap, **config)
    try:
        result = decode(sketch, backend, config)
    except TemplateUnsatisfiable:
        with pytest.raises(TemplateUnsatisfiable):
            decode(sketch, backend, config)
        return
    for h in (result.best, *result.alternatives):
        assert h.done
        check_invariants(h, sketch)
    assert decode(sketch, backend, config) == result


@pytest.mark.parametrize("proposal", [PROPOSAL_BRANCH, PROPOSAL_SAMPLE, PROPOSAL_EXHAUSTIVE])
def test_fallback_dead_end_is_unsatisfiable(proposal):
    """A truncated distribution under a global cap that no whole-member
    completion fits: every proposal prunes the value, none leaks DeadEnd."""
    sketch, backend = random_fixture(2)
    config = DecoderConfig(
        kind=VAR, width=1, proposal=proposal, global_max_tokens=2
    )
    with pytest.raises(TemplateUnsatisfiable):
        decode(sketch, TopK(backend, 2), config)


class Materialised(LMBackend):
    """A backend's distributions rebuilt as whole sorted entry tuples, the
    reference a sparse distribution is decoded against."""

    def __init__(self, inner: LMBackend):
        self.inner = inner
        self.vocab = inner.vocab

    def next_distribution(self, prefix, text=None):
        entries = self.inner.next_distribution(prefix, text=text).entries
        return TokenDistribution.from_pairs(list(entries), complete=True)

    def score_forced(self, prefix, continuation, text=None):
        return self.inner.score_forced(prefix, continuation, text=text)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    order=st.integers(1, 3),
    cap=st.one_of(st.none(), st.integers(1, 12)),
)
def test_sparse_ngram_decodes_equal_materialised(seed, order, cap):
    """Every decoder reads the n-gram view through top, allowed and
    entries; each decode equals the one on whole sorted distributions."""
    rng = random.Random(seed)
    # three letters keep exhaustive enumeration of free variables small
    sketch = random_sketch(rng, letters="abc")
    vocab = random_backend(seed, letters="abc", merges=("ab",)).vocab
    # a short corpus leaves many ids unseen, so ties are broken by id
    corpus = [rng.randrange(len(vocab)) for _ in range(rng.randint(0, 30))]
    sparse = NGramLM(vocab, order, corpus)
    for _, config in decoder_configs():
        config = dict(config, global_max_tokens=cap)
        assert decode_fingerprint(sketch, sparse, **config) == decode_fingerprint(
            sketch, Materialised(sparse), **config
        )
