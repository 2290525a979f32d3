"""Decoding strategies: greedy, beam, variable-level, and pooled beam."""
import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import isolated_greedy, random_backend, random_fixture
from sketchdec.constraints import compute_mask
from sketchdec.decoders import (
    ARGMAX,
    BEAM,
    BEAMVAR,
    DEFAULT_DYNAMIC_CAP,
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
    expand_det,
    _Engine,
)
from sketchdec.errors import TemplateUnsatisfiable
from sketchdec.lm import NGramLM, TableLM, Vocabulary
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
    assert DecoderConfig(kind=ARGMAX, width=1).width == 1


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


def test_expand_det_forces_only_deterministic_text():
    backend = hand_table()
    source = StaticSketchSource(dotted_sketch())
    h = expand_det(Hypothesis(), source, backend)
    assert h.rendered() == "."
    assert h.open_spec is None
    assert not h.done


def test_expand_det_marks_exhausted_template_done():
    backend = hand_table()
    sketch = dotted_sketch()
    source = StaticSketchSource(sketch)
    h = Hypothesis()
    h = h.with_forced_span(backend.tokenize("."), [-1.0], ".")
    h = h.with_open_variable(sketch.chunks[1].var)
    from sketchdec.constraints import MaskState

    h = h.with_variable_token(1, -1.0, MaskState("x", 1, None))
    h = h.with_closed_variable()
    h = expand_det(h, source, backend)  # forces the trailing "."
    assert h.rendered() == ".x."
    h = expand_det(h, source, backend)
    assert h.done


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
    assert traced.tree.node_count > 1
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
    h = Hypothesis().with_forced_span(prefix, [0.0] * len(prefix), "")
    h = h.with_open_variable(spec)
    mask = compute_mask(h.open_state, backend.vocab)
    want = [(t, lp) for t, lp in backend.next_distribution(prefix).entries if t in mask]
    assert eng.allowed_continuations(h) == want
