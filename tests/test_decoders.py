"""Decoding strategies: greedy, beam, variable-level, and pooled beam."""
import builtins
import gc
import hashlib
import math
import random
import tracemalloc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    YieldingDict,
    isolated_greedy,
    random_backend,
    random_fixture,
    random_sketch,
    run_threads,
    stable_unit,
)
from sketchdec import decoders
from sketchdec.constraints import (
    MAX_TOKENS,
    MaskState,
    advance,
    compute_mask,
)
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
    _Cand,
    _Engine,
    _one_of_entry,
)
from sketchdec.errors import (
    DeadEnd,
    IllegalToken,
    InstanceTooLarge,
    TemplateUnsatisfiable,
)
from sketchdec.lm import (
    NEG_INF,
    LMBackend,
    NGramLM,
    StateTableLM,
    TableLM,
    TokenDistribution,
    Vocabulary,
    _SmoothedCounts,
    greedy_tokenize,
    ordered_sum,
)
from sketchdec.scoring import Hypothesis, ScoreParams, rank_hypotheses, rank_key
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
from sketchdec.tasks import dungeon, fig1, jsonfmt


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(kind="simulated-annealing")
    with pytest.raises(ValueError):
        DecoderConfig(width=0)
    with pytest.raises(ValueError):
        DecoderConfig(kind=ARGMAX, width=2)
    with pytest.raises(ValueError):
        DecoderConfig(proposal="psychic")
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
    assert default_token_cap(source, backend.tokenize) == 1 + 5 + 1
    dynamic = DynamicSketchSource(lambda v: [])
    assert default_token_cap(dynamic, backend.tokenize) == DEFAULT_DYNAMIC_CAP


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

    def program(values):
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
    # every member completion scores -inf, so exp(lp) is 0.0 for each
    sketch, backend = truncated_fixture(0, zero_rest=True)
    config = DecoderConfig(kind=VAR, width=2, proposal=PROPOSAL_SAMPLE)
    result = decode(sketch, backend, config)
    assert result.best.raw_score == -math.inf
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


def test_an_exhaustive_walk_raises_past_its_cap(monkeypatch):
    # list4 has two free variables of up to 8 tokens over 9 tokens
    sketch, backend = fig1.list4_sketch(), fig1.fig1_backend()
    with pytest.raises(InstanceTooLarge) as info:
        decode_var(sketch, backend, width=3, proposal="exhaustive")
    cap = decoders.EXHAUSTIVE_MAX_COMPLETIONS
    assert (info.value.count, info.value.cap) == (cap + 1, cap)
    # a walk of exactly the cap is kept whole
    sketch = Sketch(
        name="s",
        chunks=(Chunk.variable(VariableSpec("X", one_of=OneOf(("a", "ab", "b")))),),
    )
    backend = TableLM(Vocabulary(("", "a", "b"), 0), {}, default_row=[0.2, 0.4, 0.4])
    monkeypatch.setattr(decoders, "EXHAUSTIVE_MAX_COMPLETIONS", 3)
    result = decode_var(sketch, backend, width=8, proposal="exhaustive")
    assert len(result.alternatives) == 2
    monkeypatch.setattr(decoders, "EXHAUSTIVE_MAX_COMPLETIONS", 2)
    with pytest.raises(InstanceTooLarge, match="completion space 3 exceeds cap 2"):
        decode_var(sketch, backend, width=8, proposal="exhaustive")


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
    spec = sketch.chunks[1].var
    h = h.with_open_variable(spec, MaskState.start(spec))

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


def test_a_hypothesis_at_the_cap_is_a_dead_end_without_a_backend_read(monkeypatch):
    """A hypothesis that holds the cap's tokens, inside an open variable,
    expands to nothing under every expansion path: each one counts one
    truncation and reads nothing from the backend."""
    backend = random_backend(0)
    (c,) = backend.tokenize("c")
    calls = []
    for proposal in (PROPOSAL_BRANCH, PROPOSAL_SAMPLE, PROPOSAL_EXHAUSTIVE):
        config = DecoderConfig(proposal=proposal, global_max_tokens=2)
        eng = _Engine(StaticSketchSource(simple_sketch()), backend, config)
        # the forced "a" and one token of X fill the cap, and X stays open
        h = eng.apply_token(eng.settle(Hypothesis()), c, -1.0).hyp
        assert h.m_total == eng.cap and h.open_spec is not None
        with monkeypatch.context() as m:
            for name in ("next_distribution", "score_forced", "tokenize", "detokenize"):
                m.setattr(backend, name, lambda *a, _n=name, **kw: calls.append(_n))
            for expand in (
                lambda: eng.allowed_continuations(h, eng.entry(h)),
                lambda: eng.expand_top(h, 2),
                lambda: eng.expand_top(h, None),
                lambda: decoders._propose(eng, h, 2),
            ):
                before = eng.truncated
                assert expand() == []
                assert eng.truncated == before + 1
    assert calls == []


def test_member_fallback_skips_a_member_past_the_cap():
    """A whole-member completion whose tokens would carry the hypothesis
    past the cap is skipped, and counts one truncation; a member that fits
    is kept."""
    backend = random_backend(0)
    spec = VariableSpec("X", one_of=OneOf(("a", "cc")), max_tokens=3)
    sketch = Sketch(name="s", chunks=(Chunk.det("b"), Chunk.variable(spec)))
    eng = _Engine(StaticSketchSource(sketch), backend, DecoderConfig(global_max_tokens=2))
    h = eng.settle(Hypothesis())
    assert h.m_total == 1 and len(backend.tokenize("cc")) == 2
    options = eng.fallback_completions(h, eng.entry(h))
    assert [o.state.partial_value for o in options] == ["a"]
    assert eng.truncated == 1


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
        with pytest.raises(TemplateUnsatisfiable) as info:
            decode(sketch, backend, DecoderConfig(kind=kind, width=width))
        # no truncation: the message does not name the cap
        assert info.value.truncated_count == 0
        assert str(info.value) in (
            "no candidate finished variable 'X'",
            "no hypothesis completed the template",
        )


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
    h = h.with_open_variable(spec, MaskState.start(spec))
    mask = compute_mask(h.open_state, backend.vocab)
    want = [(t, lp) for t, lp in backend.next_distribution(prefix).entries if t in mask]
    assert eng.allowed_continuations(h, eng.entry(h)) == want


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


def truncated_fixture(seed: int, zero_rest: bool = False) -> tuple[Sketch, TopK]:
    """A top-2 backend whose two best tokens are always "a" and "b".

    No member of X but "bd" starts with either, and "bd" needs "d" after
    its "b", so every value of X is spelled by whole-member fallback.  With
    ``zero_rest``, "c", "d" and "cd" have probability 0, so every member
    completion scores -inf.
    """
    vocab = Vocabulary(("", "a", "b", "c", "d", "cd"), eos_index=0)

    def rows(prefix: str) -> list[float]:
        weights = [stable_unit(seed, prefix, i) for i in range(len(vocab))]
        weights[1] += 2.0
        weights[2] += 2.0
        if zero_rest:
            weights[3:] = [0.0] * 3
        total = ordered_sum(weights)
        return [w / total for w in weights]

    inner = StateTableLM(vocab, lambda text: text, rows)
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
            (i, s.kind, s.name, s.text, s.start, s.end, s.raw_logprob.hex())
            for i, s in enumerate(h.spans)
        ),
    )


def _result_fingerprint(r) -> tuple:
    return (
        _hyp_fingerprint(r.best),
        tuple(_hyp_fingerprint(a) for a in r.alternatives),
        r.truncated_count,
    )


def decode_fingerprint(source, backend, **config) -> str:
    """Everything a decode shows: tokens, float bits, spans, alternatives,
    truncations and the NDJSON tree.  An unsatisfiable template shows only
    the exception type."""
    try:
        r = decode(source, backend, DecoderConfig(record_tree=True, **config))
    except TemplateUnsatisfiable:
        return "unsatisfiable"
    return repr((*_result_fingerprint(r), r.tree.to_ndjson()))


def cap_escape_fixture() -> tuple[Sketch, TableLM]:
    """Two adjacent one-token variables under a one-token global cap.

    The first value fills the cap and no forced text follows it, so the
    hypothesis reaches the second variable without a settle that could
    drop it; the cap must stop it where the second value's token would be
    added.  Every decoder finds the template unsatisfiable.
    """
    sketch = Sketch(
        name="cap-escape",
        chunks=(
            Chunk.variable(VariableSpec("A", one_of=OneOf(("a", "b")), max_tokens=2)),
            Chunk.variable(VariableSpec("B", one_of=OneOf(("c", "d")), max_tokens=2)),
        ),
    )
    return sketch, random_backend(3)


def test_no_decoder_decodes_past_the_cap():
    """Under a one-token cap the cap-escape template is unsatisfiable for
    every decoder kind, proposal and width, and under a two-token cap each
    decodes both values."""
    sketch, backend = cap_escape_fixture()
    for label, config in decoder_configs():
        with pytest.raises(TemplateUnsatisfiable):
            decode(sketch, backend, DecoderConfig(global_max_tokens=1, **config))
        r = decode(sketch, backend, DecoderConfig(global_max_tokens=2, **config))
        assert r.best.m_total == 2, label


def test_a_decode_the_cap_makes_unsatisfiable_says_so():
    """Under every decoder, a template that only the token cap makes
    unsatisfiable raises an error that names the cap and carries the
    truncation count: the CLI's two-variable cap sketch on a uniform model,
    under a one-token cap."""
    sketch, _ = cap_escape_fixture()
    vocab = Vocabulary(("", "a", "b", "c", "d"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[0.2] * 5)
    for label, config in decoder_configs():
        with pytest.raises(TemplateUnsatisfiable) as info:
            decode(sketch, backend, DecoderConfig(global_max_tokens=1, **config))
        n = info.value.truncated_count
        assert n > 0, label
        assert str(info.value).endswith(
            f" under the token cap of 1 (truncated_count={n})"
        ), label


def random_ngram_fixture(seed: int, order: int) -> tuple[Sketch, NGramLM]:
    """A random sketch over three letters and an n-gram model of the given
    order, counted from a short random corpus."""
    rng = random.Random(seed)
    # three letters keep exhaustive enumeration of free variables small
    sketch = random_sketch(rng, letters="abc")
    vocab = random_backend(seed, letters="abc", merges=("ab",)).vocab
    # a short corpus leaves many ids unseen, so ties are broken by id
    corpus = [rng.randrange(len(vocab)) for _ in range(rng.randint(0, 30))]
    return sketch, NGramLM(vocab, order, corpus)


def pinned_families():
    """(family, source, backend, extra config) for the pinned-output test."""
    for seed in range(20):
        sketch, backend = random_fixture(seed)
        yield "random", sketch, backend, {}
        yield "random-cap3", sketch, backend, {"global_max_tokens": 3}
    # one and two tokens under the default cap, where most decodes still
    # succeed, so a change to what the cap means shows which decodes move
    for seed in range(10):
        sketch, backend = random_fixture(seed)
        cap = default_token_cap(StaticSketchSource(sketch), backend.tokenize)
        for under in (1, 2):
            yield f"random-cap-{under}", sketch, backend, {"global_max_tokens": cap - under}
    for seed in range(5):
        sketch, backend = random_fixture(100 + seed)
        yield "topk", sketch, TopK(backend, 2), {}
        yield "topk", *truncated_fixture(seed), {}
    # caps inside the decodes of truncated top-k backends; at cap 8, two
    # of var's samples reach one hypothesis at the cap, whose draw node is
    # read once, so its truncation is counted once
    for seed, k, cap in ((135, 2, 8), (219, 2, 13), (262, 2, 9), (310, 3, 14)):
        sketch, backend = random_fixture(seed)
        yield "topk-cap", sketch, TopK(backend, k), {"global_max_tokens": cap}
    yield "topk-cap", *truncated_fixture(0), {"global_max_tokens": 6}
    instance = dungeon.suite(0)[0]
    yield (
        "dungeon",
        dungeon.dungeon_source(instance),
        dungeon.dungeon_backend(instance),
        {},
    )
    sketch, backend = cap_escape_fixture()
    yield "cap-escape", sketch, backend, {"global_max_tokens": 1}
    # the sparse n-gram view, read best-first by every decoder
    for seed in range(6):
        for order in (1, 2, 3):
            yield "ngram", *random_ngram_fixture(seed, order), {}
    # the only decodes at a non-default alpha and beta
    a1b2 = {"score": ScoreParams(alpha=1.0, beta=2.0)}
    for seed in range(4):
        sketch, backend = random_fixture(200 + seed)
        yield "a1b2", sketch, backend, a1b2
        yield "a1b2", sketch, TopK(backend, 2), a1b2


def pinned_runs():
    """(family/decoder key, source, backend, config) of every pinned decode."""
    for family, source, backend, extra in pinned_families():
        for label, config in decoder_configs():
            if label == f"{VAR}-{PROPOSAL_EXHAUSTIVE}" and config["width"] == 2:
                # the enumeration does not depend on the width, and repeating
                # it at width 2 would add a second to the test
                continue
            yield f"{family}/{label}", source, backend, {**config, **extra}


def family_digests(fingerprints) -> dict[str, str]:
    """sha256 per key of the (key, fingerprint) pairs, in their order."""
    hashes = {}
    for key, fingerprint in fingerprints:
        hashes.setdefault(key, hashlib.sha256()).update(fingerprint.encode())
    return {key: h.hexdigest() for key, h in hashes.items()}


def pinned_digests(runs=None) -> dict[str, str]:
    return family_digests(
        (key, decode_fingerprint(source, backend, **config))
        for key, source, backend, config in (pinned_runs() if runs is None else runs)
    )


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
    "random-cap-1/argmax": "10d66201a9a4bb4b4aa225d502f8e31407974c196c581e4ae7c2a4a76158db6c",
    "random-cap-1/beam": "aca38ca1a91227aea6864320a6b6ecc7a0e5bcad47b4f63253ea918dc68011df",
    "random-cap-1/beamvar": "4b9a19d31402a904187ccf8591e5b247d92b6312f432446485446e12c3c6f582",
    "random-cap-1/var-branch": "ab5e3c01e9d88dfc836354c296dba46a4dca9d1a6e4a23476eb7cd004b776af9",
    "random-cap-1/var-sample": "8c61fbd2ee4043733ec7dd75c52a1a30e68b0b65e6295c678c824009b3bcde03",
    "random-cap-1/var-exhaustive": "dfa86a1baabeb2d9e33f8953c082cf9b142c3664686e1aef7ffa07de0006b31c",
    "random-cap-2/argmax": "e133fe7c8bd5269134db3e51642743fda9b0121c9632535a1db16e0817a313ad",
    "random-cap-2/beam": "3bc1a6d501b13df35c67e1304637b4f8aa6d90c9c7a91c702d47504c98906f50",
    "random-cap-2/beamvar": "a2ee734ddca954213b5e3ca9389853d4f7be2a51edf92f550e0fb29ef09edd4f",
    "random-cap-2/var-branch": "8b3c0b3f0d3b72e5323bfb6ac93acef5aca2242e6c4c96184fee9a4e77d50f88",
    "random-cap-2/var-sample": "7199f170510cc566325fd5a22e0ff5a6eaafc2267f7323f4ce0d9338dad6763f",
    "random-cap-2/var-exhaustive": "ad5ef62f08392149895f01bdb3cca33765de5092c487425a09658742d9905598",
    "topk/argmax": "b04f8ea70f6372af56c3f73af44c1853846f455420e99745c4ceb2b329bc9904",
    "topk/beam": "7888565d26558eddea8928fb71d4206760eef87cfe88dfed7d6b6f0d25f62c0b",
    "topk/beamvar": "0ba8d355ffb41c060bc82e58426791ff132c5de8ef152e60b6bb28ad7f2ac0f2",
    "topk/var-branch": "2b9b24c3381f3af01e07c840534625462e4cd6916e7bd91ed20a181de5777c20",
    "topk/var-sample": "14461ccc1641151d2316ae81549cd8d258d08115919a1e68cc6eab014cb4183e",
    "topk/var-exhaustive": "e4d158ea6ae6239887e2ca990e697ea9fe02d07b55bcf9e7e4a9eedd8561f126",
    "topk-cap/argmax": "56a06e54205454a8a498a9cd2a05f8895dd3c2c8ca581426134ce6172fed0973",
    "topk-cap/beam": "101b5cc8e540118774f73da2a1d9d8e7f9676823fe9cfc3559d9e19f74b26dc6",
    "topk-cap/beamvar": "926d58a0ccda24e6bbfea4932796ffea37c4c196977347f168fb4aaa7808f12d",
    "topk-cap/var-branch": "8219a8f659b41c8337f8badb8fdd53cbf47c082bb303eecab13ed89779934dc6",
    "topk-cap/var-sample": "f436dbd3be9ae761aeb5448214d8d2235f367ec41179910332095476d4a9f912",
    "topk-cap/var-exhaustive": "7d9920e7316c393b51b0f91ee066cc76f94afd5d6d1b205729e53286ca2e9dd6",
    "dungeon/argmax": "9f2a73e2166a810b2e4a8ee0db4f6900b20448e7fd633db33554c9708126c905",
    "dungeon/beam": "bc23ae47c5778fc75d7aed1a542842f89b298e0af3ed47f61004a5f8f9bde53b",
    "dungeon/beamvar": "31b845165a2dabbbe729a31625324b52dc59b011143d1d99bde301df15a884da",
    "dungeon/var-branch": "31b845165a2dabbbe729a31625324b52dc59b011143d1d99bde301df15a884da",
    "dungeon/var-sample": "34e9f7633da12730858dd1929462a8f80e4ff36d5c56b8add217d4ef4b5f9b4e",
    "dungeon/var-exhaustive": "67775b264b1996766b70b9e8080b82a315e09f7209c75ba0aaa9ca016c236bbf",
    "cap-escape/argmax": "c5792ba9c0a0ebcf144ec26ebb9996f2b80d4cae80245bd403bdd46e932978e6",
    "cap-escape/beam": "ba6979393552a145ef3a1304aff5a194c7905b86e2874f2017deeb8af7e29c57",
    "cap-escape/beamvar": "ba6979393552a145ef3a1304aff5a194c7905b86e2874f2017deeb8af7e29c57",
    "cap-escape/var-branch": "ba6979393552a145ef3a1304aff5a194c7905b86e2874f2017deeb8af7e29c57",
    "cap-escape/var-sample": "ba6979393552a145ef3a1304aff5a194c7905b86e2874f2017deeb8af7e29c57",
    "cap-escape/var-exhaustive": "4361c97a2193f1190ca4bab57f9e0265fea6b7fe2db855a2217f9f5c48377650",
    "ngram/argmax": "c958ca9df7845093ac7e77c1c271164d452fc1b7a171e23f25ad455cbf5ef004",
    "ngram/beam": "dc9ef7c9fa491ff5ac530bbbdc9b52ef36cdcb6ef968d439c3feadaa410ba8dd",
    "ngram/beamvar": "e92ddd3beca7040d9309f41b5314edf75b78766f3634ff3cb18762f9432c82d3",
    "ngram/var-branch": "a6195c56ec3c36d869ba6b6cee6e569a00cc6c3d3db573887774e56d6da88a9a",
    "ngram/var-sample": "62a6ecbfd2c32eec10d8bc336719a8903bc978d8f63d7cc7ae39366f361f4a0d",
    "ngram/var-exhaustive": "4c59b389fec83c3d7ef2a1b5a04a16f6dde5fe7e140772e1c63553cc727a7b1f",
    "a1b2/argmax": "c84d1ec79e6626330877732063d979f3c691dcebc932befadfe1ce89dfcd96fc",
    "a1b2/beam": "704802ce7ed926ac6b46d94f0126d1da8253d7d0ea07e0a995833e3f91c8a543",
    "a1b2/beamvar": "e4d600615894effbc9b667fbe7f4099693d33e229f2a6ebcd15a26f25347678d",
    "a1b2/var-branch": "590937332ac0ead88de19b05ac06fefa19aea3ebac7ed2a1df28a79b237dd7b2",
    "a1b2/var-sample": "ea5fb0cc7ad3665d7d92176ad94543773e7a796c19e2066097b27105495a9373",
    "a1b2/var-exhaustive": "e01be7561de6cf4c13dc317bbe177a23792146deca18b98b8e83d34f2b482ed4",
}


def test_decoder_outputs_are_pinned():
    assert pinned_digests() == PINNED_DIGESTS


@pytest.mark.parametrize("record_tree", [False, True], ids=["untraced", "traced"])
def test_decodes_leave_nothing_to_the_cyclic_collector(record_tree):
    """Every decoder kind and var proposal frees what its decode made by
    reference counting alone: with the cyclic collector off, a decode
    leaves no unreachable cycle behind."""
    fixtures = [random_fixture(0), random_ngram_fixture(1, 2), truncated_fixture(0)]
    gc.collect()
    gc.disable()
    try:
        for sketch, backend in fixtures:
            for label, config in decoder_configs(widths=(1, 2)):
                decode(sketch, backend, DecoderConfig(record_tree=record_tree, **config))
                assert gc.collect() == 0, (sketch.name, label)
    finally:
        gc.enable()


def test_trace_switch_leaves_decodes_unchanged():
    """With the tree off, every pinned decode has the same tokens, float
    bits, spans, alternatives and truncation count as with it on, and no
    tree."""
    for key, source, backend, config in pinned_runs():
        shown = []
        for record_tree in (True, False):
            try:
                r = decode(source, backend, DecoderConfig(record_tree=record_tree, **config))
            except TemplateUnsatisfiable:
                shown.append("unsatisfiable")
                continue
            assert (r.tree is not None) == record_tree, key
            shown.append(_result_fingerprint(r))
        assert shown[0] == shown[1], key


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

    def counted(self, h, entry):
        calls.append(h.open_state.partial_value)
        return fallback(self, h, entry)

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


def test_pinned_outputs_hold_on_a_warm_index():
    """Every pinned decode, made again over the same sketches and backends
    after all the others and in reverse order, so that it reads the OneOf
    index others left, is byte-identical."""
    runs = list(pinned_runs())
    assert pinned_digests(runs) == PINNED_DIGESTS
    backward = [
        (key, decode_fingerprint(source, backend, **config))
        for key, source, backend, config in reversed(runs)
    ]
    assert family_digests(reversed(backward)) == PINNED_DIGESTS


def test_pinned_outputs_hold_with_one_index_entry(monkeypatch):
    """With room for one entry, nearly every OneOf lookup evicts the last
    one and makes its entry again, and every decode is the same."""
    monkeypatch.setattr(decoders, "ONE_OF_INDEX_SIZE", 1)
    runs = list(pinned_runs())
    assert pinned_digests(runs) == PINNED_DIGESTS
    assert max(len(backend.vocab._one_of) for _, _, backend, _ in runs) == 1


def test_one_of_index_keys_on_the_vocabulary():
    """Two vocabularies share one OneOf members tuple but spell token 3
    differently ("ab", which is a member, and "ba", which leaves every
    member).  Decoded one after the other, in either order, each gets the
    decode it gets on empty indexes, and leaves the other's index as it
    was."""
    one_of = OneOf(("ab", "b"))
    sketch = Sketch(
        name="s",
        chunks=(Chunk.variable(VariableSpec("X", one_of=one_of, max_tokens=3)), Chunk.det("a")),
    )
    backends = [
        TableLM(Vocabulary(("", "a", "b", last), eos_index=0), {}, default_row=[0.1, 0.2, 0.2, 0.5])
        for last in ("ab", "ba")
    ]

    def fingerprints(order, config):
        for backend in backends:
            backend.vocab._one_of.clear()
        shown = {}
        for i in order:
            shown[i] = decode_fingerprint(sketch, backends[i], **config)
            assert backends[i].vocab._one_of, label
            assert not any(backends[j].vocab._one_of for j in order if j not in shown)
        return shown

    for label, config in decoder_configs(widths=(1, 2)):
        cold = {**fingerprints([0], config), **fingerprints([1], config)}
        assert cold[0] != cold[1], label
        assert fingerprints([0, 1], config) == cold, label
        assert fingerprints([1, 0], config) == cold, label


def test_one_of_index_stays_at_its_bound(monkeypatch):
    """Decodes that make more distinct OneOf states over a vocabulary than
    the bound leave the bound in its index, and decode the same as with
    room for every state."""
    fixtures = [random_fixture(seed) for seed in range(10)]
    runs = [
        (fixture, config)
        for fixture in fixtures
        for _, config in decoder_configs(widths=(2,))
    ]

    def decode_all(bound):
        for _, backend in fixtures:
            monkeypatch.setitem(vars(backend.vocab), "_one_of", {})
        monkeypatch.setattr(decoders, "ONE_OF_INDEX_SIZE", bound)
        shown = [decode_fingerprint(*fixture, **config) for fixture, config in runs]
        return shown, [len(backend.vocab._one_of) for _, backend in fixtures]

    unbounded, states = decode_all(10_000)
    assert 2 < max(states) < 10_000
    bounded, kept = decode_all(2)
    assert kept == [min(n, 2) for n in states]
    assert bounded == unbounded


def test_concurrent_decodes_share_the_index(monkeypatch):
    """Two threads decoding over one backend, with room for two index
    entries so that nearly every lookup inserts and evicts while the other
    thread does too, both finish and get the sequential decodes."""
    # an exhaustive walk of a 150-member OneOf makes about 1,000 states
    sketch, backend = large_ngram_fixture()
    configs = [config for _, config in decoder_configs(widths=(2,))] * 6
    want = [decode_fingerprint(sketch, backend, **config) for config in configs]
    monkeypatch.setitem(vars(backend.vocab), "_one_of", YieldingDict())
    monkeypatch.setattr(decoders, "ONE_OF_INDEX_SIZE", 2)
    got: dict[int, list] = {}

    def work(name, order):
        shown = {i: decode_fingerprint(sketch, backend, **configs[i]) for i in order}
        got[name] = [shown[i] for i in range(len(configs))]

    order = list(range(len(configs)))
    assert run_threads(work, (order, order[::-1])) == []
    assert got == {0: want, 1: want}


def dropped_vocabulary_fixture():
    """A sketch whose variable is a OneOf of up to 40 members, a maker of
    fresh 145-token table backends, each over its own vocabulary, and the
    configs that fill its OneOf index, full masks included."""
    letters = "abcdefghijklmnop"
    tokens = ("",) + tuple(letters) + tuple(a + b for a in letters for b in letters[:8])
    rng = random.Random(3)
    members = {"".join(rng.choices(letters, k=rng.randint(2, 4))) for _ in range(40)}
    spec = VariableSpec("X", one_of=OneOf(tuple(sorted(members))), max_tokens=4)
    sketch = Sketch(name="s", chunks=(Chunk.det("a"), Chunk.variable(spec), Chunk.det("b")))
    configs = [
        DecoderConfig(kind=BEAMVAR, width=2),
        DecoderConfig(kind=VAR, width=2, proposal=PROPOSAL_EXHAUSTIVE),
    ]

    def make() -> TableLM:
        vocab = Vocabulary(tokens, eos_index=0)
        return TableLM(vocab, {}, default_row=[1 / len(tokens)] * len(tokens))

    return sketch, make, configs


def test_dropped_vocabularies_take_their_index_with_them():
    """Decodes over fresh vocabularies fill each one's OneOf index; once
    their backends are dropped, no vocabulary is left alive."""
    sketch, make, configs = dropped_vocabulary_fixture()
    refs = []
    for _ in range(8):
        backend = make()
        for config in configs:
            decode(sketch, backend, config)
        assert backend.vocab._one_of
        refs.append(weakref.ref(backend.vocab))
        del backend
    gc.collect()
    assert [ref() for ref in refs] == [None] * 8


def test_memory_stays_flat_over_dropped_backends():
    """Twenty backends, each decoded over and then dropped: from the second
    on, what the process keeps grows by less than one live backend
    holds."""
    sketch, make, configs = dropped_vocabulary_fixture()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        kept = []
        for _ in range(20):
            backend = make()
            for config in configs:
                decode(sketch, backend, config)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del backend
            gc.collect()
            kept.append(tracemalloc.get_traced_memory()[0])
            held -= kept[-1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert kept[-1] - kept[1] < held


def test_dead_end_mask_is_empty_on_every_lookup(monkeypatch):
    keys = counted_masks(monkeypatch)
    vocab = Vocabulary(("", "a", "b"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[0.25, 0.5, 0.25])
    spec = VariableSpec("X", one_of=OneOf(("ac",)), max_tokens=3)
    sketch = Sketch(name="s", chunks=(Chunk.variable(spec),))
    eng = _Engine(StaticSketchSource(sketch), backend, DecoderConfig())
    h = eng.apply_token(eng.settle(Hypothesis()), 1, -1.0).hyp
    # no token spells the "c" that "a" needs
    for _ in range(3):
        assert eng.allowed_continuations(h, eng.entry(h)) == []
    assert [partial for _, partial in keys] == ["a"]


def reference_outcome(new_state: MaskState, verdict) -> tuple[MaskState, bool, bool]:
    """The transition rule written out, as (state, closed, dead): a verdict
    that closes the chunk seals the variable, unless the token budget ran
    out inside a OneOf value, which kills it."""
    if not verdict.closes_chunk:
        return new_state, False, False
    if verdict.status == MAX_TOKENS and new_state.constrained:
        return new_state, False, True
    return new_state, True, False


def eager_child(
    eng: _Engine, h: Hypothesis, token: int, logprob: float
) -> tuple[Hypothesis, bool]:
    """Reference for the engine's candidates: the child built at once by
    the transition rule, written out with the Hypothesis steps, and whether
    it died."""
    spec = h.open_spec
    new_state, closed, dead = reference_outcome(
        *advance(
            h.open_state, token, eng.backend.vocab, spec.stop_phrases, spec.max_tokens
        )
    )
    piece = eng.backend.detokenize((token,))
    if closed:
        return h.with_closing_token(token, logprob, new_state, piece), False
    return h.with_variable_token(token, logprob, new_state, piece), dead


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
    ),
    path=st.lists(st.integers(0, 6), max_size=4),
)
def test_candidates_ranked_unbuilt_equal_built_children(seed, spec, headroom, score, path):
    """Every child along a walk (closing, continuing, dead at its token
    budget), made in one batch per parent, reads the same rank key parts,
    rank order, normalized score, pool and death from its parent as from
    the Hypothesis built at once, stores that Hypothesis's score bits, and,
    while it lives, builds to that Hypothesis.  A child past the global cap is made
    as one under it: the cap stops the expansion that would read its
    token, never the child."""
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
    # the cap falls somewhere in X, so the walk makes children past it
    config = DecoderConfig(score=score, global_max_tokens=2 + headroom)
    eng = _Engine(StaticSketchSource(sketch), backend, config)
    # token 5 spells "ab", which closes W; settling forces "c" and opens X
    h = eng.settle(eng.apply_token(eng.settle(Hypothesis()), 5, -0.25).hyp)
    assert h.open_spec is spec and h.vars_done == 1
    for step in [*path, None]:
        try:
            mask = compute_mask(h.open_state, backend.vocab)
        except DeadEnd:
            return
        continuing = []
        pairs = backend.next_distribution(h.tokens).allowed(mask)
        truncated = eng.truncated
        cands = eng.children(h, eng.entry(h), pairs)
        refs, deaths = zip(*(eager_child(eng, h, t, lp) for t, lp in pairs))
        assert eng.truncated == truncated
        assert len(cands) == len(pairs)
        # the pool of each child's node, as a traced selection records it
        traced = _Engine(eng.source, backend, replace(config, record_tree=True))
        traced.select([(h, cands)], 1)
        pools = {n.token_text: n.pool for n in traced.recorder.tree().nodes[1:]}
        assert len(pools) == len(cands)
        norms = [
            NEG_INF if dead else ref.normalized_score(score)
            for ref, dead in zip(refs, deaths)
        ]
        # the batch ranks in the built children's order
        assert sorted(range(len(cands)), key=lambda i: cands[i].rank_key()) == sorted(
            range(len(cands)), key=lambda i: rank_key(norms[i], refs[i].tokens)
        )
        for (token, logprob), cand, ref, dead, norm in zip(
            pairs, cands, refs, deaths, norms
        ):
            # the key is rank_key(norm, ref.tokens) with the tokens split
            # into the parent's and the child's own
            neg, length, parent_tokens, own = cand.rank_key()
            assert (-neg).hex() == norm.hex()
            assert (length, parent_tokens + (own,)) == (len(ref.tokens), ref.tokens)
            assert cand.normalized_score().hex() == norm.hex()
            if not dead:
                assert cand.norm.hex() == norm.hex()
            # a child that closed its variable stays in that variable's pool
            closed_pool = max(ref.vars_done - 1, 0)
            assert pools[backend.vocab.token_text(token)] == (
                ref.vars_done if ref.open_spec is not None else closed_pool
            )
            assert cand.dead == dead
            assert cand.closed == (ref.open_spec is None)
            if dead:
                continue
            assert cand.built(41) == ref.with_node(41)
            assert cand.hyp == ref
            if ref.open_spec is not None:
                continuing.append(ref)
        if step is None or not continuing:
            return
        h = continuing[step % len(continuing)]


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(
        st.tuples(
            # the parent's tokens: member-fallback chains end on parents
            # of different lengths
            st.lists(st.integers(0, 2), max_size=3),
            st.integers(0, 2),
            # few scores, so equal floats recur; -0.0 equals 0.0
            st.sampled_from([-1.5, -0.5, -0.0, 0.0, NEG_INF]),
            st.booleans(),
        ),
        max_size=10,
    )
)
def test_candidate_rank_keys_order_as_built_keys(pool):
    """Over a pool of candidates, live and dead, ``_Cand.rank_key``
    orders every pair as ``rank_key`` over the built child's normalized
    score and tokens does."""
    spec = VariableSpec("X", max_tokens=8)
    state = MaskState("x", 1, None)
    cands, built_keys = [], []
    for prefix, token, norm, dead in pool:
        lps, text = [-0.5] * len(prefix), "x" * len(prefix)
        parent = Hypothesis().with_forced_span(prefix, lps, text)
        parent = parent.with_open_variable(spec, MaskState.start(spec))
        cands.append(_Cand(parent, token, "x", -0.5, state, False, dead, norm))
        built = parent.with_variable_token(token, -0.5, state, "x")
        built_keys.append(rank_key(NEG_INF if dead else norm, built.tokens))
    keys = [c.rank_key() for c in cands]
    for i in range(len(pool)):
        for j in range(len(pool)):
            assert (keys[i] < keys[j]) == (built_keys[i] < built_keys[j])
            assert (keys[i] == keys[j]) == (built_keys[i] == built_keys[j])
    assert sorted(range(len(pool)), key=keys.__getitem__) == sorted(
        range(len(pool)), key=built_keys.__getitem__
    )


def test_one_of_steps_equal_advance_per_token_count_and_budget():
    """The index keeps each OneOf step per (token count, token budget):
    two specs sharing one members tuple under different budgets, and one
    value reached by two tokens ("a"+"b") or by one ("ab"), each get
    ``advance``'s state, closed and dead as the transition rule reads its
    verdict; hypotheses at the same count and budget share the step."""
    backend = random_backend(0)
    vocab = backend.vocab
    (a,), (b,), (ab,), (c,) = map(backend.tokenize, ("a", "b", "ab", "c"))
    one_of = OneOf(("ab", "abc", "abcd"))
    specs = [VariableSpec(n, one_of=one_of, max_tokens=m) for n, m in (("X", 3), ("Y", 4))]
    sketch = Sketch(
        name="s",
        chunks=(Chunk.variable(specs[0]), Chunk.det("d"), Chunk.variable(specs[1])),
    )
    eng = _Engine(StaticSketchSource(sketch), backend, DecoderConfig())

    def reach(spec, path) -> Hypothesis:
        h = Hypothesis().with_open_variable(spec, MaskState.start(spec))
        for t in path:
            h = eng.apply_token(h, t, -0.5).hyp
        return h

    reached = [reach(spec, path) for spec in specs for path in ((a, b), (ab,))]
    entry = _one_of_entry(reached[0].open_state, vocab)
    for h in reached:
        assert h.open_state.partial_value == "ab"
        assert _one_of_entry(h.open_state, vocab) is entry
        steps = entry.steps[h.open_state.tokens_emitted, h.open_spec.max_tokens]
        for t in range(len(vocab)):
            try:
                want = advance(h.open_state, t, vocab, (), h.open_spec.max_tokens)
            except IllegalToken:
                with pytest.raises(IllegalToken):
                    eng.apply_token(h, t, -0.5)
                assert t not in steps
                continue
            want = reference_outcome(*want)
            cand = eng.apply_token(h, t, -0.5)
            assert (cand.state, cand.closed, cand.dead) == want
            assert steps[t] == want
    # "c" completes "abc" at X's budget after "a"+"b", and continues
    # toward "abcd" otherwise
    outcomes = [
        entry.steps[h.open_state.tokens_emitted, h.open_spec.max_tokens][c][1:]
        for h in reached
    ]
    assert outcomes == [(True, False), (False, False), (False, False), (False, False)]
    # a hypothesis that opens X on its own shares the first one's steps
    again = reach(specs[0], (a, b))
    assert again.open_state is reached[0].open_state


def check_invariants(h: Hypothesis, sketch: Sketch) -> None:
    """Spans tile the tokens, each span's raw log-probability is the
    left-to-right sum of its tokens', the raw score is the sum of the token
    log-probabilities, and every OneOf value is a member."""
    ends = [0] + [s.end for s in h.spans]
    assert [s.start for s in h.spans] == ends[:-1]
    assert ends[-1] == len(h.tokens)
    assert all(s.start <= s.end for s in h.spans)
    for s in h.spans:
        assert s.raw_logprob.hex() == ordered_sum(h.logprobs[s.start : s.end]).hex()
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
    adjacent=st.booleans(),
)
def test_decode_invariants(seed, labelled, cap, top_k, adjacent):
    """On full and on truncated top-k backends, where a OneOf value can
    come from whole-member fallback; under a global cap, every decode
    holds at most the cap's tokens or is unsatisfiable.  With ``adjacent``
    the sketch keeps only its variables, so no forced text follows a value
    that closes at the cap: only the cap itself stops the next variable's
    tokens."""
    _, config = labelled
    sketch = random_sketch(random.Random(seed))
    if adjacent:
        variables = tuple(c for c in sketch.chunks if c.is_var)
        sketch = Sketch(name=sketch.name, chunks=variables)
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
        assert cap is None or h.m_total <= cap
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
    sketch, sparse = random_ngram_fixture(seed, order)
    for _, config in decoder_configs():
        config = dict(config, global_max_tokens=cap)
        assert decode_fingerprint(sketch, sparse, **config) == decode_fingerprint(
            sketch, Materialised(sparse), **config
        )
