"""Length normalization and hypothesis state transitions."""
import dataclasses
import inspect
import math
import random

import pytest
from hypothesis import given, strategies as st

from sketchdec.constraints import MaskState
from sketchdec.scoring import (
    Hypothesis,
    ScoreParams,
    Span,
    normalization_weight,
    rank_hypotheses,
)
from sketchdec.sketch import VariableSpec


def test_weight_special_cases():
    neutral = ScoreParams(alpha=0.0, beta=0.0)
    assert normalization_weight(neutral, 0) == 1.0
    assert normalization_weight(neutral, 17) == 1.0
    mean = ScoreParams(alpha=1.0, beta=0.0)
    assert normalization_weight(mean, 4) == pytest.approx(1 / 4)
    # (2+1)^0.5 / (2+7)^0.5 = sqrt(3)/3
    assert normalization_weight(ScoreParams(alpha=0.5, beta=2.0), 7) == pytest.approx(
        0.5773502691896258, abs=1e-15
    )
    with pytest.raises(ValueError):
        normalization_weight(neutral, -1)


def test_weight_decreases_with_length():
    params = ScoreParams(alpha=0.7, beta=0.0)
    weights = [normalization_weight(params, m) for m in range(1, 20)]
    assert weights == sorted(weights, reverse=True)
    assert weights[0] == 1.0


def test_score_params_validation():
    with pytest.raises(ValueError):
        ScoreParams(alpha=-0.1)
    with pytest.raises(ValueError):
        ScoreParams(alpha=1.1)
    with pytest.raises(ValueError):
        ScoreParams(beta=-1.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_score_params_reject_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta"):
        ScoreParams(beta=beta)


def built_hypothesis() -> Hypothesis:
    spec = VariableSpec("X", max_tokens=8)
    h = Hypothesis()
    h = h.with_forced_span([5, 6], [-0.5, -0.25], "ab")
    h = h.with_open_variable(spec, MaskState.start(spec))
    h = h.with_variable_token(7, -1.0, MaskState("c", 1, None), "c")
    h = h.with_closing_token(8, -2.0, MaskState("cd", 2, None), "d")
    return h.with_forced_span([9], [-0.125], "e")


def test_transitions_change_only_their_fields():
    """Each transition equals dataclasses.replace of the fields it sets."""
    spec = VariableSpec("Y", max_tokens=4)
    state = MaskState("q", 1, None)
    # every field away from its default, so a dropped field shows
    h = dataclasses.replace(
        built_hypothesis()
        .with_open_variable(spec, MaskState.start(spec))
        .with_variable_token(3, -0.5, state, "q"),
        done=True,
        node_id=11,
    )
    replace = dataclasses.replace
    span = Span("det", None, "zz", 6, 8, -0.75)
    assert h.with_forced_span([1, 2], [-0.5, -0.25], "zz") == replace(
        h,
        tokens=h.tokens + (1, 2),
        text=h.text + "zz",
        logprobs=h.logprobs + (-0.5, -0.25),
        spans=h.spans + (span,),
        raw_score=h.raw_score - 0.75,
    )
    assert h.with_forced_span([1], [-0.5], "z") == replace(
        h,
        tokens=h.tokens + (1,),
        text=h.text + "z",
        logprobs=h.logprobs + (-0.5,),
        spans=h.spans + (Span("det", None, "z", 6, 7, -0.5),),
        raw_score=h.raw_score - 0.5,
    )
    assert h.with_open_variable(spec, state) == replace(
        h, open_spec=spec, open_state=state
    )
    assert h.with_variable_token(4, -1.0, state, "r") == replace(
        h,
        tokens=h.tokens + (4,),
        text=h.text + "r",
        logprobs=h.logprobs + (-1.0,),
        raw_score=h.raw_score - 1.0,
        open_state=state,
    )
    assert h.with_variable_token(4, -1.0, state, "r", node_id=2).node_id == 2
    closed = Span("var", "Y", "qr", 5, 7, -1.5)
    assert h.with_closing_token(4, -1.0, MaskState("qr", 2, None), "r") == replace(
        h,
        tokens=h.tokens + (4,),
        text=h.text + "r",
        logprobs=h.logprobs + (-1.0,),
        spans=h.spans + (closed,),
        raw_score=h.raw_score - 1.0,
        vars_done=h.vars_done + 1,
        open_spec=None,
        open_state=None,
    )
    fresh = Hypothesis()
    assert fresh.as_done(5) == replace(fresh, done=True, node_id=5)
    assert h.as_done(11) == h
    assert h.with_node(7) == replace(h, node_id=7)


def test_hypothesis_is_a_frozen_dataclass():
    """The hand-written __init__ keeps the dataclass contract: one
    parameter per field, in field order with the field's default, and
    assignment still refused."""
    h = built_hypothesis()
    names = [f.name for f in dataclasses.fields(Hypothesis)]
    # only what the other fields cannot give: where the open variable
    # starts, its raw sum and the variable token count are derived
    assert names == [
        "tokens",
        "text",
        "logprobs",
        "spans",
        "raw_score",
        "vars_done",
        "open_spec",
        "open_state",
        "done",
        "node_id",
    ]
    params = list(inspect.signature(Hypothesis.__init__).parameters.values())[1:]
    assert [p.name for p in params] == names
    assert [p.default for p in params] == [f.default for f in dataclasses.fields(h)]
    assert Hypothesis(*(getattr(h, n) for n in names)) == h
    assert Hypothesis(**{n: getattr(h, n) for n in names}) == h
    assert hash(dataclasses.replace(h)) == hash(h)
    assert dataclasses.replace(h, text="zz") == Hypothesis(
        **{**{n: getattr(h, n) for n in names}, "text": "zz"}
    )
    assert dataclasses.replace(h, text="zz") != h
    for name in ("text", "tokens", "node_id"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(h, name, getattr(h, name))
    with pytest.raises(TypeError):
        Hypothesis(text="a", unknown=1)


def test_every_transition_builds_through_init(monkeypatch):
    """Each transition calls Hypothesis.__init__ exactly once, so a patched
    __init__ (the benchmark's hypothesis counter) sees every step."""
    calls = []
    init = Hypothesis.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    spec = VariableSpec("Y", max_tokens=4)
    h = built_hypothesis().with_open_variable(spec, MaskState.start(spec))
    state = MaskState("q", 1, None)
    transitions = {
        "with_forced_span": lambda: h.with_forced_span([1], [-0.5], "z"),
        "with_open_variable": lambda: h.with_open_variable(spec, state),
        "with_variable_token": lambda: h.with_variable_token(4, -1.0, state, "q"),
        "with_closing_token": lambda: h.with_closing_token(4, -1.0, state, "q"),
        "as_done": lambda: h.as_done(3),
        "with_node": lambda: h.with_node(3),
    }
    monkeypatch.setattr(Hypothesis, "__init__", counting_init)
    for name, step in transitions.items():
        calls.clear()
        child = step()
        assert calls == [child], name


def two_step_close(
    h: Hypothesis, start: int, raw: float, token, logprob, new_state, piece
) -> Hypothesis:
    """Reference for ``with_closing_token``: ``with_variable_token``, then
    the variable sealed into a span by a second constructor call, given
    where the value opened and the raw sum of its tokens so far."""
    h = h.with_variable_token(token, logprob, new_state, piece)
    span = Span(
        kind="var",
        name=h.open_spec.name,
        text=h.open_state.partial_value,
        start=start,
        end=len(h.tokens),
        raw_logprob=raw + logprob,
    )
    return Hypothesis(
        tokens=h.tokens,
        text=h.text,
        logprobs=h.logprobs,
        spans=h.spans + (span,),
        raw_score=h.raw_score,
        vars_done=h.vars_done + 1,
        open_spec=None,
        open_state=None,
        done=h.done,
        node_id=h.node_id,
    )


# log-probabilities and scores away from the default 0.0, -inf included
negative = st.floats(max_value=0.0, exclude_max=True, allow_nan=False)
text = st.text("abc", max_size=4)
pieces = st.text("abc", min_size=1, max_size=4)
states = st.builds(MaskState, text, st.integers(1, 7), st.none())


@st.composite
def open_hypotheses(draw) -> tuple[Hypothesis, int, float]:
    """An open hypothesis with every field off its default, built through
    the transitions: forced chunks and closed variables in any order, at
    least one of them a variable, then an open variable with zero or more
    tokens.  Returns it with the token index where the open value starts
    and the left-to-right sum of the value's log-probabilities so far, both
    counted while drawing."""
    h = Hypothesis()
    kinds = draw(
        st.lists(st.sampled_from(["det", "var"]), min_size=1, max_size=4).filter(
            lambda kinds: "var" in kinds
        )
    )
    for kind in kinds + ["open"]:
        if kind == "det":
            n = draw(st.integers(1, 3))
            toks = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
            lps = draw(st.lists(negative, min_size=n, max_size=n))
            h = h.with_forced_span(toks, lps, draw(pieces))
            continue
        spec = VariableSpec(draw(st.sampled_from(["X", "Y"])))
        h = h.with_open_variable(spec, MaskState.start(spec))
        start, raw = len(h.tokens), 0.0
        for _ in range(draw(st.integers(0 if kind == "open" else 1, 3))):
            logprob = draw(negative)
            h = h.with_variable_token(
                draw(st.integers(0, 50)), logprob, draw(states), draw(pieces)
            )
            raw += logprob
        if kind == "var":
            h = h.with_closing_token(
                draw(st.integers(0, 50)), draw(negative), draw(states), draw(pieces)
            )
    node_id = draw(st.integers(1, 99))
    if draw(st.booleans()):
        return h.as_done(node_id), start, raw
    return h.with_node(node_id), start, raw


def exact_fields(h: Hypothesis) -> list:
    """Every field of h, floats (inside spans too) as their exact hex."""
    out = []
    for f in dataclasses.fields(h):
        value = getattr(h, f.name)
        if isinstance(value, float):
            value = value.hex()
        elif f.name == "logprobs":
            value = tuple(lp.hex() for lp in value)
        elif f.name == "spans":
            value = tuple((s, s.raw_logprob.hex()) for s in value)
        out.append((f.name, value))
    return out


@given(
    opened=open_hypotheses(),
    token=st.integers(0, 50),
    logprob=negative,
    value=text,
    piece=text,
)
def test_closing_token_equals_two_step_close(opened, token, logprob, value, piece):
    h, start, raw = opened
    new_state = MaskState(value, h.open_state.tokens_emitted + 1, None)
    fused = h.with_closing_token(token, logprob, new_state, piece)
    reference = two_step_close(h, start, raw, token, logprob, new_state, piece)
    assert exact_fields(fused) == exact_fields(reference)
    assert fused == reference


def test_hypothesis_accumulates_tokens_and_score():
    h = built_hypothesis()
    assert h.tokens == (5, 6, 7, 8, 9)
    assert h.raw_score == pytest.approx(-3.875)
    assert h.m_total == 5
    assert h.vars_done == 1
    assert h.rendered() == "abcde"
    assert h.text == "abcde"


def test_hypothesis_spans_and_bindings():
    h = built_hypothesis()
    assert [s.kind for s in h.spans] == ["det", "var", "det"]
    var_span = h.spans[1]
    assert var_span.name == "X"
    assert var_span.text == "cd"
    assert (var_span.start, var_span.end) == (2, 4)
    assert var_span.raw_logprob == pytest.approx(-3.0)
    bindings = h.bindings
    assert len(bindings) == 1
    b = bindings.get("X")
    assert b.value == "cd"
    assert b.token_count == 2
    assert b.raw_logprob == pytest.approx(-3.0)


def test_normalized_score_counts_every_token():
    h = built_hypothesis()
    full = ScoreParams(alpha=1.0, beta=0.0)
    # three forced tokens and two variable tokens
    assert h.normalized_score(full) == pytest.approx(-3.875 / 5)


def test_upper_bound_dominates_reachable_scores():
    params = ScoreParams(alpha=0.7, beta=0.0)
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randint(1, 10)
        horizon = rng.randint(m, 20)
        raw = -rng.random() * 10
        h = Hypothesis(tokens=tuple(range(m)), logprobs=(0.0,) * m, raw_score=raw)
        bound = h.score_upper_bound(params, horizon)
        # any continuation adds tokens up to the horizon and only lowers raw
        for extra in range(horizon - m + 1):
            future = raw - rng.random()
            reachable = normalization_weight(params, m + extra) * min(raw, future)
            assert bound >= reachable - 1e-12
        assert bound >= h.normalized_score(params) - 1e-12


def test_rank_key_orders_by_score_then_length_then_tokens():
    params = ScoreParams(alpha=0.0)
    best = Hypothesis(tokens=(4,), logprobs=(-1.0,), raw_score=-1.0)
    short_low = Hypothesis(tokens=(1,), logprobs=(-2.0,), raw_score=-2.0)
    short_high = Hypothesis(tokens=(3,), logprobs=(-2.0,), raw_score=-2.0)
    long_tied = Hypothesis(tokens=(0, 0), logprobs=(-1.0, -1.0), raw_score=-2.0)
    ranked = rank_hypotheses([long_tied, short_high, short_low, best], params)
    assert ranked[0] is best  # score first
    assert ranked[1] is short_low  # then length, then low token ids
    assert ranked[2] is short_high
    assert ranked[3] is long_tied


def test_span_fields_round_trip():
    s = Span(
        kind="det",
        name=None,
        text="hello",
        start=0,
        end=2,
        raw_logprob=-1.5,
    )
    assert s.end - s.start == 2


def test_span_init_keeps_the_dataclass_behaviour():
    """Span stores its fields through its own __init__, as Hypothesis
    does, and is still a frozen value: equal by fields, hashable, with the
    dataclass repr and positional or keyword construction."""
    names = [f.name for f in dataclasses.fields(Span)]
    assert names == ["kind", "name", "text", "start", "end", "raw_logprob"]
    params = list(inspect.signature(Span.__init__).parameters)[1:]
    assert params == names
    s = Span("var", "X", "ab", 3, 5, -0.25)
    assert s == Span(kind="var", name="X", text="ab", start=3, end=5, raw_logprob=-0.25)
    assert s != Span("var", "X", "ab", 3, 5, -0.5)
    assert hash(s) == hash(dataclasses.replace(s))
    assert len({s, dataclasses.replace(s), dataclasses.replace(s, end=6)}) == 2
    assert repr(s) == (
        "Span(kind='var', name='X', text='ab', start=3, end=5, raw_logprob=-0.25)"
    )
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, getattr(s, name))
    with pytest.raises(TypeError):
        Span("det", None, "a", 0, 1)
