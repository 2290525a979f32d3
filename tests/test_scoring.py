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
    h = h.with_open_variable(spec)
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
        .with_open_variable(spec)
        .with_variable_token(3, -0.5, state, "q"),
        done=True,
        dead=True,
        truncated=True,
        node_id=11,
    )
    replace = dataclasses.replace
    span = Span(len(h.spans), "det", None, "zz", 6, 8, -0.75)
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
        spans=h.spans + (Span(len(h.spans), "det", None, "z", 6, 7, -0.5),),
        raw_score=h.raw_score - 0.5,
    )
    assert h.with_open_variable(spec) == replace(
        h, open_spec=spec, open_state=MaskState.start(spec), open_start=6, open_raw=0.0
    )
    assert h.with_variable_token(4, -1.0, state, "r") == replace(
        h,
        tokens=h.tokens + (4,),
        text=h.text + "r",
        logprobs=h.logprobs + (-1.0,),
        raw_score=h.raw_score - 1.0,
        m_vars=h.m_vars + 1,
        open_state=state,
        open_raw=h.open_raw - 1.0,
    )
    assert h.with_variable_token(4, -1.0, state, "r", node_id=2).node_id == 2
    closed = Span(len(h.spans), "var", "Y", "qr", 5, 7, -1.5)
    assert h.with_closing_token(4, -1.0, MaskState("qr", 2, None), "r") == replace(
        h,
        tokens=h.tokens + (4,),
        text=h.text + "r",
        logprobs=h.logprobs + (-1.0,),
        spans=h.spans + (closed,),
        raw_score=h.raw_score - 1.0,
        m_vars=h.m_vars + 1,
        vars_done=h.vars_done + 1,
        open_spec=None,
        open_state=None,
        open_raw=0.0,
    )
    fresh = Hypothesis()
    assert fresh.as_done() == replace(fresh, done=True)
    assert fresh.as_dead() == replace(fresh, dead=True)
    assert h.as_dead() == replace(h, truncated=False)
    assert fresh.as_dead(truncated=True) == replace(fresh, dead=True, truncated=True)
    assert h.with_node(7) == replace(h, node_id=7)


def test_hypothesis_is_a_frozen_dataclass():
    """The hand-written __init__ keeps the dataclass contract: one
    parameter per field, in field order with the field's default, and
    assignment still refused."""
    h = built_hypothesis()
    names = [f.name for f in dataclasses.fields(Hypothesis)]
    assert "text" in names
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

    h = built_hypothesis().with_open_variable(VariableSpec("Y", max_tokens=4))
    state = MaskState("q", 1, None)
    transitions = {
        "with_forced_span": lambda: h.with_forced_span([1], [-0.5], "z"),
        "with_open_variable": lambda: h.with_open_variable(VariableSpec("Z")),
        "with_variable_token": lambda: h.with_variable_token(4, -1.0, state, "q"),
        "with_closing_token": lambda: h.with_closing_token(4, -1.0, state, "q"),
        "as_done": h.as_done,
        "as_dead": h.as_dead,
        "with_node": lambda: h.with_node(3),
    }
    monkeypatch.setattr(Hypothesis, "__init__", counting_init)
    for name, step in transitions.items():
        calls.clear()
        child = step()
        assert calls == [child], name


def two_step_close(h: Hypothesis, token, logprob, new_state, piece) -> Hypothesis:
    """Reference for ``with_closing_token``: ``with_variable_token``, then
    the variable sealed into a span by a second constructor call."""
    h = h.with_variable_token(token, logprob, new_state, piece)
    span = Span(
        chunk_ordinal=len(h.spans),
        kind="var",
        name=h.open_spec.name,
        text=h.open_state.partial_value,
        start=h.open_start,
        end=len(h.tokens),
        raw_logprob=h.open_raw,
    )
    return Hypothesis(
        tokens=h.tokens,
        text=h.text,
        logprobs=h.logprobs,
        spans=h.spans + (span,),
        raw_score=h.raw_score,
        m_vars=h.m_vars,
        vars_done=h.vars_done + 1,
        open_spec=None,
        open_state=None,
        open_start=h.open_start,
        open_raw=0.0,
        done=h.done,
        dead=h.dead,
        truncated=h.truncated,
        node_id=h.node_id,
    )


# log-probabilities and scores away from the default 0.0, -inf included
negative = st.floats(max_value=0.0, exclude_max=True, allow_nan=False)
text = st.text("abc", max_size=4)
spans = st.builds(
    Span,
    chunk_ordinal=st.integers(0, 9),
    kind=st.sampled_from(["det", "var"]),
    name=st.none() | text,
    text=text,
    start=st.integers(0, 9),
    end=st.integers(0, 9),
    raw_logprob=negative,
)


@st.composite
def open_hypotheses(draw) -> Hypothesis:
    """An open hypothesis with every field off its default."""
    n = draw(st.integers(1, 6))
    spec = VariableSpec(draw(st.sampled_from(["X", "Y"])), max_tokens=8)
    return Hypothesis(
        tokens=tuple(draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))),
        text=draw(st.text("abc", min_size=1, max_size=8)),
        logprobs=tuple(draw(st.lists(negative, min_size=n, max_size=n))),
        spans=tuple(draw(st.lists(spans, min_size=1, max_size=3))),
        raw_score=draw(negative),
        m_vars=draw(st.integers(1, n)),
        vars_done=draw(st.integers(1, 4)),
        open_spec=spec,
        open_state=MaskState(draw(text), draw(st.integers(1, 7)), None),
        open_start=draw(st.integers(1, n)),
        open_raw=draw(negative),
        done=draw(st.booleans()),
        dead=draw(st.booleans()),
        truncated=draw(st.booleans()),
        node_id=draw(st.integers(1, 99)),
    )


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
    h=open_hypotheses(),
    token=st.integers(0, 50),
    logprob=negative,
    value=text,
    piece=text,
)
def test_closing_token_equals_two_step_close(h, token, logprob, value, piece):
    new_state = MaskState(value, h.open_state.tokens_emitted + 1, None)
    fused = h.with_closing_token(token, logprob, new_state, piece)
    reference = two_step_close(h, token, logprob, new_state, piece)
    assert exact_fields(fused) == exact_fields(reference)
    assert fused == reference


def test_hypothesis_accumulates_tokens_and_score():
    h = built_hypothesis()
    assert h.tokens == (5, 6, 7, 8, 9)
    assert h.raw_score == pytest.approx(-3.875)
    assert h.m_total == 5
    assert h.m_vars == 2
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


def test_normalized_score_and_effective_m():
    h = built_hypothesis()
    full = ScoreParams(alpha=1.0, beta=0.0)
    assert h.normalized_score(full) == pytest.approx(-3.875 / 5)
    vars_only = ScoreParams(alpha=1.0, beta=0.0, count_forced_tokens=False)
    assert h.normalized_score(vars_only) == pytest.approx(-3.875 / 2)
    assert h.as_dead().normalized_score(full) == float("-inf")


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


@given(
    raws=st.lists(st.floats(-50, -0.01), min_size=2, max_size=6),
    alpha=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 5.0),
)
def test_dead_hypotheses_rank_last(raws, alpha, beta):
    params = ScoreParams(alpha=alpha, beta=beta)
    live = [
        Hypothesis(tokens=(i,), logprobs=(r,), raw_score=r)
        for i, r in enumerate(raws)
    ]
    dead = live[0].as_dead()
    ranked = rank_hypotheses(live + [dead], params)
    assert ranked[-1].dead


def test_span_fields_round_trip():
    s = Span(
        chunk_ordinal=0,
        kind="det",
        name=None,
        text="hello",
        start=0,
        end=2,
        raw_logprob=-1.5,
    )
    assert s.end - s.start == 2
