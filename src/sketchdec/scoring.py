"""Hypothesis state and length-normalized scoring.

A hypothesis owns the full token/log-probability history, the text those
tokens render to, and chunk bookkeeping.  Hypotheses are immutable values:
every step that keeps a hypothesis builds a new one, which keeps branching
decoders free of shared mutable state.  The scoring arithmetic
(``normalized_score``, ``rank_key``) is written once, over plain totals, so
that the decoders can rank a candidate child from its parent before
deciding to build it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .constraints import MaskState
from .lm import ordered_sum
from .sketch import Binding, Bindings, VariableSpec

NEG_INF = float("-inf")


@dataclass(frozen=True)
class ScoreParams:
    """Length-normalization settings.

    The weight applied to a raw score over m tokens is
    ``(beta + 1)^alpha / (beta + m)^alpha``: alpha=0 disables
    normalization, beta=0 with alpha=1 averages per token.  When
    ``count_forced_tokens`` is False only variable tokens count toward m
    (a sensitivity knob; forced tokens count by default).
    """

    alpha: float = 0.7
    beta: float = 0.0
    count_forced_tokens: bool = True

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        # written so that NaN fails too
        if not (0.0 <= self.beta < math.inf):
            raise ValueError("beta must be a finite number >= 0")


def normalization_weight(score: ScoreParams, m: int) -> float:
    """Weight w(m) = (beta+1)^alpha / (beta+m)^alpha; w(0) is defined as 1."""
    if m < 0:
        raise ValueError("token count must be >= 0")
    if m == 0:
        return 1.0
    return ((score.beta + 1.0) ** score.alpha) / ((score.beta + m) ** score.alpha)


def effective_m(score: ScoreParams, m_total: int, m_vars: int) -> int:
    """The token count the normalization weight is taken at."""
    return m_total if score.count_forced_tokens else m_vars


def normalized_score(
    score: ScoreParams, raw_score: float, m_total: int, m_vars: int
) -> float:
    """Normalized score of a live hypothesis with these totals."""
    return normalization_weight(score, effective_m(score, m_total, m_vars)) * raw_score


def rank_key(normalized: float, tokens: tuple[int, ...]) -> tuple:
    """Sort key: higher normalized score, then shorter, then low token ids."""
    return (-normalized, len(tokens), tokens)


@dataclass(frozen=True)
class Span:
    """One consumed chunk: its text/value and token extent."""

    chunk_ordinal: int
    kind: str  # "det" | "var"
    name: str | None
    text: str
    start: int
    end: int
    raw_logprob: float


@dataclass(frozen=True, init=False)
class Hypothesis:
    """One decode path.  ``text`` is the backend's rendering of ``tokens``
    (``backend.detokenize(tokens)``), extended by every transition, so a
    backend that keys on the prefix text never joins the whole prefix."""

    tokens: tuple[int, ...] = ()
    text: str = ""
    logprobs: tuple[float, ...] = ()
    spans: tuple[Span, ...] = ()
    raw_score: float = 0.0
    m_vars: int = 0
    vars_done: int = 0
    open_spec: VariableSpec | None = None
    open_state: MaskState | None = None
    open_start: int = 0
    open_raw: float = 0.0
    done: bool = False
    dead: bool = False
    truncated: bool = False
    node_id: int = 0

    # The generated frozen __init__ makes one object.__setattr__ call per
    # field, on every step of every decode; storing into __dict__ is about
    # twice as fast.  Keys go in one by one, in field order: a single
    # dict.update would replace the instance's key-sharing dict with a
    # private one of more than twice the size.
    def __init__(
        self,
        tokens: tuple[int, ...] = (),
        text: str = "",
        logprobs: tuple[float, ...] = (),
        spans: tuple[Span, ...] = (),
        raw_score: float = 0.0,
        m_vars: int = 0,
        vars_done: int = 0,
        open_spec: VariableSpec | None = None,
        open_state: MaskState | None = None,
        open_start: int = 0,
        open_raw: float = 0.0,
        done: bool = False,
        dead: bool = False,
        truncated: bool = False,
        node_id: int = 0,
    ):
        d = self.__dict__
        d["tokens"] = tokens
        d["text"] = text
        d["logprobs"] = logprobs
        d["spans"] = spans
        d["raw_score"] = raw_score
        d["m_vars"] = m_vars
        d["vars_done"] = vars_done
        d["open_spec"] = open_spec
        d["open_state"] = open_state
        d["open_start"] = open_start
        d["open_raw"] = open_raw
        d["done"] = done
        d["dead"] = dead
        d["truncated"] = truncated
        d["node_id"] = node_id

    @property
    def m_total(self) -> int:
        return len(self.tokens)

    def effective_m(self, score: ScoreParams) -> int:
        return effective_m(score, len(self.tokens), self.m_vars)

    def normalized_score(self, score: ScoreParams) -> float:
        if self.dead:
            return NEG_INF
        return normalized_score(score, self.raw_score, len(self.tokens), self.m_vars)

    def score_upper_bound(self, score: ScoreParams, max_m: int) -> float:
        """Best normalized score any continuation could reach.

        Future log-probabilities are at most 0 and the weight shrinks as m
        grows, so for a non-positive raw score the bound is the raw score
        weighted at the largest token count a continuation may reach.
        """
        if self.dead:
            return NEG_INF
        m = max(self.effective_m(score), 1)
        horizon = max(max_m, m)
        if self.raw_score <= 0.0:
            return normalization_weight(score, horizon) * self.raw_score
        return normalization_weight(score, m) * self.raw_score

    @property
    def bindings(self) -> Bindings:
        return Bindings(
            Binding(
                name=s.name,
                value=s.text,
                raw_logprob=s.raw_logprob,
                token_count=s.end - s.start,
            )
            for s in self.spans
            if s.kind == "var"
        )

    def rank_key(self, score: ScoreParams):
        return rank_key(self.normalized_score(score), self.tokens)

    # --- state transitions -------------------------------------------------
    # Direct constructor calls: dataclasses.replace scans the field list and
    # builds a keyword dict on every step, which dominated short decodes.

    def with_forced_span(
        self,
        tokens: Sequence[int],
        logprobs: Sequence[float],
        text: str,
    ) -> "Hypothesis":
        """Append a forced chunk: its tokens, their log-probabilities, and
        its text, which must be the backend's rendering of the tokens."""
        start = len(self.tokens)
        raw = ordered_sum(logprobs)
        span = Span(
            chunk_ordinal=len(self.spans),
            kind="det",
            name=None,
            text=text,
            start=start,
            end=start + len(tokens),
            raw_logprob=raw,
        )
        return Hypothesis(
            tokens=self.tokens + tuple(tokens),
            text=self.text + text,
            logprobs=self.logprobs + tuple(logprobs),
            spans=self.spans + (span,),
            raw_score=self.raw_score + raw,
            m_vars=self.m_vars,
            vars_done=self.vars_done,
            open_spec=self.open_spec,
            open_state=self.open_state,
            open_start=self.open_start,
            open_raw=self.open_raw,
            done=self.done,
            dead=self.dead,
            truncated=self.truncated,
            node_id=self.node_id,
        )

    def with_open_variable(self, spec: VariableSpec) -> "Hypothesis":
        return Hypothesis(
            tokens=self.tokens,
            text=self.text,
            logprobs=self.logprobs,
            spans=self.spans,
            raw_score=self.raw_score,
            m_vars=self.m_vars,
            vars_done=self.vars_done,
            open_spec=spec,
            open_state=MaskState.start(spec),
            open_start=len(self.tokens),
            open_raw=0.0,
            done=self.done,
            dead=self.dead,
            truncated=self.truncated,
            node_id=self.node_id,
        )

    def with_variable_token(
        self,
        token: int,
        logprob: float,
        new_state: MaskState,
        piece: str,
        node_id: int | None = None,
    ) -> "Hypothesis":
        """Append one token of the open variable; ``piece`` is the
        backend's rendering of the token, ``detokenize((token,))``."""
        return Hypothesis(
            tokens=self.tokens + (token,),
            text=self.text + piece,
            logprobs=self.logprobs + (logprob,),
            spans=self.spans,
            raw_score=self.raw_score + logprob,
            m_vars=self.m_vars + 1,
            vars_done=self.vars_done,
            open_spec=self.open_spec,
            open_state=new_state,
            open_start=self.open_start,
            open_raw=self.open_raw + logprob,
            done=self.done,
            dead=self.dead,
            truncated=self.truncated,
            node_id=self.node_id if node_id is None else node_id,
        )

    def with_closing_token(
        self,
        token: int,
        logprob: float,
        new_state: MaskState,
        piece: str,
        node_id: int | None = None,
    ) -> "Hypothesis":
        """Append the token that closes the open variable and seal the
        variable into a span, in one step; ``piece`` as in
        ``with_variable_token``."""
        span = Span(
            chunk_ordinal=len(self.spans),
            kind="var",
            name=self.open_spec.name,
            text=new_state.partial_value,
            start=self.open_start,
            end=len(self.tokens) + 1,
            raw_logprob=self.open_raw + logprob,
        )
        return Hypothesis(
            tokens=self.tokens + (token,),
            text=self.text + piece,
            logprobs=self.logprobs + (logprob,),
            spans=self.spans + (span,),
            raw_score=self.raw_score + logprob,
            m_vars=self.m_vars + 1,
            vars_done=self.vars_done + 1,
            open_spec=None,
            open_state=None,
            open_start=self.open_start,
            open_raw=0.0,
            done=self.done,
            dead=self.dead,
            truncated=self.truncated,
            node_id=self.node_id if node_id is None else node_id,
        )

    def as_done(self) -> "Hypothesis":
        return self._with_flags(True, self.dead, self.truncated, self.node_id)

    def as_dead(self, truncated: bool = False) -> "Hypothesis":
        return self._with_flags(self.done, True, truncated, self.node_id)

    def with_node(self, node_id: int) -> "Hypothesis":
        return self._with_flags(self.done, self.dead, self.truncated, node_id)

    def _with_flags(
        self, done: bool, dead: bool, truncated: bool, node_id: int
    ) -> "Hypothesis":
        return Hypothesis(
            tokens=self.tokens,
            text=self.text,
            logprobs=self.logprobs,
            spans=self.spans,
            raw_score=self.raw_score,
            m_vars=self.m_vars,
            vars_done=self.vars_done,
            open_spec=self.open_spec,
            open_state=self.open_state,
            open_start=self.open_start,
            open_raw=self.open_raw,
            done=done,
            dead=dead,
            truncated=truncated,
            node_id=node_id,
        )

    def rendered(self) -> str:
        """The decoded template text: span values in order."""
        return "".join(s.text for s in self.spans)


def rank_hypotheses(
    hyps: Sequence[Hypothesis], score: ScoreParams
) -> list[Hypothesis]:
    return sorted(hyps, key=lambda h: h.rank_key(score))
