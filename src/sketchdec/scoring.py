"""Hypothesis state and length-normalized scoring.

A hypothesis owns the full token/log-probability history, the text those
tokens render to, and chunk bookkeeping.  Hypotheses are immutable values:
every step that keeps a hypothesis builds a new one, which keeps branching
decoders free of shared mutable state.  ``normalization_weight`` and
``rank_key`` take plain numbers, so that the decoders can rank a candidate
child from its parent's weight before deciding to build it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .constraints import MaskState
from .lm import ordered_sum
from .sketch import Binding, Bindings, VariableSpec


@dataclass(frozen=True)
class ScoreParams:
    """Length-normalization settings.

    The weight applied to a raw score over m tokens is
    ``(beta + 1)^alpha / (beta + m)^alpha``: alpha=0 disables
    normalization, beta=0 with alpha=1 averages per token.  m counts every
    token of the hypothesis, forced and variable alike, so the whole
    template's likelihood is ranked.
    """

    alpha: float = 0.7
    beta: float = 0.0

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


def rank_key(normalized: float, tokens: tuple[int, ...]) -> tuple:
    """Sort key: higher normalized score, then shorter, then low token ids."""
    return (-normalized, len(tokens), tokens)


@dataclass(frozen=True, init=False)
class Span:
    """One consumed chunk: its text/value and token extent."""

    kind: str  # "det" | "var"
    name: str | None
    text: str
    start: int
    end: int
    raw_logprob: float

    # stored into __dict__ key by key, in field order, as Hypothesis is
    def __init__(self, kind, name, text, start, end, raw_logprob):
        d = self.__dict__
        d["kind"], d["name"], d["text"] = kind, name, text
        d["start"], d["end"], d["raw_logprob"] = start, end, raw_logprob


@dataclass(frozen=True, init=False)
class Hypothesis:
    """One decode path.  ``text`` is the backend's rendering of ``tokens``
    (``backend.detokenize(tokens)``), extended by every transition, so a
    backend that keys on the prefix text never joins the whole prefix.

    The transitions keep the spans tiling the tokens: each span starts
    where the one before it ends, the first at 0, and every token outside
    them belongs to the open variable.  What follows from that is derived,
    not stored: a span's chunk ordinal is its index in ``spans``, the open
    variable starts at the last span's end, and its raw log-probability is
    the sum of the log-probabilities from there.  The normalization weight
    is taken at ``len(tokens)``.

    Every hypothesis is live: one that dies when the engine settles it is
    not a hypothesis but ``None``."""

    tokens: tuple[int, ...] = ()
    text: str = ""
    logprobs: tuple[float, ...] = ()
    spans: tuple[Span, ...] = ()
    raw_score: float = 0.0
    vars_done: int = 0
    open_spec: VariableSpec | None = None
    open_state: MaskState | None = None
    done: bool = False
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
        vars_done: int = 0,
        open_spec: VariableSpec | None = None,
        open_state: MaskState | None = None,
        done: bool = False,
        node_id: int = 0,
    ):
        d = self.__dict__
        d["tokens"] = tokens
        d["text"] = text
        d["logprobs"] = logprobs
        d["spans"] = spans
        d["raw_score"] = raw_score
        d["vars_done"] = vars_done
        d["open_spec"] = open_spec
        d["open_state"] = open_state
        d["done"] = done
        d["node_id"] = node_id

    @property
    def m_total(self) -> int:
        return len(self.tokens)

    def normalized_score(self, score: ScoreParams) -> float:
        return normalization_weight(score, len(self.tokens)) * self.raw_score

    def score_upper_bound(self, score: ScoreParams, max_m: int) -> float:
        """Best normalized score any continuation could reach.

        Future log-probabilities are at most 0 and the weight shrinks as m
        grows, so for a non-positive raw score the bound is the raw score
        weighted at the largest token count a continuation may reach.
        """
        m = max(len(self.tokens), 1)
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
    # The per-token steps, with_forced_span and with_open_variable call the
    # constructor directly: building a keyword dict, as dataclasses.replace
    # and ``_but`` do, dominated short decodes.  The once-per-hypothesis
    # steps that end a decode or name a trace node use ``_but``.

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
            vars_done=self.vars_done,
            open_spec=self.open_spec,
            open_state=self.open_state,
            done=self.done,
            node_id=self.node_id,
        )

    def with_open_variable(
        self, spec: VariableSpec, state: MaskState
    ) -> "Hypothesis":
        """Open spec's variable in ``state``, its ``MaskState.start``."""
        return Hypothesis(
            tokens=self.tokens,
            text=self.text,
            logprobs=self.logprobs,
            spans=self.spans,
            raw_score=self.raw_score,
            vars_done=self.vars_done,
            open_spec=spec,
            open_state=state,
            done=self.done,
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
            vars_done=self.vars_done,
            open_spec=self.open_spec,
            open_state=new_state,
            done=self.done,
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
        start = self.spans[-1].end if self.spans else 0
        span = Span(
            kind="var",
            name=self.open_spec.name,
            text=new_state.partial_value,
            start=start,
            end=len(self.tokens) + 1,
            raw_logprob=ordered_sum(self.logprobs[start:]) + logprob,
        )
        return Hypothesis(
            tokens=self.tokens + (token,),
            text=self.text + piece,
            logprobs=self.logprobs + (logprob,),
            spans=self.spans + (span,),
            raw_score=self.raw_score + logprob,
            vars_done=self.vars_done + 1,
            open_spec=None,
            open_state=None,
            done=self.done,
            node_id=self.node_id if node_id is None else node_id,
        )

    def as_done(self, node_id: int) -> "Hypothesis":
        """This hypothesis, finished, under trace node ``node_id``."""
        return self._but(done=True, node_id=node_id)

    def with_node(self, node_id: int) -> "Hypothesis":
        return self._but(node_id=node_id)

    def _but(self, **changes) -> "Hypothesis":
        """This hypothesis with the given fields changed."""
        return Hypothesis(**{**self.__dict__, **changes})

    def rendered(self) -> str:
        """The decoded template text: span values in order."""
        return "".join(s.text for s in self.spans)


def rank_hypotheses(
    hyps: Sequence[Hypothesis], score: ScoreParams
) -> list[Hypothesis]:
    return sorted(hyps, key=lambda h: h.rank_key(score))
