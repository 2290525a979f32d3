"""Sketch-aware decoding strategies over a shared hypothesis engine.

Four strategies fill a sketch's variables.  They differ in the expansion
unit (one token or a whole variable value) and in what a selection keeps,
and they run on two loops:

* ``beam``    -- ``_decode_beam``: a token-level beam inside each variable
  that commits the best finished value before the next variable opens; the
  other finished values of the last variable are the alternatives.
* ``argmax``  -- the same loop at width 1: greedy, the single best allowed
  token at every step.
* ``var``     -- ``_decode_search`` over whole variable values: every
  surviving hypothesis proposes values (branch, sampled or exhaustive),
  and the top n are kept once per variable.
* ``beamvar`` -- ``_decode_search`` over tokens, across the whole template:
  the beam width is re-divided every step among pools of hypotheses
  grouped by the variable they are currently decoding.

Every selection goes through one pooled rule (``_Engine.select``).  In
``beam`` and ``var`` all candidates of a step are on the same variable, so
their single pool's top n is the global top n.

A candidate (``_Cand``) is a parent hypothesis plus one appended token and
what the step made of it.  Its rank key, normalized score, pool and
``dead`` are computed from the parent, and its ``Hypothesis`` is built only
when selection keeps it or a proposal extends it; most candidates of a wide
search are pruned unbuilt.  A proposal walk passes the candidate it extends
to the next step, so the step's one candidate also carries the trace edge
from the walk's start; a member fallback is the candidate of the member's
last token.  Selection ranks each candidate once, and the recorded node
takes its score from that key.

Within one decode, OneOf steps share one index (``_Engine._entry``), the
lazy form of a state-to-token index: per (members, partial value), each
token's ``one_of_move``, found on first test, and the full token mask,
built on first need.  A read of the n best allowed tokens walks the
distribution best-first against the entry and stops at n, so only reads
of every allowed token build masks; a OneOf child takes its move from the
entry.  The index lives and dies with the decode, and so needs no bound.

Every hypothesis carries the text its tokens render to, and the engine
hands it to the backend (``text=h.text``), so a backend keyed by prefix
text does not join the prefix again on every call.  A forced chunk appends
its own text; a variable token appends ``backend.detokenize((token,))``,
kept per decode (``_Engine._pieces``).

Deterministic chunks are forced but still likelihood-scored, so a
hypothesis whose committed values make later fixed text improbable pays
for it, which is what lets the searching decoders anticipate the rest of
the template.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from .constraints import MAX_TOKENS, MaskState, advance, compute_mask
from .constraints import one_of_move, one_of_step
from .errors import DeadEnd, TemplateUnsatisfiable
from .lm import LMBackend, ordered_sum
from .scoring import (
    NEG_INF,
    Hypothesis,
    ScoreParams,
    normalized_score,
    rank_hypotheses,
    rank_key,
)
from .sketch import Bindings, StaticSketchSource, as_source, next_pending_chunks
from .trace import NullRecorder, TraceRecorder

ARGMAX = "argmax"
BEAM = "beam"
VAR = "var"
BEAMVAR = "beamvar"

PROPOSAL_BRANCH = "branch"
PROPOSAL_SAMPLE = "sample"
PROPOSAL_EXHAUSTIVE = "exhaustive"

DEFAULT_DYNAMIC_CAP = 4096


@dataclass(frozen=True)
class DecoderConfig:
    kind: str = BEAMVAR
    width: int = 2
    score: ScoreParams = field(default_factory=ScoreParams)
    proposal: str = PROPOSAL_BRANCH
    seed: int = 0
    temperature: float = 1.0
    global_max_tokens: int | None = None
    record_tree: bool = False

    def __post_init__(self):
        if self.kind not in (ARGMAX, BEAM, VAR, BEAMVAR):
            raise ValueError(f"unknown decoder kind {self.kind!r}")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.kind == ARGMAX and self.width != 1:
            raise ValueError("argmax admits only width 1")
        if self.proposal not in (
            PROPOSAL_BRANCH,
            PROPOSAL_SAMPLE,
            PROPOSAL_EXHAUSTIVE,
        ):
            raise ValueError(f"unknown proposal policy {self.proposal!r}")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if self.global_max_tokens is not None and self.global_max_tokens < 1:
            raise ValueError("global_max_tokens must be >= 1")


@dataclass
class Pool:
    """Hypotheses grouped by the variable they are currently decoding."""

    variable_index: int
    members: list


@dataclass(frozen=True)
class DecodeResult:
    best: Hypothesis
    alternatives: tuple[Hypothesis, ...]
    tree: object | None = None
    truncated_count: int = 0

    @property
    def bindings(self) -> Bindings:
        return self.best.bindings

    @property
    def text(self) -> str:
        return self.best.rendered()


# --- capacity --------------------------------------------------------------


def default_token_cap(source, backend: LMBackend) -> int:
    """Upper bound on hypothesis length.

    For static sketches this is the exact sum of deterministic chunk token
    lengths plus every variable's max_tokens; dynamic sources fall back to
    a fixed safety cap.
    """
    if isinstance(source, StaticSketchSource):
        total = 0
        for c in source.sketch.chunks:
            if c.is_det:
                total += len(backend.tokenize(c.text))
            else:
                total += c.var.max_tokens
        return total
    return DEFAULT_DYNAMIC_CAP


# --- shared primitives ------------------------------------------------------


def _should_halt(
    active: Sequence[Hypothesis],
    done: Sequence[Hypothesis],
    score: ScoreParams,
    horizon: int,
) -> bool:
    """Early stop: no active hypothesis can still beat the best done score."""
    if not active:
        return True
    if not done:
        return False
    best_done = max(h.normalized_score(score) for h in done)
    best_bound = max(h.score_upper_bound(score, horizon) for h in active)
    return best_bound < best_done


class _Engine:
    """Plumbing shared by every decoder: settling, expansion, selection,
    tracing."""

    def __init__(self, source, backend: LMBackend, config: DecoderConfig):
        self.source = source
        self.backend = backend
        self.config = config
        self.score = config.score
        self.recorder = TraceRecorder() if config.record_tree else NullRecorder()
        self.cap = (
            config.global_max_tokens
            if config.global_max_tokens is not None
            else default_token_cap(source, backend)
        )
        self.truncated = 0
        self._pieces = _Pieces(backend.detokenize)
        # (id of the OneOf members, partial value) -> index entry, which
        # holds the members and so keeps their id from being reused
        self._index: dict[tuple[int, str], _OneOfEntry] = {}

    # -- settle: force pending deterministic runs, open the next variable --

    def settle(self, h: Hypothesis) -> Hypothesis:
        if h.done or h.dead or h.open_spec is not None:
            return h
        run = next_pending_chunks(self.source, h.bindings)
        if not run:
            return self._mark_done(h)
        det_chunks = [c for c in run if c.is_det]
        var_chunk = run[-1] if run[-1].is_var else None
        if det_chunks:
            texts = []
            total_lp = 0.0
            parent = h.node_id
            for c in det_chunks:
                toks = self.backend.tokenize(c.text)
                lps = self.backend.score_forced(h.tokens, toks, text=h.text)
                h = h.with_forced_span(toks, lps, c.text)
                texts.append(c.text)
                total_lp += h.spans[-1].raw_logprob
            nid = self.recorder.add(
                parent,
                "".join(texts),
                total_lp,
                h.normalized_score(self.score),
                h.vars_done,
                "forced",
            )
            h = h.with_node(nid)
            if h.m_total > self.cap:
                self.truncated += 1
                return h.as_dead(truncated=True)
        if var_chunk is not None:
            return h.with_open_variable(var_chunk.var)
        return self._mark_done(h)

    def _mark_done(self, h: Hypothesis) -> Hypothesis:
        h = h.as_done()
        nid = self.recorder.add(
            h.node_id,
            "",
            0.0,
            h.normalized_score(self.score),
            max(h.vars_done - 1, 0),
            "done",
        )
        return h.with_node(nid)

    # -- variable expansion --------------------------------------------------

    def allowed_continuations(
        self, h: Hypothesis, n: int | None = None
    ) -> list[tuple[int, float]] | None:
        """Allowed (token, logprob) pairs, best-first: the n best, or all.

        An unconstrained variable allows every token.  Under OneOf, a
        complete distribution is walked best-first against the decode's
        index until n tokens pass, or else read through the token mask.  A
        truncated one gives the tokens that pass, and if none does, None:
        the caller must fall back to scoring whole member completions.
        May raise DeadEnd when no vocabulary token can extend the value.
        """
        state = h.open_state
        dist = self.backend.next_distribution(h.tokens, text=h.text)
        if state.index is None:
            # every token is allowed, as the unconstrained mask says
            return list(dist.entries if n is None else dist.top(n))
        entry = self._entry(state)
        if not dist.complete:
            return [p for p in dist.entries if entry.accepts(p[0])] or None
        pairs = None if n is None else dist.first(n, entry.accepts)
        # None: all are wanted, or the walk cannot tell them without the
        # mask; empty: it saw every token, and the mask raises DeadEnd
        return list(pairs or dist.allowed(entry.mask()))

    def _entry(self, state: MaskState) -> "_OneOfEntry":
        """The index entry of a constrained state, made on first use."""
        key = (id(state.index.members), state.partial_value)
        entry = self._index.get(key)
        if entry is None:
            entry = self._index[key] = _OneOfEntry(state, self.backend.vocab)
        return entry

    def apply_token(
        self, h: Hypothesis, token: int, logprob: float, via: "_Cand | None" = None
    ) -> "_Cand":
        """The child of h by one variable token, closing or killing the
        chunk as ruled; its Hypothesis is built on first use.  Its trace
        edge starts at the token, or continues via's, the candidate that h
        was built from."""
        spec, state = h.open_spec, h.open_state
        move = None if state.index is None else self._entry(state)[token]
        if move is None:
            # a free variable, or an illegal token, which advance rejects
            new_state, verdict = advance(
                state, token, self.backend.vocab, spec.stop_phrases, spec.max_tokens
            )
        else:
            new_state, verdict = one_of_step(state, move, spec.max_tokens)
        if verdict.closes_chunk:
            # running out of tokens inside a OneOf value kills it
            dead = verdict.status == MAX_TOKENS and new_state.constrained
            closed, truncated = not dead, False
        else:
            closed = False
            # over the global cap with the template still open
            dead = truncated = len(h.tokens) >= self.cap
            if truncated:
                self.truncated += 1
        if via is None:
            start, edge_logprob = len(h.tokens), logprob
        else:
            start, edge_logprob = via.start, via.edge_logprob + logprob
        return _Cand(
            h,
            token,
            self._pieces[token],
            logprob,
            new_state,
            closed,
            dead,
            truncated,
            start,
            edge_logprob,
        )

    def fallback_completions(self, h: Hypothesis) -> list["_Cand"]:
        """Score whole member completions when the truncated distribution
        has no allowed token (one forced-scoring call per member).

        Each option is the candidate of its member's last token, with a
        trace edge spanning the whole suffix."""
        state, spec = h.open_state, h.open_spec
        out: list[_Cand] = []
        for member in state.index.members:
            if member == state.partial_value or not member.startswith(
                state.partial_value
            ):
                continue
            suffix = member[len(state.partial_value) :]
            toks = self.backend.tokenize(suffix)
            if not toks or state.tokens_emitted + len(toks) > spec.max_tokens:
                continue
            lps = self.backend.score_forced(h.tokens, toks, text=h.text)
            cand = self.apply_token(h, toks[0], lps[0])
            for t, lp in zip(toks[1:], lps[1:]):
                if cand.dead or cand.closed:
                    break
                cand = self.apply_token(cand.hyp, t, lp, cand)
            if cand.dead:
                continue
            cand.edge_logprob = ordered_sum(lps)
            out.append(cand)
        out.sort(key=lambda c: c.rank_key(self.score))
        if not out:
            raise DeadEnd(
                f"no member completion fits within the token budget of "
                f"variable {spec.name!r}"
            )
        return out

    def expand_top(
        self, h: Hypothesis, n: int | None, via: "_Cand | None" = None
    ) -> list["_Cand"]:
        """Children of h by its n best allowed continuations (all of them
        for n None), their trace edges continuing via's.

        Returns [] when the hypothesis is at a dead end.
        """
        try:
            pairs = self.allowed_continuations(h, n)
        except DeadEnd:
            return []
        if pairs is None:
            try:
                return [o.after(via) for o in self.fallback_completions(h)[:n]]
            except DeadEnd:
                return []
        return [self.apply_token(h, t, lp, via) for t, lp in pairs[:n]]

    # -- selection -------------------------------------------------------

    def select(self, cands: Sequence["_Cand"], width: int) -> list[Hypothesis]:
        """The best live candidates of each variable pool, the width split
        among the pools by ``allocate_pools``."""
        if not cands:
            return []
        by_pool: dict[int, list[_Cand]] = {}
        for c in cands:
            by_pool.setdefault(c.pool_key(), []).append(c)
        pools = [Pool(variable_index=k, members=by_pool[k]) for k in sorted(by_pool)]
        kept: list[Hypothesis] = []
        for pool, w in zip(pools, allocate_pools(pools, width)):
            ranked = sorted(
                ((c.rank_key(self.score), c) for c in pool.members), key=itemgetter(0)
            )
            alive = [i for i, (_, c) in enumerate(ranked) if not c.dead]
            kept.extend(self.record_selection(ranked, set(alive[:w])))
        return kept

    def record_selection(
        self, ranked: Sequence[tuple[tuple, "_Cand"]], kept: set[int]
    ) -> list[Hypothesis]:
        """Emit trace nodes in rank order, each scored from its rank key;
        survivors are built, with their new node id."""
        survivors = []
        token_text = self.backend.vocab.token_text
        for rank, (key, c) in enumerate(ranked):
            nid = 0
            if self.config.record_tree:
                nid = self.recorder.add(
                    c.parent.node_id,
                    "".join(map(token_text, c.tokens[c.start :])),
                    c.edge_logprob,
                    -key[0],
                    c.pool_key(),
                    "expanded" if rank in kept else "pruned",
                )
            if rank in kept:
                survivors.append(c.built(nid))
        return survivors


class _Pieces(dict):
    """token -> the backend's rendering of that token alone, filled on first
    lookup: what a variable token appends to a hypothesis's text."""

    __slots__ = ("detokenize",)

    def __init__(self, detokenize):
        self.detokenize = detokenize

    def __missing__(self, token: int) -> str:
        piece = self[token] = self.detokenize((token,))
        return piece


class _OneOfEntry(dict):
    """One state of the decode's OneOf index: token -> ``one_of_move``
    (None when illegal), filled on first lookup, and the state's token mask
    once a read needs every allowed token (or a dead end's message)."""

    __slots__ = ("state", "vocab", "_mask")

    def __init__(self, state: MaskState, vocab):
        self.state, self.vocab, self._mask = state, vocab, None

    def __missing__(self, token: int) -> tuple[str, bool, bool] | None:
        move = self[token] = one_of_move(self.state, token, self.vocab)
        return move

    def accepts(self, token: int) -> bool:
        return self[token] is not None

    def mask(self) -> frozenset[int]:
        """``compute_mask`` of the state, once; a dead end raises again."""
        if self._mask is None:
            try:
                self._mask = compute_mask(self.state, self.vocab)
            except DeadEnd as e:
                self._mask = str(e)
        if isinstance(self._mask, str):
            raise DeadEnd(self._mask)
        return self._mask


class _Cand:
    """One expansion: a parent hypothesis plus one appended token.

    It holds the ``parent``, the ``token`` with its rendering ``piece`` and
    its ``logprob``, and the ``state`` and outcome of the step (``closed``:
    the variable is sealed; ``dead``, ``truncated``).  Rank key, normalized
    score and pool are read from those, and the Hypothesis is built only on
    demand: ``hyp`` when a proposal extends it, ``built`` when selection
    keeps it.

    The trace edge that reached it runs from token index ``start`` through
    this token, under the parent's trace node (a hypothesis built during a
    proposal keeps the node of the one it extends), with log-probability
    ``edge_logprob``.  It spans every token a proposal appended since the
    selection before it.
    """

    __slots__ = (
        "parent",
        "token",
        "piece",
        "logprob",
        "state",
        "closed",
        "dead",
        "truncated",
        "start",
        "edge_logprob",
        "_hyp",
    )

    def __init__(
        self,
        parent: Hypothesis,
        token: int,
        piece: str,
        logprob: float,
        state: MaskState,
        closed: bool,
        dead: bool,
        truncated: bool,
        start: int,
        edge_logprob: float,
    ):
        self.parent = parent
        self.token = token
        self.piece = piece
        self.logprob = logprob
        self.state = state
        self.closed = closed
        self.dead = dead
        self.truncated = truncated
        self.start = start
        self.edge_logprob = edge_logprob
        self._hyp = None

    @property
    def hyp(self) -> Hypothesis:
        """The child hypothesis, built once and kept."""
        if self._hyp is None:
            self._hyp = self._build(None)
        return self._hyp

    def built(self, node_id: int) -> Hypothesis:
        """The child hypothesis under trace node ``node_id``."""
        if self._hyp is not None:
            return self._hyp.with_node(node_id)
        return self._build(node_id)

    def _build(self, node_id: int | None) -> Hypothesis:
        p = self.parent
        args = (self.token, self.logprob, self.state, self.piece, node_id)
        if self.closed:
            return p.with_closing_token(*args)
        h = p.with_variable_token(*args)
        return h.as_dead(self.truncated) if self.dead else h

    @property
    def tokens(self) -> tuple[int, ...]:
        return self.parent.tokens + (self.token,)

    def normalized_score(self, score: ScoreParams) -> float:
        if self.dead:
            return NEG_INF
        p = self.parent
        return normalized_score(
            score, p.raw_score + self.logprob, len(p.tokens) + 1, p.m_vars + 1
        )

    def rank_key(self, score: ScoreParams) -> tuple:
        return rank_key(self.normalized_score(score), self.tokens)

    def pool_key(self) -> int:
        # the parent is open on variable vars_done; its child stays in that
        # pool whether the token closes the variable or not
        return self.parent.vars_done

    def after(self, via: "_Cand | None") -> "_Cand":
        """This member-fallback option, its trace edge continuing via's."""
        if via is not None:
            self.start = via.start
            self.edge_logprob = via.edge_logprob + self.edge_logprob
        return self

    def killed(self) -> "_Cand":
        """This candidate at a dead end."""
        self.dead, self._hyp = True, None
        return self


def allocate_pools(pools: Sequence[Pool], n: int) -> list[int]:
    """Split beam width n across pools.

    Every pool gets floor(n / #pools); the remainder goes to the pool with
    the most decoded variables.  A pool holding fewer members than its
    allotment donates the unused slots to pools decoding later variables,
    most advanced first.  The returned widths always sum to exactly n.
    """
    if not pools:
        raise ValueError("allocate_pools requires at least one pool")
    ordered = sorted(range(len(pools)), key=lambda i: pools[i].variable_index)
    k = len(pools)
    widths = [n // k] * k
    widths[ordered[-1]] += n % k
    for pos, i in enumerate(ordered):
        excess = widths[i] - len(pools[i].members)
        if excess <= 0:
            continue
        for j in reversed(ordered[pos + 1 :]):
            room = len(pools[j].members) - widths[j]
            if room <= 0:
                continue
            take = min(excess, room)
            widths[j] += take
            widths[i] -= take
            excess -= take
            if excess == 0:
                break
    return widths


# --- proposal policies (variable-level search) -------------------------------


def _stable_seed(seed: int, tokens: tuple[int, ...], j: int) -> int:
    payload = f"{seed}|{','.join(map(str, tokens))}|{j}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def _draw(rng: random.Random, logprobs: Sequence[float], temperature: float) -> int:
    """An index drawn with weight exp(lp / T), uniformly when every weight
    underflows to 0."""
    weights = [math.exp(lp / temperature) for lp in logprobs]
    if not any(w > 0.0 for w in weights):
        weights = [1.0] * len(weights)
    return rng.choices(range(len(weights)), weights=weights)[0]


def _propose_branch(eng: _Engine, h: Hypothesis, n: int) -> list[_Cand]:
    """n distinct first tokens, each continued greedily to the chunk end."""
    proposals = []
    for cur in eng.expand_top(h, n):
        while not cur.dead and not cur.closed:
            step = eng.expand_top(cur.hyp, 1, cur)
            cur = step[0] if step else cur.killed()
        proposals.append(cur)
    return proposals


def _propose_sampled(eng: _Engine, h: Hypothesis, n: int) -> list[_Cand]:
    """n temperature-scaled samples of the whole variable value."""
    temperature = eng.config.temperature
    seen: dict[tuple[int, ...], _Cand] = {}
    for j in range(n):
        rng = random.Random(_stable_seed(eng.config.seed, h.tokens, j))
        cur: _Cand | None = None
        while cur is None or not (cur.dead or cur.closed):
            at = h if cur is None else cur.hyp
            try:
                pairs = eng.allowed_continuations(at)
                if pairs is None:
                    options = eng.fallback_completions(at)
            except DeadEnd:
                break
            if pairs is None:
                lps = [o.edge_logprob for o in options]
                cur = options[_draw(rng, lps, temperature)].after(cur)
            else:
                t, lp = pairs[_draw(rng, [lp for _, lp in pairs], temperature)]
                cur = eng.apply_token(at, t, lp, cur)
        if cur is not None and cur.closed:
            seen.setdefault(cur.tokens, cur)
    return list(seen.values())


def _propose_exhaustive(eng: _Engine, h: Hypothesis) -> list[_Cand]:
    """Every legal completion of the open variable chunk."""
    out: list[_Cand] = []

    def rec(h: Hypothesis, via: _Cand | None) -> None:
        for c in eng.expand_top(h, None, via):
            if c.closed:
                out.append(c)
            elif not c.dead:
                rec(c.hyp, c)

    rec(h, None)
    return out


def _propose(eng: _Engine, h: Hypothesis, n: int) -> list[_Cand]:
    if eng.config.proposal == PROPOSAL_BRANCH:
        return _propose_branch(eng, h, n)
    if eng.config.proposal == PROPOSAL_SAMPLE:
        return _propose_sampled(eng, h, n)
    return _propose_exhaustive(eng, h)


# --- decoders ----------------------------------------------------------------


def _finish(
    eng: _Engine, done: list[Hypothesis]
) -> DecodeResult:
    if not done:
        raise TemplateUnsatisfiable("no hypothesis completed the template")
    ranked = rank_hypotheses(done, eng.score)
    return DecodeResult(
        best=ranked[0],
        alternatives=tuple(ranked[1:]),
        tree=eng.recorder.tree(),
        truncated_count=eng.truncated,
    )


def _decode_beam(eng: _Engine) -> DecodeResult:
    """argmax and beam: a token-level beam inside each variable, whose best
    finished value is committed before the next variable opens."""
    width = eng.config.width
    h = eng.settle(Hypothesis())
    alternatives: list[Hypothesis] = []
    while not h.done:
        if h.dead:
            raise TemplateUnsatisfiable("the committed path died before completion")
        active, finished = [h], []
        while not _should_halt(active, finished, eng.score, eng.cap):
            cands = [c for s in active for c in eng.expand_top(s, width)]
            kept = eng.select(cands, width)
            finished += [k for k in kept if k.open_spec is None]
            active = [k for k in kept if k.open_spec is not None]
        if not finished:
            raise TemplateUnsatisfiable(
                f"no candidate finished variable {h.open_spec.name!r}"
            )
        ranked = rank_hypotheses(finished, eng.score)
        h = eng.settle(ranked[0])
        alternatives = ranked[1:]
    finals = [h] + [eng.settle(a) for a in alternatives]
    return _finish(eng, [f for f in finals if f.done])


def _decode_search(eng: _Engine, expand, steps) -> DecodeResult:
    """var and beamvar: every live hypothesis is expanded by
    ``expand(eng, h, width)`` and a pooled selection keeps the best, across
    the whole template.

    ``steps`` bounds the loop.  beamvar's token steps stop at the global
    token cap; var's variable steps run until the search ends, because a
    token that closes its variable is never truncated, so a value-level
    step may finish a template past the cap.
    """
    width = eng.config.width
    active = [eng.settle(Hypothesis())]
    done: list[Hypothesis] = []
    for _ in steps:
        settled = [h for h in map(eng.settle, active) if not h.dead]
        done.extend(h for h in settled if h.done)
        active = [h for h in settled if not h.done]
        if _should_halt(active, done, eng.score, eng.cap):
            active = []
            break
        cands = [c for h in active for c in expand(eng, h, width)]
        active = eng.select(cands, width)
    # anything still open when the steps run out hit the global cap
    for h in map(eng.settle, active):
        if h.done:
            done.append(h)
        elif not h.dead:
            eng.truncated += 1
    return _finish(eng, done)


def decode(sketch_or_source, backend: LMBackend, config: DecoderConfig | None = None) -> DecodeResult:
    """Run the configured decoder over a sketch or chunk source."""
    config = config or DecoderConfig()
    eng = _Engine(as_source(sketch_or_source), backend, config)
    if config.kind in (ARGMAX, BEAM):
        return _decode_beam(eng)
    if config.kind == VAR:
        return _decode_search(eng, _propose, itertools.count())
    return _decode_search(eng, _Engine.expand_top, range(eng.cap))


def decode_argmax(sketch_or_source, backend, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=ARGMAX, width=1, **kw))


def decode_beam(sketch_or_source, backend, width: int = 2, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=BEAM, width=width, **kw))


def decode_var(sketch_or_source, backend, width: int = 2, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=VAR, width=width, **kw))


def decode_beamvar(sketch_or_source, backend, width: int = 2, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=BEAMVAR, width=width, **kw))
