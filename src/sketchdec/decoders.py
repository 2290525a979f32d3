"""Sketch-aware decoding strategies over a shared hypothesis engine.

Four strategies fill a sketch's variables:

* ``argmax``  -- greedy: the single best allowed token at every step.
* ``beam``    -- a token-level beam inside each variable, committing the
  best finished candidate before moving on.
* ``var``     -- variable-level search: every surviving hypothesis
  proposes whole variable values, and a global top-n selection runs once
  per variable.
* ``beamvar`` -- a token-level beam across the whole template in which the
  beam width is re-divided every step among pools of hypotheses grouped by
  the variable they are currently decoding.

Deterministic chunks are forced but still likelihood-scored, so a
hypothesis whose committed values make later fixed text improbable pays
for it, which is what lets the searching decoders anticipate the rest of
the template.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .constraints import MAX_TOKENS, compute_mask, advance
from .errors import DeadEnd, TemplateUnsatisfiable
from .lm import LMBackend
from .scoring import Hypothesis, ScoreParams, rank_hypotheses
from .sketch import Bindings, StaticSketchSource, as_source, next_pending_chunks
from .trace import NullRecorder, TraceRecorder

NEG_INF = float("-inf")

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


def separate_done(hyps: Sequence[Hypothesis]) -> tuple[list[Hypothesis], list[Hypothesis]]:
    """Partition into (done, active).  Done hypotheses are never expanded."""
    done = [h for h in hyps if h.done]
    active = [h for h in hyps if not h.done]
    return done, active


def _best_done_score(done: Sequence[Hypothesis], score: ScoreParams) -> float:
    return max((h.normalized_score(score) for h in done), default=NEG_INF)


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
    best_done = _best_done_score(done, score)
    best_bound = max(h.score_upper_bound(score, horizon) for h in active)
    return best_bound < best_done


class _Engine:
    """Plumbing shared by every decoder: settling, expansion, tracing."""

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
                lps = self.backend.score_forced(h.tokens, toks)
                h = h.with_forced_span(toks, lps, c.text)
                texts.append(c.text)
                total_lp += sum(lps)
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
        self, h: Hypothesis
    ) -> list[tuple[int, float]] | None:
        """Allowed (token, logprob) pairs, best-first.

        Returns None when a constrained variable meets an empty truncated
        distribution, in which case the caller must fall back to scoring
        whole member completions.
        May raise DeadEnd when no vocabulary token can extend the value.
        """
        state = h.open_state
        dist = self.backend.next_distribution(h.tokens)
        if state.index is None:
            # every token is allowed, as the unconstrained mask says
            return list(dist.entries)
        if self.backend.caps.supports_full_distribution:
            mask = compute_mask(state, self.backend.vocab)
            return [(t, lp) for (t, lp) in dist.entries if t in mask]
        vocab = self.backend.vocab
        out = []
        for t, lp in dist.entries:
            if t == vocab.eos_index:
                if state.index.is_member(state.partial_value):
                    out.append((t, lp))
            elif state.index.is_prefix(state.partial_value + vocab.token_text(t)):
                out.append((t, lp))
        if out:
            return out
        return None

    def apply_token(self, h: Hypothesis, token: int, logprob: float) -> Hypothesis:
        """Append one variable token, closing or killing the chunk as ruled."""
        spec = h.open_spec
        new_state, verdict = advance(
            h.open_state, token, self.backend.vocab, spec.stop_phrases, spec.max_tokens
        )
        h = h.with_variable_token(token, logprob, new_state)
        if verdict.closes_chunk:
            if verdict.status == MAX_TOKENS and new_state.constrained:
                return h.as_dead()
            h = h.with_closed_variable()
        if h.m_total > self.cap and not h.done:
            # over the global cap with the template still open
            if h.open_spec is not None or not verdict.closes_chunk:
                self.truncated += 1
                return h.as_dead(truncated=True)
        return h

    def fallback_completions(self, h: Hypothesis) -> list["_Cand"]:
        """Score whole member completions when the truncated distribution
        has no allowed token (one forced-scoring call per member)."""
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
            lps = self.backend.score_forced(h.tokens, toks)
            child = h
            for t, lp in zip(toks, lps):
                if child.dead or child.open_spec is None:
                    break
                child = self.apply_token(child, t, lp)
            if child.dead:
                continue
            out.append(
                _Cand(
                    hyp=child,
                    parent_node=h.node_id,
                    token_text=suffix,
                    logprob=sum(lps),
                )
            )
        out.sort(key=lambda c: c.hyp.rank_key(self.score))
        if not out:
            raise DeadEnd(
                f"no member completion fits within the token budget of "
                f"variable {spec.name!r}"
            )
        return out

    def expand_top(self, h: Hypothesis, n: int) -> list["_Cand"]:
        """Children of h by its n best allowed continuations.

        Returns [] when the hypothesis is at a dead end.
        """
        try:
            pairs = self.allowed_continuations(h)
        except DeadEnd:
            return []
        if pairs is None:
            try:
                return self.fallback_completions(h)[:n]
            except DeadEnd:
                return []
        vocab = self.backend.vocab
        out = []
        for t, lp in pairs[:n]:
            child = self.apply_token(h, t, lp)
            out.append(
                _Cand(
                    hyp=child,
                    parent_node=h.node_id,
                    token_text=vocab.token_text(t),
                    logprob=lp,
                )
            )
        return out

    # -- trace bookkeeping -----------------------------------------------

    def record_selection(
        self, cands: Sequence["_Cand"], kept: set[int], pool_index: int | None
    ) -> list["_Cand"]:
        """Emit trace nodes in rank order; survivors get their new node id."""
        finalized = []
        for rank, c in enumerate(cands):
            status = "expanded" if rank in kept else "pruned"
            norm = c.hyp.normalized_score(self.score)
            pool = pool_index if pool_index is not None else _pool_key(c.hyp)
            nid = self.recorder.add(
                c.parent_node, c.token_text, c.logprob, norm, pool, status
            )
            if rank in kept:
                finalized.append(replace(c, hyp=c.hyp.with_node(nid)))
        return finalized


@dataclass(frozen=True)
class _Cand:
    """One expansion: a child hypothesis plus tracing metadata."""

    hyp: Hypothesis
    parent_node: int
    token_text: str
    logprob: float

    def merged(self, other: "_Cand") -> "_Cand":
        return _Cand(
            hyp=other.hyp,
            parent_node=self.parent_node,
            token_text=self.token_text + other.token_text,
            logprob=self.logprob + other.logprob,
        )


def _pool_key(h: Hypothesis) -> int:
    """Index of the variable a hypothesis is working on.

    A hypothesis that just closed a variable (including one that finished
    the template) still belongs to that variable's pool until the next
    settling step.
    """
    if h.open_spec is None:
        return max(h.vars_done - 1, 0)
    return h.vars_done


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


def _propose_branch(eng: _Engine, h: Hypothesis, n: int) -> list[_Cand]:
    """n distinct first tokens, each continued greedily to the chunk end."""
    firsts = eng.expand_top(h, n)
    proposals = []
    for cand in firsts:
        cur = cand
        while not cur.hyp.dead and cur.hyp.open_spec is not None:
            step = eng.expand_top(cur.hyp, 1)
            if not step:
                cur = replace(cur, hyp=cur.hyp.as_dead())
                break
            cur = cur.merged(step[0])
        proposals.append(cur)
    return proposals


def _propose_sampled(eng: _Engine, h: Hypothesis, n: int) -> list[_Cand]:
    """n temperature-scaled samples of the whole variable value."""
    cfg = eng.config
    seen: dict[tuple[int, ...], _Cand] = {}
    for j in range(n):
        rng = random.Random(_stable_seed(cfg.seed, h.tokens, j))
        cur = _Cand(hyp=h, parent_node=h.node_id, token_text="", logprob=0.0)
        while not cur.hyp.dead and cur.hyp.open_spec is not None:
            try:
                pairs = eng.allowed_continuations(cur.hyp)
            except DeadEnd:
                cur = replace(cur, hyp=cur.hyp.as_dead())
                break
            if pairs is None:
                options = eng.fallback_completions(cur.hyp)
                weights = [math.exp(o.logprob / cfg.temperature) for o in options]
                pick = rng.choices(range(len(options)), weights=weights)[0]
                cur = cur.merged(options[pick])
                continue
            weights = [math.exp(lp / cfg.temperature) for _, lp in pairs]
            if not any(w > 0.0 for w in weights):
                weights = [1.0] * len(pairs)
            pick = rng.choices(range(len(pairs)), weights=weights)[0]
            t, lp = pairs[pick]
            child = eng.apply_token(cur.hyp, t, lp)
            cur = cur.merged(
                _Cand(
                    hyp=child,
                    parent_node=cur.hyp.node_id,
                    token_text=eng.backend.vocab.token_text(t),
                    logprob=lp,
                )
            )
        if not cur.hyp.dead and cur.hyp.tokens not in seen:
            seen[cur.hyp.tokens] = cur
    return list(seen.values())


def _propose_exhaustive(eng: _Engine, h: Hypothesis) -> list[_Cand]:
    """Every legal completion of the open variable chunk."""
    out: list[_Cand] = []

    def rec(cur: _Cand) -> None:
        if cur.hyp.dead:
            return
        if cur.hyp.open_spec is None:
            out.append(cur)
            return
        try:
            pairs = eng.allowed_continuations(cur.hyp)
        except DeadEnd:
            return
        if pairs is None:
            for option in eng.fallback_completions(cur.hyp):
                rec(cur.merged(option))
            return
        for t, lp in pairs:
            child = eng.apply_token(cur.hyp, t, lp)
            rec(
                cur.merged(
                    _Cand(
                        hyp=child,
                        parent_node=cur.hyp.node_id,
                        token_text=eng.backend.vocab.token_text(t),
                        logprob=lp,
                    )
                )
            )

    rec(_Cand(hyp=h, parent_node=h.node_id, token_text="", logprob=0.0))
    return out


def _propose(eng: _Engine, h: Hypothesis, n: int) -> list[_Cand]:
    if eng.config.proposal == PROPOSAL_BRANCH:
        return _propose_branch(eng, h, n)
    if eng.config.proposal == PROPOSAL_SAMPLE:
        return _propose_sampled(eng, h, n)
    return _propose_exhaustive(eng, h)


# --- decoders ----------------------------------------------------------------


def expand_det(h: Hypothesis, source, backend: LMBackend, config: DecoderConfig | None = None) -> Hypothesis:
    """Force the pending deterministic run of a hypothesis.

    No-op when the next pending chunk is a variable.  Marks the hypothesis
    done when the template has no chunks left.  Exposed for tests and
    callers that drive decoding manually; decoders use the same engine
    internally.
    """
    eng = _Engine(as_source(source), backend, config or DecoderConfig(kind=ARGMAX, width=1))
    settled = eng.settle(h)
    if settled.open_spec is not None and h.open_spec is None:
        # settle also opens the next variable; expand_det only forces text
        return replace(
            settled,
            open_spec=None,
            open_state=None,
            open_start=0,
            open_raw=0.0,
        )
    return settled


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


def _decode_argmax(eng: _Engine) -> DecodeResult:
    h = eng.settle(Hypothesis())
    while not h.done:
        if h.dead:
            raise TemplateUnsatisfiable("the greedy path died before completion")
        cands = eng.expand_top(h, 1)
        if not cands:
            raise TemplateUnsatisfiable("no token can legally continue the template")
        kept = eng.record_selection(cands, {0}, None)
        h = kept[0].hyp
        if h.open_spec is None and not h.dead:
            h = eng.settle(h)
    return _finish(eng, [h])


def _beam_variable(
    eng: _Engine, h: Hypothesis, width: int
) -> list[Hypothesis]:
    """Token-level beam inside one variable; returns finished candidates."""
    active = [h]
    finished: list[Hypothesis] = []
    while active:
        if _should_halt(active, finished, eng.score, eng.cap):
            break
        cands: list[_Cand] = []
        for s in active:
            cands.extend(eng.expand_top(s, width))
        cands.sort(key=lambda c: c.hyp.rank_key(eng.score))
        alive = [i for i, c in enumerate(cands) if not c.hyp.dead]
        kept_idx = set(alive[:width])
        kept = eng.record_selection(cands, kept_idx, None)
        active = []
        for c in kept:
            if c.hyp.open_spec is None:
                finished.append(c.hyp)
            else:
                active.append(c.hyp)
    return finished


def _decode_beam(eng: _Engine) -> DecodeResult:
    width = eng.config.width
    h = eng.settle(Hypothesis())
    alternatives: list[Hypothesis] = []
    while not h.done:
        if h.dead:
            raise TemplateUnsatisfiable("the committed path died before completion")
        finished = _beam_variable(eng, h, width)
        if not finished:
            raise TemplateUnsatisfiable(
                f"no candidate finished variable {h.open_spec.name!r}"
            )
        ranked = rank_hypotheses(finished, eng.score)
        h = eng.settle(ranked[0])
        alternatives = ranked[1:]
    finals = [h] + [eng.settle(a) for a in alternatives]
    finals = [f for f in finals if f.done]
    return _finish(eng, finals)


def _decode_var(eng: _Engine) -> DecodeResult:
    width = eng.config.width
    active = [eng.settle(Hypothesis())]
    done: list[Hypothesis] = []
    while True:
        settled = [eng.settle(h) for h in active]
        settled = [h for h in settled if not h.dead]
        newly_done, active = separate_done(settled)
        done.extend(newly_done)
        if _should_halt(active, done, eng.score, eng.cap):
            break
        cands: list[_Cand] = []
        for h in active:
            cands.extend(_propose(eng, h, width))
        cands.sort(key=lambda c: c.hyp.rank_key(eng.score))
        alive = [i for i, c in enumerate(cands) if not c.hyp.dead]
        kept_idx = set(alive[:width])
        kept = eng.record_selection(cands, kept_idx, None)
        active = [c.hyp for c in kept]
        if not active:
            break
    return _finish(eng, done)


def _decode_beamvar(eng: _Engine) -> DecodeResult:
    width = eng.config.width
    active = [eng.settle(Hypothesis())]
    done: list[Hypothesis] = []
    for _ in range(eng.cap):
        settled = [eng.settle(h) for h in active]
        settled = [h for h in settled if not h.dead]
        newly_done, active = separate_done(settled)
        done.extend(newly_done)
        if _should_halt(active, done, eng.score, eng.cap):
            active = []
            break
        cands: list[_Cand] = []
        for s in active:
            cands.extend(eng.expand_top(s, width))
        if not cands:
            active = []
            break
        by_pool: dict[int, list[_Cand]] = {}
        for c in cands:
            by_pool.setdefault(_pool_key(c.hyp), []).append(c)
        keys = sorted(by_pool)
        pools = [Pool(variable_index=k, members=by_pool[k]) for k in keys]
        widths = allocate_pools(pools, width)
        selected: list[Hypothesis] = []
        for pool, w in zip(pools, widths):
            members = sorted(pool.members, key=lambda c: c.hyp.rank_key(eng.score))
            alive = [i for i, c in enumerate(members) if not c.hyp.dead]
            kept_idx = set(alive[:w])
            kept = eng.record_selection(members, kept_idx, pool.variable_index)
            selected.extend(c.hyp for c in kept)
        active = selected
    # anything still open when the loop ends hit the global cap
    leftovers = [eng.settle(h) for h in active if not h.dead]
    for h in leftovers:
        if not h.done and not h.dead:
            eng.truncated += 1
    newly_done, _ = separate_done(leftovers)
    done.extend(newly_done)
    return _finish(eng, done)


def decode(sketch_or_source, backend: LMBackend, config: DecoderConfig | None = None) -> DecodeResult:
    """Run the configured decoder over a sketch or chunk source."""
    config = config or DecoderConfig()
    eng = _Engine(as_source(sketch_or_source), backend, config)
    if config.kind == ARGMAX:
        return _decode_argmax(eng)
    if config.kind == BEAM:
        return _decode_beam(eng)
    if config.kind == VAR:
        return _decode_var(eng)
    return _decode_beamvar(eng)


def decode_argmax(sketch_or_source, backend, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=ARGMAX, width=1, **kw))


def decode_beam(sketch_or_source, backend, width: int = 2, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=BEAM, width=width, **kw))


def decode_var(sketch_or_source, backend, width: int = 2, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=VAR, width=width, **kw))


def decode_beamvar(sketch_or_source, backend, width: int = 2, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=BEAMVAR, width=width, **kw))
