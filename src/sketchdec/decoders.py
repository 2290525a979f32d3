"""Sketch-aware decoding strategies over a shared hypothesis engine.

Four strategies fill a sketch's variables.  They differ in the expansion
unit (one token or a whole variable value) and in what a selection keeps,
and they run on two loops:

* ``beam``    -- ``_decode_beam``: a token-level beam inside each variable
  that commits the best finished value that settles before the next
  variable opens; the finished values of the last variable ranked after
  the committed one are the alternatives.
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
their single pool's top n is the global top n.  Neither end of a path is an
exception: a dead end, where no allowed token or member completion is left,
is an empty expansion, and a death in ``settle`` is None.

A candidate (``_Cand``) is a parent hypothesis plus one appended token and
what the step made of it.  Its rank key, normalized score and ``dead`` are
computed from the parent, and its ``Hypothesis`` is built only when
selection keeps it or a proposal extends it; most candidates of a wide
search are pruned unbuilt.  The rank key orders as ``rank_key`` over the
child's tokens, but holds the parent's tokens and the token apart after
the length, so ranking copies no token tuple.  All children of one parent
are made in one batch (``_Engine.children``), which reads the parent's
OneOf steps and normalization weight once for all of them.  Each expansion
reads its hypothesis's index entry once and hands it on: to the batch, to
the member fallback, and to a draw node's children.  A proposal walk
extends the candidate of its last step, and a member fallback is the
candidate of the member's last token.  Both loops hand selection each
expanded hypothesis with its candidates: that hypothesis's variable is
their pool, and in a recorded tree a candidate's edge is every token past
it.  Selection ranks each candidate once, and the recorded node takes the
candidate's normalized score.  A sampled proposal's n samples walk one
draw tree, so each node they visit reads its continuations once and makes
each child once, however many samples pass through it.

OneOf steps share one index per vocabulary (``_one_of_entry``), the lazy
form of a state-to-token index: per (members, partial value), each token's
``one_of_move``, found on first test, the full token mask, built on first
need, and each token's step outcome per (token count, token budget): the
new state, and whether the value closed or died.  ``_outcome`` rules that
once, when the step is stored, and free-variable steps go through the same
rule.  A read of the n best allowed tokens walks the distribution
best-first against the entry and stops at n, so only reads of every
allowed token build masks; a OneOf child takes its step from the entry.
An entry is a pure function of its key and vocabulary, so the index lives
on the vocabulary and is shared by every decode over it.  ``OneOf`` gives
equal member sets one tuple, so sketches built apart over the same sets
share entries when their backends share a vocabulary.  Each vocabulary's
index is bounded: at most ``ONE_OF_INDEX_SIZE`` entries, oldest evicted
first.  An entry holds at most one move per vocabulary token, the mask,
and one step per token for each (token count, budget) pair reached; the
index goes when its vocabulary goes.

Every hypothesis carries the text its tokens render to, and the engine
hands it to the backend (``text=h.text``), so a backend keyed by prefix
text does not join the prefix again on every call.  A forced chunk appends
its own text; a variable token appends ``backend.detokenize((token,))``,
kept per decode (``_Engine._pieces``).

Settling a hypothesis scores forced text and does little else.  It asks
the source for the next run with a plain dict of the values bound so far,
built in one pass over the spans.  Forced text is tokenized once per decode:
``_Engine._forced`` keeps each text's tokens for the engine's life, as
``_pieces`` keeps each token's text, and the default token cap fills it
first.

The token cap (``global_max_tokens``, or the default cap) bounds every
hypothesis under every decoder, where its tokens are added.  A hypothesis
that holds the cap's tokens is a dead end: its expansion is empty, and the
backend is not read.  A member fallback skips a member whose tokens would
pass the cap, and settle drops a hypothesis whose forced text passes it.
Each counts one truncation.  So no loop needs a step bound: every step adds
a token to each live hypothesis, and the search ends when none is left.  A
decode that then fails raises ``TemplateUnsatisfiable`` with the count, and
names the cap when the count is positive.

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
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .constraints import MAX_TOKENS, MaskState, TerminationVerdict, advance
from .constraints import compute_mask, one_of_move, one_of_step
from .errors import DeadEnd, ForcedTextMisaligned, InstanceTooLarge
from .errors import TemplateUnsatisfiable
from .lm import NEG_INF, LMBackend, _remember, ordered_sum
from .scoring import Hypothesis, ScoreParams, normalization_weight, rank_hypotheses
from .sketch import Bindings, StaticSketchSource, as_source
from .trace import TraceRecorder

ARGMAX = "argmax"
BEAM = "beam"
VAR = "var"
BEAMVAR = "beamvar"

PROPOSAL_BRANCH = "branch"
PROPOSAL_SAMPLE = "sample"
PROPOSAL_EXHAUSTIVE = "exhaustive"

DEFAULT_DYNAMIC_CAP = 4096
# closed candidates one exhaustive walk may collect; the largest pinned walk
# collects 9,331
EXHAUSTIVE_MAX_COMPLETIONS = 65_536
# OneOf index entries kept per vocabulary, oldest evicted first
ONE_OF_INDEX_SIZE = 1024


@dataclass(frozen=True)
class DecoderConfig:
    """How ``decode`` runs.

    ``kind`` is the decoder: ``argmax``, ``beam``, ``var`` or ``beamvar``.
    ``width`` is the number of hypotheses a selection keeps (1 for
    argmax).  ``score`` sets the length normalization that ranks them.
    ``proposal`` is how ``var`` proposes a variable's values: ``branch``,
    ``sample`` or ``exhaustive``; ``seed`` seeds the sampled proposals.
    ``global_max_tokens`` is the most tokens, forced and variable, that
    any hypothesis may hold, under every decoder; None takes
    ``default_token_cap``, which never binds on a static sketch.
    ``record_tree`` keeps the search tree in ``DecodeResult.tree``.
    """

    kind: str = BEAMVAR
    width: int = 2
    score: ScoreParams = field(default_factory=ScoreParams)
    proposal: str = PROPOSAL_BRANCH
    seed: int = 0
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


def default_token_cap(source, tokenize: Callable[[str], Sequence[int]]) -> int:
    """Upper bound on hypothesis length.

    For static sketches this is the exact sum of deterministic chunk token
    lengths, by ``tokenize``, plus every variable's max_tokens; dynamic
    sources fall back to a fixed safety cap.
    """
    if isinstance(source, StaticSketchSource):
        total = 0
        for c in source.sketch.chunks:
            if c.is_det:
                total += len(tokenize(c.text))
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
        self.recorder = TraceRecorder() if config.record_tree else None
        self._pieces = _Memo(lambda token: backend.detokenize((token,)))
        self._forced = _Memo(lambda text: tuple(backend.tokenize(text)))
        self.cap = (
            config.global_max_tokens
            if config.global_max_tokens is not None
            else default_token_cap(source, self._forced.__getitem__)
        )
        self.truncated = 0

    # -- settle: force pending deterministic runs, open the next variable --

    def settle(self, h: Hypothesis) -> Hypothesis | None:
        """h with its pending deterministic chunks forced and scored, and
        then the next variable open, or done at the template's end; None
        when h dies here, because the backend cannot align a forced chunk
        with h's text or the forced text passes the global token cap.  An
        open or done h is already settled."""
        if h.done or h.open_spec is not None:
            return h
        run = self.source.pending(
            {s.name: s.text for s in h.spans if s.kind == "var"}
        )
        if not run:
            return self._mark_done(h)
        var_chunk = run[-1] if run[-1].is_var else None
        det_chunks = run[:-1] if var_chunk is not None else run
        if det_chunks:
            for c in det_chunks:
                toks = self._forced[c.text]
                try:
                    lps = self.backend.score_forced(h.tokens, toks, text=h.text)
                except ForcedTextMisaligned:
                    # the service merges this value's end into the forced
                    # text: this hypothesis cannot be scored, others may be
                    return None
                h = h.with_forced_span(toks, lps, c.text)
            if self.recorder is not None:
                nid = self.recorder.add(
                    h.node_id,
                    "".join(c.text for c in det_chunks),
                    ordered_sum(s.raw_logprob for s in h.spans[-len(det_chunks) :]),
                    h.normalized_score(self.score),
                    h.vars_done,
                    "forced",
                )
                h = h.with_node(nid)
            if h.m_total > self.cap:
                self.truncated += 1
                return None
        if var_chunk is not None:
            return h.with_open_variable(var_chunk.var, MaskState.start(var_chunk.var))
        return self._mark_done(h)

    def unsatisfiable(self, reason: str) -> TemplateUnsatisfiable:
        """The error that ends a decode with no finished hypothesis: it
        carries the truncation count, and names the cap when that count is
        positive."""
        return TemplateUnsatisfiable(reason, self.truncated, self.cap)

    def _mark_done(self, h: Hypothesis) -> Hypothesis:
        nid = h.node_id
        if self.recorder is not None:
            nid = self.recorder.add(
                h.node_id,
                "",
                0.0,
                h.normalized_score(self.score),
                max(h.vars_done - 1, 0),
                "done",
            )
        return h.as_done(nid)

    # -- variable expansion --------------------------------------------------

    def entry(self, h: Hypothesis) -> "_OneOfEntry | None":
        """The OneOf index entry of h's open state; None for a free
        variable."""
        state = h.open_state
        return None if state.index is None else _one_of_entry(state, self.backend.vocab)

    def allowed_continuations(
        self, h: Hypothesis, entry: "_OneOfEntry | None", n: int | None = None
    ) -> list[tuple[int, float]] | None:
        """Allowed (token, logprob) pairs, best-first: the n best, or all.

        An unconstrained variable allows every token.  Under OneOf, a
        complete distribution is walked best-first against h's ``entry``
        until n tokens pass, or else read through the token mask.  A
        truncated one gives the tokens that pass, and if none does, None:
        the caller must fall back to scoring whole member completions.
        [] at a dead end: no vocabulary token can extend the value, or h
        already holds the cap's tokens, which counts one truncation and
        reads nothing from the backend.
        """
        if len(h.tokens) >= self.cap:
            self.truncated += 1
            return []
        dist = self.backend.next_distribution(h.tokens, text=h.text)
        if entry is None:
            # every token is allowed, as the unconstrained mask says
            return list(dist.entries if n is None else dist.top(n))
        if not dist.complete:
            return [p for p in dist.entries if entry.accepts(p[0])] or None
        pairs = None if n is None else dist.first(n, entry.accepts)
        # None: all are wanted, or the walk cannot tell them without the
        # mask; empty: it saw every token, and the mask is empty too
        return list(pairs or dist.allowed(entry.mask()))

    def children(
        self,
        h: Hypothesis,
        entry: "_OneOfEntry | None",
        pairs: Sequence[tuple[int, float]],
    ) -> list["_Cand"]:
        """The children of h by these (token, logprob) pairs, each closing
        or killing the chunk as ``_outcome`` rules; their Hypotheses are
        built on first use.  ``entry`` is h's OneOf index entry, None for a
        free variable.

        What depends only on h is done once: the step outcomes the entry
        keeps for h's token count and budget, each read whole as (state,
        closed, dead), and the normalization weight, since every child has
        one more token.
        """
        spec, state = h.open_spec, h.open_state
        steps = None
        if entry is not None:
            steps = entry.steps[state.tokens_emitted, spec.max_tokens]
        weight = normalization_weight(self.score, len(h.tokens) + 1)
        raw, pieces, vocab = h.raw_score, self._pieces, self.backend.vocab
        out = []
        for token, logprob in pairs:
            step = None if steps is None else steps.get(token)
            if step is None:
                move = None if entry is None else entry[token]
                if move is None:
                    # a free variable, or an illegal token, which advance rejects
                    step = _outcome(
                        advance(state, token, vocab, spec.stop_phrases, spec.max_tokens)
                    )
                else:
                    step = steps[token] = _outcome(
                        one_of_step(state, move, spec.max_tokens)
                    )
            new_state, closed, dead = step
            norm = weight * (raw + logprob)
            out.append(
                _Cand(h, token, pieces[token], logprob, new_state, closed, dead, norm)
            )
        return out

    def apply_token(self, h: Hypothesis, token: int, logprob: float) -> "_Cand":
        """The one child of h by this token, as ``children`` makes it."""
        return self.children(h, self.entry(h), ((token, logprob),))[0]

    def fallback_completions(
        self, h: Hypothesis, entry: "_OneOfEntry"
    ) -> list["_Cand"]:
        """Score whole member completions when the truncated distribution
        has no allowed token (one forced-scoring call per member); a member
        the backend cannot align with h's text is skipped, and so is one
        whose tokens would carry h past the cap, which counts one
        truncation.

        Each option is the candidate of its member's last token, best
        first; [] when no member fits its token budget and the cap and can
        be scored."""
        state, spec = h.open_state, h.open_spec
        partial = state.partial_value
        lo, hi = state.index.span(partial)
        out: list[_Cand] = []
        for member in state.index.members[lo:hi]:
            suffix = member[len(partial) :]
            if not suffix:
                continue
            toks = self.backend.tokenize(suffix)
            if not toks or state.tokens_emitted + len(toks) > spec.max_tokens:
                continue
            if len(h.tokens) + len(toks) > self.cap:
                self.truncated += 1
                continue
            try:
                lps = self.backend.score_forced(h.tokens, toks, text=h.text)
            except ForcedTextMisaligned:
                continue
            cand = self.children(h, entry, ((toks[0], lps[0]),))[0]
            for t, lp in zip(toks[1:], lps[1:]):
                if cand.dead or cand.closed:
                    break
                cand = self.apply_token(cand.hyp, t, lp)
            if not cand.dead:
                out.append(cand)
        out.sort(key=_Cand.rank_key)
        return out

    def expand_top(self, h: Hypothesis, n: int | None) -> list["_Cand"]:
        """Children of h by its n best allowed continuations (all of them
        for n None).

        Returns [] when the hypothesis is at a dead end.
        """
        entry = self.entry(h)
        pairs = self.allowed_continuations(h, entry, n)
        if pairs is None:
            return self.fallback_completions(h, entry)[:n]
        return self.children(h, entry, pairs[:n])

    # -- selection -------------------------------------------------------

    def select(
        self, expansions: Sequence[tuple[Hypothesis, Sequence["_Cand"]]], width: int
    ) -> list[Hypothesis]:
        """The best live candidates of each variable pool, the width split
        among the pools by ``allocate_pools``.

        Each expansion is a hypothesis h with the candidates made from it,
        which join the pool of h's open variable, closing or not.  A
        recorded tree gets one node per candidate, in rank order, under h's
        node: its edge is the tokens past h, with their log-probabilities
        added in order, and its score is the candidate's normalized score.
        Each survivor is built under its new node."""
        by_pool: dict[int, list[tuple[Hypothesis, _Cand]]] = {}
        for h, cands in expansions:
            if cands:
                by_pool.setdefault(h.vars_done, []).extend((h, c) for c in cands)
        if not by_pool:
            return []
        pools = [Pool(variable_index=k, members=by_pool[k]) for k in sorted(by_pool)]
        recorder, token_text = self.recorder, self.backend.vocab.token_text
        kept: list[Hypothesis] = []
        for pool, w in zip(pools, allocate_pools(pools, width)):
            ranked = sorted(pool.members, key=lambda hc: hc[1].rank_key())
            alive = [i for i, (_, c) in enumerate(ranked) if not c.dead]
            survivors = set(alive[:w])
            for rank, (h, c) in enumerate(ranked):
                nid = 0
                if recorder is not None:
                    start = len(h.tokens)
                    nid = recorder.add(
                        h.node_id,
                        "".join(map(token_text, c.tokens[start:])),
                        c.logprob_from(start),
                        c.normalized_score(),
                        pool.variable_index,
                        "expanded" if rank in survivors else "pruned",
                    )
                if rank in survivors:
                    kept.append(c.built(nid))
        return kept


class _Memo(dict):
    """key -> fn(key), filled on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _OneOfEntry(dict):
    """One state of the OneOf index: token -> ``one_of_move``
    (None when illegal), filled on first lookup; the state's token mask
    once a read needs every allowed token, empty at a dead end; and
    ``steps``, per (token count, token budget), token -> the outcome of its
    ``one_of_step`` as ``_outcome`` rules it, (state, closed, dead), which
    the engine fills for every hypothesis at that count."""

    __slots__ = ("state", "vocab", "_mask", "steps")

    def __init__(self, state: MaskState, vocab):
        self.state, self.vocab, self._mask = state, vocab, None
        self.steps: defaultdict[
            tuple[int, int], dict[int, tuple[MaskState, bool, bool]]
        ] = defaultdict(dict)

    def __missing__(self, token: int) -> tuple[str, bool, bool] | None:
        move = self[token] = one_of_move(self.state, token, self.vocab)
        return move

    def accepts(self, token: int) -> bool:
        return self[token] is not None

    def mask(self) -> frozenset[int]:
        """``compute_mask`` of the state, once; empty at a dead end."""
        if self._mask is None:
            try:
                self._mask = compute_mask(self.state, self.vocab)
            except DeadEnd:
                self._mask = frozenset()
        return self._mask


def _one_of_entry(state: MaskState, vocab) -> _OneOfEntry:
    """The index entry of a constrained state, made on first use.  The key
    is (id of the OneOf members, partial value): the entry holds its state,
    which holds the members, so the id cannot be reused while the key is
    in the index."""
    index, key = vocab._one_of, (id(state.index.members), state.partial_value)
    entry = index.get(key)
    if entry is None:
        entry = _remember(index, key, _OneOfEntry(state, vocab), ONE_OF_INDEX_SIZE)
    return entry


def _outcome(
    step: tuple[MaskState, TerminationVerdict],
) -> tuple[MaskState, bool, bool]:
    """A step's (state, closed, dead): a verdict that closes the chunk
    seals the variable, but running out of tokens inside a OneOf value
    kills it."""
    state, verdict = step
    dead = verdict.status == MAX_TOKENS and state.constrained
    return state, verdict.closes_chunk and not dead, dead


class _Cand:
    """One expansion: a parent hypothesis plus one appended token.

    It holds the ``parent``, the ``token`` with its rendering ``piece`` and
    its ``logprob``, the ``state`` and outcome of the step (``closed``:
    the variable is sealed; ``dead``), and ``norm``, the child's normalized
    score while it lives, which the engine computes with the parent's
    weight once per expansion.  The rank key is read from those, and the
    Hypothesis is built only on demand: ``hyp`` when a proposal extends it
    (keeping the trace node of the one it extends), ``built`` when
    selection keeps it.
    """

    __slots__ = (
        "parent",
        "token",
        "piece",
        "logprob",
        "state",
        "closed",
        "dead",
        "norm",
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
        norm: float,
    ):
        self.parent = parent
        self.token = token
        self.piece = piece
        self.logprob = logprob
        self.state = state
        self.closed = closed
        self.dead = dead
        self.norm = norm

    @property
    def hyp(self) -> Hypothesis:
        """The child hypothesis under its parent's trace node."""
        return self.built(None)

    def built(self, node_id: int | None) -> Hypothesis:
        """The child hypothesis under trace node ``node_id`` (None: its
        parent's).  Only live candidates are built."""
        p = self.parent
        args = (self.token, self.logprob, self.state, self.piece, node_id)
        if self.closed:
            return p.with_closing_token(*args)
        return p.with_variable_token(*args)

    @property
    def tokens(self) -> tuple[int, ...]:
        return self.parent.tokens + (self.token,)

    def normalized_score(self) -> float:
        """The built child's ``normalized_score`` under the engine's
        parameters: the same float operations, on the same operands."""
        return NEG_INF if self.dead else self.norm

    def rank_key(self) -> tuple:
        """Orders as ``rank_key(self.normalized_score(), self.tokens)``
        without copying the parent's tokens: lengths compare first, so the
        parent's tokens and then the token compare as the child's would."""
        p = self.parent.tokens
        return (math.inf if self.dead else -self.norm, len(p) + 1, p, self.token)

    def logprob_from(self, start: int) -> float:
        """The log-probability of this candidate's tokens from index start
        through its own, added in order."""
        return ordered_sum(self.parent.logprobs[start:]) + self.logprob

    def killed(self) -> "_Cand":
        """This candidate at a dead end."""
        self.dead = True
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


def _sample_seeds(seed: int, tokens: tuple[int, ...], n: int) -> Iterator[int]:
    """The seeds of a proposal's n samples, from the sha256 of
    "seed|tokens|j"; the part before j is hashed once."""
    common = hashlib.sha256(f"{seed}|{','.join(map(str, tokens))}|".encode())
    for j in range(n):
        digest = common.copy()
        digest.update(str(j).encode())
        yield int.from_bytes(digest.digest()[:8], "big")


def _propose_branch(eng: _Engine, h: Hypothesis, n: int) -> list[_Cand]:
    """n distinct first tokens, each continued greedily to the chunk end."""
    proposals = []
    for cur in eng.expand_top(h, n):
        while not cur.dead and not cur.closed:
            step = eng.expand_top(cur.hyp, 1)
            cur = step[0] if step else cur.killed()
        proposals.append(cur)
    return proposals


def _propose_sampled(eng: _Engine, h: Hypothesis, n: int) -> list[_Cand]:
    """n samples of the whole variable value, each token drawn by its
    probability.

    The samples walk one draw tree: a node, keyed by the tokens that reach
    it, reads its continuations once, however many candidates reach it (the
    options of two member fallbacks may spell one prefix), and each of its
    children is made once, when it is first drawn.
    """
    tree: dict[tuple[int, ...], _DrawNode | None] = {}
    seen: dict[tuple[int, ...], _Cand] = {}
    for seed in _sample_seeds(eng.config.seed, h.tokens, n):
        rng = random.Random(seed)
        cur: _Cand | None = None
        while cur is None or not (cur.dead or cur.closed):
            key = h.tokens if cur is None else cur.tokens
            if key not in tree:
                tree[key] = _DrawNode.read(eng, h if cur is None else cur.hyp)
            node = tree[key]
            if node is None:
                break
            cur = node.draw(eng, rng)
        if cur is not None and cur.closed:
            # a member fallback's option and a token walk may spell one value
            seen.setdefault(cur.tokens, cur)
    return list(seen.values())


class _DrawNode:
    """One node of a sampled proposal's draw tree: the hypothesis reached
    with its OneOf index entry, its allowed continuations, their
    cumulative draw weights exp(lp), and the children made so far."""

    __slots__ = ("at", "entry", "pairs", "cum", "children")

    def __init__(
        self,
        at: Hypothesis,
        entry: _OneOfEntry | None,
        pairs: list[tuple[int, float]] | None,
        cum: list[float],
        children: list[_Cand | None],
    ):
        self.at, self.entry, self.pairs = at, entry, pairs
        self.cum, self.children = cum, children

    @classmethod
    def read(cls, eng: _Engine, at: Hypothesis) -> "_DrawNode | None":
        """The node at hypothesis at, or None at a dead end.  A member
        fallback makes every option at once, weighed by the log-probability
        of its tokens past at; the weights are uniform when every one
        underflows to 0."""
        entry = eng.entry(at)
        pairs = eng.allowed_continuations(at, entry)
        if pairs is None:
            children = eng.fallback_completions(at, entry)
            start = len(at.tokens)
            weights = [math.exp(o.logprob_from(start)) for o in children]
        else:
            weights = [math.exp(lp) for _, lp in pairs]
            children = [None] * len(pairs)
        if not weights:
            return None
        if not any(w > 0.0 for w in weights):
            weights = [1.0] * len(weights)
        return cls(at, entry, pairs, list(itertools.accumulate(weights)), children)

    def draw(self, eng: _Engine, rng: random.Random) -> _Cand:
        """One child, drawn by weight; made on its first draw."""
        i = rng.choices(range(len(self.cum)), cum_weights=self.cum)[0]
        child = self.children[i]
        if child is None:
            child = eng.children(self.at, self.entry, self.pairs[i : i + 1])[0]
            self.children[i] = child
        return child


def _propose_exhaustive(eng: _Engine, h: Hypothesis) -> list[_Cand]:
    """Every legal completion of the open variable chunk, depth first; a
    walk that collects more than ``EXHAUSTIVE_MAX_COMPLETIONS`` raises
    InstanceTooLarge.

    The walk keeps its own stack of child iterators rather than recursing
    through a closure, which would refer to itself and so keep the engine
    and every candidate alive until the cyclic collector runs.
    """
    out: list[_Cand] = []
    stack = [iter(eng.expand_top(h, None))]
    while stack:
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
        elif c.closed:
            out.append(c)
            if len(out) > EXHAUSTIVE_MAX_COMPLETIONS:
                raise InstanceTooLarge(len(out), EXHAUSTIVE_MAX_COMPLETIONS)
        elif not c.dead:
            stack.append(iter(eng.expand_top(c.hyp, None)))
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
        raise eng.unsatisfiable("no hypothesis completed the template")
    ranked = rank_hypotheses(done, eng.score)
    return DecodeResult(
        best=ranked[0],
        alternatives=tuple(ranked[1:]),
        tree=None if eng.recorder is None else eng.recorder.tree(),
        truncated_count=eng.truncated,
    )


def _decode_beam(eng: _Engine) -> DecodeResult:
    """argmax and beam: a token-level beam inside each variable, whose best
    finished value that settles is committed before the next variable
    opens; the finished values ranked after it are the alternatives."""
    width = eng.config.width
    h = eng.settle(Hypothesis())
    if h is None:
        raise eng.unsatisfiable("the template's opening text died in settle")
    alternatives: list[Hypothesis] = []
    while not h.done:
        name = h.open_spec.name
        active, finished = [h], []
        while not _should_halt(active, finished, eng.score, eng.cap):
            kept = eng.select([(s, eng.expand_top(s, width)) for s in active], width)
            finished += [k for k in kept if k.open_spec is None]
            active = [k for k in kept if k.open_spec is not None]
        if not finished:
            raise eng.unsatisfiable(f"no candidate finished variable {name!r}")
        ranked = rank_hypotheses(finished, eng.score)
        for i, f in enumerate(ranked):
            h = eng.settle(f)
            if h is not None:
                break
        else:
            raise eng.unsatisfiable(
                f"every finished value of variable {name!r} died in settle"
            )
        alternatives = ranked[i + 1 :]
    finals = [h] + [eng.settle(a) for a in alternatives]
    return _finish(eng, [f for f in finals if f is not None and f.done])


def _decode_search(eng: _Engine, expand) -> DecodeResult:
    """var and beamvar: every live hypothesis is expanded by
    ``expand(eng, h, width)`` and a pooled selection keeps the best, across
    the whole template, until no hypothesis is left active or none can
    still beat the best finished one."""
    width = eng.config.width
    active = [Hypothesis()]
    done: list[Hypothesis] = []
    while True:
        settled = [h for h in map(eng.settle, active) if h is not None]
        done.extend(h for h in settled if h.done)
        active = [h for h in settled if not h.done]
        if _should_halt(active, done, eng.score, eng.cap):
            return _finish(eng, done)
        active = eng.select([(h, expand(eng, h, width)) for h in active], width)


def decode(sketch_or_source, backend: LMBackend, config: DecoderConfig | None = None) -> DecodeResult:
    """Run the configured decoder over a sketch or chunk source."""
    config = config or DecoderConfig()
    eng = _Engine(as_source(sketch_or_source), backend, config)
    if config.kind in (ARGMAX, BEAM):
        return _decode_beam(eng)
    return _decode_search(eng, _propose if config.kind == VAR else _Engine.expand_top)


def decode_argmax(sketch_or_source, backend, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=ARGMAX, width=1, **kw))


def decode_beam(sketch_or_source, backend, width: int = 2, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=BEAM, width=width, **kw))


def decode_var(sketch_or_source, backend, width: int = 2, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=VAR, width=width, **kw))


def decode_beamvar(sketch_or_source, backend, width: int = 2, **kw) -> DecodeResult:
    return decode(sketch_or_source, backend, DecoderConfig(kind=BEAMVAR, width=width, **kw))
