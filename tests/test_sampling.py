"""Sampled proposals: one draw tree per proposal against the walk that
draws every sample from scratch."""
import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_fixture
from sketchdec import decoders
from sketchdec.decoders import (
    PROPOSAL_SAMPLE,
    VAR,
    DecoderConfig,
    _Engine,
    _sample_seeds,
    decode,
)
from sketchdec.errors import TemplateUnsatisfiable
from sketchdec.lm import LMBackend
from test_decoders import TopK, truncated_fixture


def stable_seed(seed: int, tokens: tuple[int, ...], j: int) -> int:
    """The seed of sample j, hashed whole."""
    payload = f"{seed}|{','.join(map(str, tokens))}|{j}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def draw(rng: random.Random, logprobs) -> int:
    """An index drawn with weight exp(lp), uniformly when every weight
    underflows to 0."""
    weights = [math.exp(lp) for lp in logprobs]
    if not any(w > 0.0 for w in weights):
        weights = [1.0] * len(weights)
    return rng.choices(range(len(weights)), weights=weights)[0]


def reference_proposals(eng: _Engine, h, n: int):
    """Each sample walks from h on its own, reading every node it visits.

    Returns the proposals and the truncations the draw tree should count:
    each node's member fallback once, and each truncated child drawn once.
    """
    seen = {}
    truncations = {}
    for j in range(n):
        rng = random.Random(stable_seed(eng.config.seed, h.tokens, j))
        cur = None
        while cur is None or not (cur.dead or cur.closed):
            at = h if cur is None else cur.hyp
            before = eng.truncated
            pairs = eng.allowed_continuations(at, eng.entry(at))
            if pairs is None:
                options = eng.fallback_completions(at, eng.entry(at))
            # a member fallback truncates while it walks the members
            truncations["node", at.tokens] = eng.truncated - before
            if not (options if pairs is None else pairs):
                # a dead end
                break
            if pairs is None:
                lps = [o.logprob_from(len(at.tokens)) for o in options]
                cur = options[draw(rng, lps)]
            else:
                t, lp = pairs[draw(rng, [lp for _, lp in pairs])]
                before = eng.truncated
                cur = eng.apply_token(at, t, lp)
                truncations["child", cur.tokens] = eng.truncated - before
        if cur is not None and cur.closed:
            seen.setdefault(cur.tokens, cur)
    return list(seen.values()), sum(truncations.values())


class Counted(LMBackend):
    """A backend that records the prefix of every distribution read."""

    def __init__(self, inner: LMBackend):
        self.inner = inner
        self.vocab = inner.vocab
        self.reads = []

    def next_distribution(self, prefix, text=None):
        self.reads.append(tuple(prefix))
        return self.inner.next_distribution(prefix, text=text)

    def score_forced(self, prefix, continuation, text=None):
        return self.inner.score_forced(prefix, continuation, text=text)


def proposal_fingerprint(c) -> tuple:
    return (
        c.tokens,
        c.logprob.hex(),
        c.normalized_score().hex(),
        c.closed,
        c.dead,
    )


def checked_against_reference(monkeypatch) -> list:
    """Patch the sampled proposal so that every call is compared with the
    reference walk, made on a twin engine so that its index, pieces and
    counters stay apart; returns the list of proposal counts."""
    real = decoders._propose_sampled
    calls = []

    def checked(eng, h, n):
        twin = _Engine(eng.source, eng.backend, eng.config)
        want, truncations = reference_proposals(twin, h, n)
        eng.backend.reads.clear()
        before = eng.truncated
        got = real(eng, h, n)
        # one read per node of the tree
        assert len(eng.backend.reads) == len(set(eng.backend.reads))
        assert [proposal_fingerprint(c) for c in got] == [
            proposal_fingerprint(c) for c in want
        ]
        assert [c.hyp for c in got] == [c.hyp for c in want]
        # a child drawn by several samples is one candidate, truncated once
        assert eng.truncated - before == truncations
        calls.append(len(got))
        return got

    monkeypatch.setattr(decoders, "_propose_sampled", checked)
    return calls


def test_sample_seeds_equal_whole_hashes():
    for seed, tokens in ((0, ()), (9, (3,)), (2**40, (1, 22, 333, 0)), (-5, (7, 7))):
        n = 12
        assert list(_sample_seeds(seed, tokens, n)) == [
            stable_seed(seed, tokens, j) for j in range(n)
        ]


@settings(max_examples=60, deadline=None)
# a member fallback's option "b" continues by the token "a" to "ba", the
# value of its sibling option: one proposal, not two
@example(
    seed=157, truncated=False, zero_rest=False, top_k=2, cap=16, width=2, sample_seed=0
)
# the member fallbacks at "" and at "b" both offer "bb", which continues
# toward "bba": two candidates reach one prefix, which is read once
@example(
    seed=171, truncated=False, zero_rest=False, top_k=2, cap=None, width=2,
    sample_seed=20647,
)
# under a one-token cap the one member's completion is truncated, so the
# member fallback is empty: a dead end
@example(
    seed=167, truncated=False, zero_rest=False, top_k=2, cap=1, width=1, sample_seed=0
)
# every member completion scores -inf, so the fallback draws are uniform
@example(
    seed=0, truncated=True, zero_rest=True, top_k=None, cap=None, width=3, sample_seed=0
)
@given(
    seed=st.integers(0, 2**16),
    truncated=st.booleans(),
    zero_rest=st.booleans(),
    top_k=st.sampled_from([None, 2, 3]),
    cap=st.one_of(st.none(), st.integers(1, 16)),
    width=st.integers(1, 6),
    sample_seed=st.integers(0, 2**16),
)
def test_draw_tree_equals_per_sample_walks(
    seed, truncated, zero_rest, top_k, cap, width, sample_seed
):
    """On full and truncated backends (whose OneOf values come from member
    fallback), under global caps and where every member completion scores
    -inf, each proposal is the reference walk's, float bit for float bit,
    and reads each prefix once."""
    if truncated:
        sketch, backend = truncated_fixture(seed % 5, zero_rest)
    else:
        sketch, backend = random_fixture(seed)
        if top_k is not None:
            backend = TopK(backend, top_k)
    config = DecoderConfig(
        kind=VAR,
        width=width,
        proposal=PROPOSAL_SAMPLE,
        seed=sample_seed,
        global_max_tokens=cap,
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = checked_against_reference(monkeypatch)
        try:
            decode(sketch, Counted(backend), config)
        except TemplateUnsatisfiable:
            pass
    # only a cap that kills the template's first forced text stops every
    # proposal
    assert calls or cap is not None
