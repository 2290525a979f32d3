"""Shared fixtures: digest-driven random table backends, random sketch
generation, and an isolated greedy reference decoder.

The reference decoder deliberately avoids the decoder engine: it walks the
template chunk by chunk, forcing deterministic text and completing each
variable in isolation with per-step argmax over the allowed continuations.
"""
from __future__ import annotations

import hashlib
import random
import sys
import threading
import time

from hypothesis import strategies as st

from sketchdec.constraints import MaskState, advance, compute_mask
from sketchdec.lm import StateTableLM, Vocabulary, ordered_sum
from sketchdec.sketch import Chunk, OneOf, Sketch, VariableSpec


# any JSON value: NaN and the infinities included, as ``json.loads`` reads them
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def or_junk(valid):
    """The valid values, or any JSON value in their place."""
    return st.one_of(valid, json_values)


def stable_unit(*parts) -> float:
    """Deterministic float in (0, 1) derived from a digest of the parts."""
    payload = "|".join(str(p) for p in parts).encode()
    digest = hashlib.sha256(payload).digest()
    return (int.from_bytes(digest[:8], "big") + 1) / (2**64 + 2)


def random_backend(
    seed: int,
    letters: str = "abcd",
    merges: tuple[str, ...] = ("ab", "cd"),
    eos: str = "",
) -> StateTableLM:
    """Full-support table model whose rows are a pure function of the prefix.

    Token 0 is EOS, rendered as ``eos``.  Each prefix text is its own model
    state, so the backend keeps one row per text it reads."""
    tokens = (eos,) + tuple(letters) + tuple(merges)
    vocab = Vocabulary(tokens, eos_index=0)

    def rows(prefix: str) -> list[float]:
        weights = [stable_unit(seed, prefix, i) for i in range(len(tokens))]
        total = ordered_sum(weights)
        return [w / total for w in weights]

    return StateTableLM(vocab, lambda text: text, rows)


def _random_members(rng: random.Random, letters: str) -> tuple[str, ...]:
    members: set[str] = set()
    target = rng.randint(1, 4)
    while len(members) < target:
        members.add(
            "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        )
    return tuple(members)


def random_sketch(
    rng: random.Random,
    letters: str = "abcd",
    max_vars: int = 3,
    allow_one_of: bool = True,
    name: str = "fixture",
) -> Sketch:
    """Alternating deterministic text and variables over the given alphabet.

    OneOf variables get a token budget of longest member + 1 so that EOS
    after a complete member always fits, which keeps every instance
    satisfiable under any decoder.
    """

    def det_text() -> str:
        return "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))

    n_vars = rng.randint(1, max_vars)
    chunks: list[Chunk] = [Chunk.det(det_text())]
    for i in range(n_vars):
        if allow_one_of and rng.random() < 0.5:
            members = _random_members(rng, letters)
            spec = VariableSpec(
                name=f"V{i}",
                one_of=OneOf(members),
                max_tokens=max(len(m) for m in members) + 1,
            )
        else:
            stop = (rng.choice(letters),) if rng.random() < 0.7 else ()
            spec = VariableSpec(
                name=f"V{i}", stop_phrases=stop, max_tokens=rng.randint(2, 5)
            )
        chunks.append(Chunk.variable(spec))
        if rng.random() < 0.8 or i == n_vars - 1:
            chunks.append(Chunk.det(det_text()))
    return Sketch(name=name, chunks=tuple(chunks))


def random_fixture(seed: int) -> tuple[Sketch, StateTableLM]:
    rng = random.Random(seed)
    return random_sketch(rng), random_backend(seed)


def isolated_greedy(sketch: Sketch, backend) -> tuple[str, dict, tuple, float]:
    """Stop-and-go reference: each variable completed greedily in isolation.

    Returns (text, values, tokens, raw): the rendered template, the variable
    values, the full token sequence, and the summed log-probability.
    """
    prefix: list[int] = []
    pieces: list[str] = []
    values: dict[str, str] = {}
    raw = 0.0
    for chunk in sketch.chunks:
        if chunk.is_det:
            toks = backend.tokenize(chunk.text)
            raw += ordered_sum(backend.score_forced(prefix, toks))
            prefix.extend(toks)
            pieces.append(chunk.text)
            continue
        spec = chunk.var
        state = MaskState.start(spec)
        while True:
            mask = compute_mask(state, backend.vocab)
            dist = backend.next_distribution(prefix)
            token, logprob = next((t, lp) for t, lp in dist.entries if t in mask)
            prefix.append(token)
            raw += logprob
            state, verdict = advance(
                state, token, backend.vocab, spec.stop_phrases, spec.max_tokens
            )
            if verdict.closes_chunk:
                break
        values[spec.name] = state.partial_value
        pieces.append(state.partial_value)
    return "".join(pieces), values, tuple(prefix), raw


def small_oracle_fixture(seed: int) -> tuple[Sketch, StateTableLM]:
    """Instance small enough for exhaustive enumeration (hundreds of paths)."""
    rng = random.Random(seed)
    letters = "ab"
    backend = random_backend(seed, letters=letters, merges=("ab",))
    chunks: list[Chunk] = [Chunk.det(rng.choice(letters))]
    for i in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            members = _random_members(rng, letters)
            spec = VariableSpec(
                name=f"V{i}",
                one_of=OneOf(members),
                max_tokens=max(len(m) for m in members) + 1,
            )
        else:
            stop = (rng.choice(letters),) if rng.random() < 0.5 else ()
            spec = VariableSpec(
                name=f"V{i}", stop_phrases=stop, max_tokens=rng.randint(2, 3)
            )
        chunks.append(Chunk.variable(spec))
        chunks.append(Chunk.det(rng.choice(letters)))
    return Sketch(name="oracle-fixture", chunks=tuple(chunks)), backend


class YieldingDict(dict):
    """A dict that lets other threads run between making an iterator and
    reading it, and before deleting a key, which widens the windows in
    which an unguarded eviction (``del d[next(iter(d))]``) meets another
    thread's insert or eviction."""

    def __iter__(self):
        keys = super().__iter__()
        time.sleep(0)
        return keys

    def __delitem__(self, key):
        time.sleep(0)
        super().__delitem__(key)


def run_threads(work, orders) -> list[Exception]:
    """Run ``work(name, order)`` in one thread per order, named by its
    position, switching threads often so that one thread's memo insert
    lands inside another's eviction, and return what the threads raised."""
    errors = []

    def run(name, order):
        try:
            work(name, order)
        except Exception as e:  # noqa: BLE001 - returned to the caller
            errors.append(e)

    threads = [threading.Thread(target=run, args=args) for args in enumerate(orders)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return errors
