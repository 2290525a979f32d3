"""Seeded large-vocabulary fixture: a ~4,000-token vocabulary, OneOf sets of
hundreds of multi-token members, and an order-2 n-gram model.

At this vocabulary size every constrained step scans the whole vocabulary in
``compute_mask``, every ``MaskState.start`` builds a trie over hundreds of
members, and every ``next_distribution`` sorts thousands of entries, which is
the cost the small bundled fixtures never show.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from sketchdec.lm import NGramLM, Vocabulary
from sketchdec.sketch import Chunk, OneOf, Sketch, VariableSpec

LETTERS = "abcdefghijklmnopqrstuvwxyz"
PUNCTUATION = (" ", ": ", ", ", ".", "\n")
THREE_LETTER_PIECES = 2000
FOUR_LETTER_PIECES = 1290
MEMBER_COUNTS = (320, 240)  # members of the two OneOf variables
SKETCHES = 12
CORPUS_LINES = 400
STOP = "."


@dataclass(frozen=True)
class LargeVocabFixture:
    vocab: Vocabulary
    backend: NGramLM
    sketches: tuple[Sketch, ...]
    corpus_tokens: int

    def describe(self) -> dict:
        """Size figures recorded in the benchmark report."""
        member_tokens = [
            len(segment(self.vocab, m))
            for sk in self.sketches
            for v in sk.variables
            if v.one_of is not None
            for m in v.one_of.members
        ]
        return {
            "vocab_size": len(self.vocab),
            "member_counts": [
                len(v.one_of.members)
                for v in self.sketches[0].variables
                if v.one_of is not None
            ],
            "member_tokens_min": min(member_tokens),
            "member_tokens_mean": sum(member_tokens) / len(member_tokens),
            "member_tokens_max": max(member_tokens),
            "corpus_tokens": self.corpus_tokens,
        }


def segment(vocab: Vocabulary, text: str) -> list[int]:
    """Longest-match segmentation, equal to ``greedy_tokenize`` for this
    vocabulary.  Pieces are at most four characters, so four dictionary
    lookups per position replace a scan of the whole vocabulary."""
    out = []
    pos = 0
    while pos < len(text):
        for n in (4, 3, 2, 1):
            index = vocab.index_of(text[pos : pos + n])
            if index is not None and index != vocab.eos_index:
                out.append(index)
                pos += n
                break
        else:
            raise ValueError(f"cannot segment {text!r} at {pos}")
    return out


def _pieces(rng: random.Random, length: int, count: int) -> list[str]:
    picks = rng.sample(range(len(LETTERS) ** length), count)
    out = []
    for n in sorted(picks):
        chars = []
        for _ in range(length):
            n, r = divmod(n, len(LETTERS))
            chars.append(LETTERS[r])
        out.append("".join(chars))
    return out


def _words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        # lengths 4-7 in turn, so that every seed decodes words of one mix
        length = 4 + len(words) % 4
        w = "".join(rng.choice(LETTERS) for _ in range(length))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _line(a: str, b: str, note: str) -> str:
    return f"\n{a}, {b}: {note}."


def build(seed: int, part: int) -> LargeVocabFixture:
    """Fixture ``part`` of one benchmark seed; equal arguments give equal
    fixtures."""
    rng = random.Random(f"large-vocab-{seed}-{part}")
    tokens = (
        [""]
        + list(PUNCTUATION)
        + list(LETTERS)
        + ["".join(p) for p in product(LETTERS, repeat=2)]
        + _pieces(rng, 3, THREE_LETTER_PIECES)
        + _pieces(rng, 4, FOUR_LETTER_PIECES)
    )
    vocab = Vocabulary(tuple(tokens), eos_index=0)
    taken: set[str] = set()
    pools = [_words(rng, n, taken) for n in MEMBER_COUNTS]
    notes = _words(rng, 60, taken)

    corpus: list[int] = []
    for _ in range(CORPUS_LINES):
        line = _line(rng.choice(pools[0]), rng.choice(pools[1]), rng.choice(notes))
        corpus.extend(segment(vocab, line))
    backend = NGramLM(vocab, order=2, corpus_tokens=corpus)

    sketches = []
    for i in range(SKETCHES):
        # each sketch constrains its slots to a different half of the pools
        members = [tuple(rng.sample(pool, len(pool) // 2)) for pool in pools]
        sketches.append(
            Sketch(
                name=f"large-vocab-{i}",
                chunks=(
                    Chunk.det("\n"),
                    Chunk.variable(
                        VariableSpec(name="A", one_of=OneOf(members[0]), max_tokens=7)
                    ),
                    Chunk.det(", "),
                    Chunk.variable(
                        VariableSpec(name="B", one_of=OneOf(members[1]), max_tokens=7)
                    ),
                    Chunk.det(": "),
                    Chunk.variable(
                        VariableSpec(name="NOTE", stop_phrases=(STOP,), max_tokens=3)
                    ),
                ),
            )
        )
    return LargeVocabFixture(vocab, backend, tuple(sketches), len(corpus))
