"""Packing-list repetition task.

A table backend prefers "Frisbee" in every list slot, with a heavy penalty
for items already mentioned.  The template fixes "- Frisbee" as its third
line, so a greedy decoder that picks Frisbee for the first slot collides
with the fixed line and repeats itself; searching decoders keep a runner-up
hypothesis alive and dodge the repetition, ending with a higher template
likelihood.

The backend's row after a text depends only on whether the text is empty,
ends with a dash (and which items it names), ends with a newline, or none
of these, so it keeps one row per such state (a ``StateTableLM``): built
on the state's first read and kept for the backend's life, at most 35
rows.
"""
from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass

from ..decoders import DecoderConfig, decode
from ..lm import StateTableLM, Vocabulary
from ..sketch import Chunk, Sketch, VariableSpec

ITEM_PROBS = (
    ("Frisbee", 0.30),
    ("Camera", 0.26),
    ("Snorkeling gear", 0.22),
    ("Hammock", 0.14),
    ("Snacks", 0.08),
)
HEADER = "Things to bring:"
DASH = "- "
NEWLINE = "\n"
REPEAT_PENALTY = 1e-6
TINY = 1e-9


def fig1_vocab() -> Vocabulary:
    items = tuple(name for name, _ in ITEM_PROBS)
    return Vocabulary(tokens=("",) + items + (NEWLINE, DASH, HEADER), eos_index=0)


def _normalized_row(vocab: Vocabulary, weights: dict[str, float]) -> list[float]:
    raw = [weights.get(t, TINY) if t else weights.get("", TINY) for t in vocab.tokens]
    total = math.fsum(raw)
    return [w / total for w in raw]


def _row(vocab: Vocabulary, prefix: str) -> list[float]:
    if prefix == "":
        return _normalized_row(vocab, {HEADER: 0.97})
    if prefix.endswith(DASH):
        weights: dict[str, float] = {}
        for name, p in ITEM_PROBS:
            weights[name] = p * (REPEAT_PENALTY if name in prefix else 1.0)
        return _normalized_row(vocab, weights)
    if prefix.endswith(NEWLINE):
        return _normalized_row(vocab, {DASH: 0.90, "": 0.08})
    # mid-line: the line just gained an item or the header; close it
    return _normalized_row(vocab, {NEWLINE: 0.97, "": 0.01})


def _state(prefix: str) -> Hashable:
    """What ``_row`` reads of a prefix: whether it is empty, ends with a
    dash (and which items it names), ends with a newline, or none of
    these; 35 states."""
    if prefix == "":
        return ""
    if prefix.endswith(DASH):
        return frozenset(name for name, _ in ITEM_PROBS if name in prefix)
    if prefix.endswith(NEWLINE):
        return NEWLINE
    return None


def fig1_backend() -> StateTableLM:
    vocab = fig1_vocab()
    return StateTableLM(vocab, _state, lambda prefix: _row(vocab, prefix))


def _item_var(name: str) -> VariableSpec:
    return VariableSpec(name=name, stop_phrases=(NEWLINE,), max_tokens=3)


def fig1_sketch() -> Sketch:
    """Four-line packing list with the second line fixed to "- Frisbee".

    The fixed line directly follows ITEM1, so a hypothesis that spent
    Frisbee on the first slot pays the repeat penalty on the very next
    forced chunk, before any later slot is selected.
    """
    return Sketch(
        name="fig1",
        chunks=(
            Chunk.det(HEADER + NEWLINE + DASH),
            Chunk.variable(_item_var("ITEM1")),
            Chunk.det(DASH + "Frisbee" + NEWLINE + DASH),
            Chunk.variable(_item_var("ITEM3")),
            Chunk.det(DASH),
            Chunk.variable(_item_var("ITEM4")),
        ),
    )


def list4_sketch() -> Sketch:
    """Two open slots around a fixed "- Frisbee" line."""
    return Sketch(
        name="list4",
        chunks=(
            Chunk.det(DASH),
            Chunk.variable(
                VariableSpec(name="ITEM1", stop_phrases=(NEWLINE,), max_tokens=8)
            ),
            Chunk.det(DASH + "Frisbee" + NEWLINE + DASH),
            Chunk.variable(
                VariableSpec(name="ITEM3", stop_phrases=(NEWLINE,), max_tokens=8)
            ),
        ),
    )


def parse_items(text: str) -> list[str]:
    """Item names from the rendered dashed list."""
    items = []
    for line in text.split(NEWLINE):
        if line.startswith(DASH) and line[len(DASH) :]:
            items.append(line[len(DASH) :])
    return items


def has_duplicate(items: list[str]) -> bool:
    return len(set(items)) < len(items)


@dataclass(frozen=True)
class Fig1Row:
    decoder: str
    width: int
    items: tuple[str, ...]
    duplicate: bool
    raw_score: float
    normalized_score: float


def run_fig1_task(configs: list[DecoderConfig] | None = None) -> list[Fig1Row]:
    """Decode the packing list with each strategy and report repetitions."""
    if configs is None:
        configs = [
            DecoderConfig(kind=kind, width=width)
            for kind, width in (("argmax", 1), ("beam", 2), ("var", 2), ("beamvar", 2))
        ]
    backend = fig1_backend()
    sketch = fig1_sketch()
    rows = []
    for config in configs:
        result = decode(sketch, backend, config)
        items = parse_items(result.text)
        rows.append(
            Fig1Row(
                decoder=config.kind,
                width=config.width,
                items=tuple(items),
                duplicate=has_duplicate(items),
                raw_score=result.best.raw_score,
                normalized_score=result.best.normalized_score(config.score),
            )
        )
    return rows

