"""3x3 grid completion task: place digits 1-9 uniquely.

The backend prefers low digits and heavily penalizes any digit already in
the prefix.  Instances are built from blank/fixed pairs: each blank's
correct digit is the second-smallest unplaced digit while the immediately
following fixed cell holds the smallest, so a greedy decoder grabs the
smallest digit at the blank and collides with the very next fixed cell.
A width-2 search keeps the runner-up digit alive, sees the collision in
the forced chunk's score, and recovers every time.

The backend's row after a text depends only on the set of digits in it,
so it keeps one row per digit set (a ``StateTableLM``): built on the
set's first read and kept for the backend's life, at most 512 rows.
Forced scoring takes the set of each grown text, so a forced digit is
scored against every digit before it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from ..decoders import DecoderConfig, decode
from ..lm import StateTableLM, Vocabulary, ordered_sum
from ..sketch import Bindings, Chunk, OneOf, Sketch, VariableSpec

DIGITS = tuple(str(d) for d in range(1, 10))
_DIGIT_SET = frozenset(DIGITS)
DIGIT_PREFERENCE = 0.75  # p(d) falls geometrically with the digit
USED_PENALTY = 1e-9
DIGIT_MASS = 0.94
SPACE_MASS = 0.03
NEWLINE_MASS = 0.02
EOS_MASS = 0.01


@cache
def sudoku_vocab() -> Vocabulary:
    """One vocabulary for every instance's backend, so that the decoders'
    OneOf index, kept on the vocabulary, serves them all."""
    return Vocabulary(tokens=("",) + DIGITS + (" ", "\n"), eos_index=0)


def _row(prefix: str) -> list[float]:
    used = {ch for ch in prefix if ch.isdigit()}
    weights = [
        (DIGIT_PREFERENCE**i) * (USED_PENALTY if d in used else 1.0)
        for i, d in enumerate(DIGITS)
    ]
    total = ordered_sum(weights)
    row = [EOS_MASS]
    row.extend(DIGIT_MASS * w / total for w in weights)
    row.extend((SPACE_MASS, NEWLINE_MASS))
    return row


def sudoku_backend() -> StateTableLM:
    """One kept row per digit set: the set of digits in the text."""
    return StateTableLM(sudoku_vocab(), _DIGIT_SET.intersection, _row)


@dataclass(frozen=True)
class SudokuInstance:
    """A 3x3 grid: nine cells in reading order, None marking a blank."""

    cells: tuple[str | None, ...]
    solution: tuple[str, ...]
    blanks: tuple[int, ...]

    def __post_init__(self):
        if len(self.cells) != 9:
            raise ValueError("grid must have exactly 9 cells")
        fixed = [c for c in self.cells if c is not None]
        if len(set(fixed)) != len(fixed):
            raise ValueError("fixed digits must be unique")
        if not self.blanks:
            raise ValueError("instance needs at least one blank")
        if set(self.solution) != set(DIGITS):
            raise ValueError("solution must place each digit exactly once")


def _separator(position: int) -> str:
    return "\n" if position % 3 == 2 else " "


def build_sketch(instance: SudokuInstance) -> Sketch:
    chunks: list[Chunk] = []
    det_buffer = ""
    for pos, cell in enumerate(instance.cells):
        if cell is None:
            if det_buffer:
                chunks.append(Chunk.det(det_buffer))
                det_buffer = ""
            chunks.append(
                Chunk.variable(
                    VariableSpec(
                        name=f"C{pos + 1}",
                        one_of=OneOf(members=DIGITS),
                        max_tokens=1,
                    )
                )
            )
        else:
            det_buffer += cell
        det_buffer += _separator(pos)
    if det_buffer:
        chunks.append(Chunk.det(det_buffer))
    return Sketch(name="sudoku", chunks=tuple(chunks))


def gen_sudoku(seed: int, blanks: int) -> tuple[SudokuInstance, Sketch, StateTableLM]:
    """Adversarial instance with the requested number of blanks (1-6).

    Layout grammar: blank/fixed trap pairs, optional interleaved fixed
    cells, then any remaining blanks at the very end where every unplaced
    digit is an acceptable answer.
    """
    if not 1 <= blanks <= 6:
        raise ValueError("blanks must lie in 1..6")
    rng = random.Random(seed)
    remaining = list(DIGITS)
    rng_order = list(DIGITS)
    rng.shuffle(rng_order)

    if blanks == 1:
        fixed = rng_order[:8]
        last = next(d for d in DIGITS if d not in fixed)
        cells: list[str | None] = list(fixed) + [None]
        solution = tuple(fixed) + (last,)
        instance = SudokuInstance(cells=tuple(cells), solution=solution, blanks=(8,))
        return instance, build_sketch(instance), sudoku_backend()

    n_pairs = {2: 2, 3: 3, 4: 4, 5: 4, 6: 3}[blanks]
    n_free = blanks - n_pairs  # trailing blanks, only after all fixed cells
    n_loose = 9 - 2 * n_pairs - n_free  # interleavable fixed cells
    units: list[str] = ["pair"] * n_pairs + ["loose"] * n_loose
    rng.shuffle(units)
    units += ["free"] * n_free

    cells = []
    solution_cells: list[str] = []
    blank_positions: list[int] = []
    for unit in units:
        if unit == "pair":
            bait = min(remaining)
            remaining.remove(bait)
            correct = min(remaining)
            remaining.remove(correct)
            blank_positions.append(len(cells))
            cells.append(None)
            solution_cells.append(correct)
            cells.append(bait)
            solution_cells.append(bait)
        elif unit == "loose":
            pick = rng.choice(remaining)
            remaining.remove(pick)
            cells.append(pick)
            solution_cells.append(pick)
        else:  # free blank: any unplaced digit completes the grid
            pick = min(remaining)
            remaining.remove(pick)
            blank_positions.append(len(cells))
            cells.append(None)
            solution_cells.append(pick)
    instance = SudokuInstance(
        cells=tuple(cells),
        solution=tuple(solution_cells),
        blanks=tuple(blank_positions),
    )
    return instance, build_sketch(instance), sudoku_backend()


def solved(instance: SudokuInstance, bindings: Bindings) -> bool:
    """Independent uniqueness scan: nine values covering 1-9 exactly."""
    values: list[str] = []
    for pos, cell in enumerate(instance.cells):
        if cell is None:
            name = f"C{pos + 1}"
            if name not in bindings:
                return False
            values.append(bindings.value(name))
        else:
            values.append(cell)
    return sorted(values) == sorted(DIGITS)


SUITE_BLANKS = (1, 2, 2, 3, 3, 4, 4, 5, 5, 6)


def suite(seed: int = 0) -> list[tuple[SudokuInstance, Sketch, StateTableLM]]:
    """The 10-instance benchmark suite, blanks ranging over 1-6."""
    return [
        gen_sudoku(seed * 1000 + i, blanks)
        for i, blanks in enumerate(SUITE_BLANKS)
    ]


@dataclass(frozen=True)
class SudokuReport:
    decoder: str
    width: int
    solved_count: int
    total: int
    mean_normalized_score: float


def run_sudoku_task(
    configs: list[DecoderConfig] | None = None,
    seed: int = 0,
) -> list[SudokuReport]:
    configs = configs or [
        DecoderConfig(kind="argmax", width=1),
        DecoderConfig(kind="var", width=2, proposal="branch"),
        DecoderConfig(kind="beamvar", width=2),
    ]
    instances = suite(seed)
    reports = []
    for config in configs:
        wins = 0
        norms = []
        for instance, sketch, backend in instances:
            result = decode(sketch, backend, config)
            if solved(instance, result.bindings):
                wins += 1
            norms.append(result.best.normalized_score(config.score))
        reports.append(
            SudokuReport(
                decoder=config.kind,
                width=config.width,
                solved_count=wins,
                total=len(instances),
                mean_normalized_score=ordered_sum(norms) / len(norms),
            )
        )
    return reports
