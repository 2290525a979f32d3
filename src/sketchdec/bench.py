"""Benchmark suite runner: manifest in, deterministic report out.

A manifest is a JSON list of run rows; each row names a task and a
decoder configuration.  The runner executes every row, re-validates task
outcomes with the tasks' independent checkers, and renders one report as
JSON plus a plain-text table.  Wall-clock time lives only in the report's
metadata field so the data payload is reproducible under fixed seeds.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

from .decoders import ARGMAX, BEAM, BEAMVAR, VAR, DecoderConfig
from .errors import ManifestError
from .scoring import ScoreParams
from .tasks import dungeon, fig1, jsonfmt, sudoku

REPORT_NOTE = (
    "Synthetic desk-scale backends reproduce the ordering of sketch-aware "
    "vs greedy decoding, not absolute model accuracies."
)

TASKS = ("fig1", "sudoku", "dungeon", "json")
_REQUIRED_KEYS = ("task", "seed", "decoder", "width", "alpha", "beta")
_INTEGER_KEYS = ("seed", "width")
_NUMBER_KEYS = ("alpha", "beta")
# tasks whose fixtures exist for more than one backend kind
_BACKEND_CHOICES = {"fig1": ("table",), "json": ("table", "ngram")}


@dataclass(frozen=True)
class RunReport:
    note: str
    rows: tuple[dict, ...]
    metadata: dict

    def data(self) -> dict:
        """The reproducible payload (metadata holds wall time and may differ)."""
        return {"note": self.note, "rows": list(self.rows)}


def parse_manifest(raw) -> list[dict]:
    if not isinstance(raw, list):
        raise ManifestError("manifest must be a JSON list of run rows")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, dict):
            raise ManifestError(f"row {i} is not an object")
        missing = [k for k in _REQUIRED_KEYS if k not in row]
        if missing:
            raise ManifestError(f"row {i} is missing keys {missing}")
        unknown = [k for k in row if k not in _REQUIRED_KEYS + ("backend",)]
        if unknown:
            raise ManifestError(f"row {i} has unknown keys {unknown}")
        for key in _INTEGER_KEYS:
            if isinstance(row[key], bool) or not isinstance(row[key], int):
                raise ManifestError(f"row {i}: {key!r} must be an integer")
        for key in _NUMBER_KEYS:
            if not _finite_number(row[key]):
                raise ManifestError(f"row {i}: {key!r} must be a finite number")
        if row["task"] not in TASKS:
            raise ManifestError(f"row {i}: unknown task {row['task']!r}")
        if row["decoder"] not in (ARGMAX, BEAM, VAR, BEAMVAR):
            raise ManifestError(f"row {i}: unknown decoder {row['decoder']!r}")
        if "backend" in row:
            choices = _BACKEND_CHOICES.get(row["task"], ())
            if row["backend"] not in choices:
                raise ManifestError(
                    f"row {i}: task {row['task']!r} does not take backend "
                    f"{row['backend']!r}"
                )
        rows.append(row)
    return rows


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def load_manifest(path: str | Path) -> list[dict]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ManifestError(f"cannot read manifest {path}: {e}") from e
    return parse_manifest(raw)


def _config(row: dict) -> DecoderConfig:
    try:
        return DecoderConfig(
            kind=row["decoder"],
            width=int(row["width"]),
            score=ScoreParams(alpha=float(row["alpha"]), beta=float(row["beta"])),
            seed=int(row["seed"]),
        )
    except ValueError as e:
        raise ManifestError(f"bad decoder configuration: {e}") from e


def _run_fig1(row: dict, config: DecoderConfig) -> dict:
    out = fig1.run_fig1_task(configs=[config])[0]
    return {
        "duplicate": out.duplicate,
        "items": list(out.items),
        "normalized_score": out.normalized_score,
    }


def _run_sudoku(row: dict, config: DecoderConfig) -> dict:
    report = sudoku.run_sudoku_task(configs=[config], seed=int(row["seed"]))[0]
    return {
        "solved": report.solved_count,
        "total": report.total,
        "mean_normalized_score": report.mean_normalized_score,
    }


def _run_dungeon(row: dict, config: DecoderConfig) -> dict:
    report = dungeon.run_dungeon_task(configs=[config], seed=int(row["seed"]))[0]
    return {
        "successes": report.successes,
        "total": report.total,
        "mean_steps": report.mean_steps,
        "mean_normalized_score": report.mean_normalized_score,
    }


def _run_json(row: dict, config: DecoderConfig) -> dict:
    report = jsonfmt.run_json_task(
        config=config, backend_kind=row.get("backend", "table")
    )
    return {
        "backend": report.backend,
        "valid": report.valid,
        "correct": report.correct,
        "total": report.total,
        "mean_decoded_tokens": report.mean_decoded_tokens,
        "mean_baseline_tokens": report.mean_baseline_tokens,
    }


_RUNNERS = {
    "fig1": _run_fig1,
    "sudoku": _run_sudoku,
    "dungeon": _run_dungeon,
    "json": _run_json,
}


def run_manifest(rows: list[dict], task_filter: str | None = None) -> RunReport:
    started = time.monotonic()
    out_rows = []
    for row in rows:
        if task_filter is not None and row["task"] != task_filter:
            continue
        config = _config(row)
        metrics = _RUNNERS[row["task"]](row, config)
        echoed = {k: row[k] for k in _REQUIRED_KEYS}
        out_rows.append({**echoed, "metrics": metrics})
    return RunReport(
        note=REPORT_NOTE,
        rows=tuple(out_rows),
        metadata={"wall_time_s": round(time.monotonic() - started, 3)},
    )


def _summary(row: dict) -> str:
    m = row["metrics"]
    task = row["task"]
    if task == "fig1":
        dup = "yes" if m["duplicate"] else "no"
        return f"duplicate={dup} norm={m['normalized_score']:.4f}"
    if task == "sudoku":
        return (
            f"solved={m['solved']}/{m['total']} "
            f"norm={m['mean_normalized_score']:.4f}"
        )
    if task == "dungeon":
        steps = "-" if m["mean_steps"] is None else f"{m['mean_steps']:.1f}"
        return f"success={m['successes']}/{m['total']} steps={steps}"
    baseline = (
        "-"
        if m["mean_baseline_tokens"] is None
        else f"{m['mean_baseline_tokens']:.1f}"
    )
    return (
        f"valid={m['valid']}/{m['total']} correct={m['correct']} "
        f"tokens={m['mean_decoded_tokens']:.1f} vs {baseline}"
    )


def render_text(report: RunReport, include_metadata: bool = True) -> str:
    lines = [report.note, ""]
    header = f"{'task':<8} {'decoder':<8} {'width':>5} {'alpha':>5} {'beta':>4} {'seed':>4}  summary"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.rows:
        lines.append(
            f"{row['task']:<8} {row['decoder']:<8} {row['width']:>5} "
            f"{row['alpha']:>5} {row['beta']:>4} {row['seed']:>4}  {_summary(row)}"
        )
    if include_metadata:
        lines.append("")
        lines.append(f"wall_time_s={report.metadata['wall_time_s']}")
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, manifest_path: str | Path) -> tuple[Path, Path]:
    """Write <manifest>.report.json and <manifest>.report.txt next to the manifest."""
    base = Path(manifest_path)
    json_path = base.with_name(base.name + ".report.json")
    txt_path = base.with_name(base.name + ".report.txt")
    payload = {**report.data(), "metadata": report.metadata}
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    txt_path.write_text(render_text(report), encoding="utf-8")
    return json_path, txt_path
