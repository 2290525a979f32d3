"""The benchmark's four workloads, each built from the benchmark seed.

A workload is a list of items -- one decode each: a chunk source, a backend,
a decoder configuration, the task's own independent checker, and the local
model used to re-score the result.  The program under test sees only these
generated inputs.
"""
from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from sketchdec.decoders import DecodeResult, DecoderConfig
from sketchdec.remote import RemoteCompletionsLM
from sketchdec.sketch import StaticSketchSource
from sketchdec.tasks import dungeon, fig1, jsonfmt, sudoku

import largevocab
from mock_service import FAIL_EVERY, SERVICE_DELAY_MS
from tracing import TimingSession

HERE = Path(__file__).resolve().parent

# remote-mock: the backend's backoff after the mock's injected 500s
BACKOFF_S = 0.002


@dataclass
class Item:
    key: str
    source: object
    backend: object
    config: DecoderConfig
    check: Callable[[DecodeResult], bool]
    reference_lm: object  # local model for the independent re-score


@dataclass
class Workload:
    name: str
    items: list[Item]
    info: dict = field(default_factory=dict)
    remote: RemoteCompletionsLM | None = None
    session: TimingSession | None = None
    close: Callable[[], None] = lambda: None


def build(name: str, seed: int, src: Path) -> Workload:
    if name == "dungeon-walk":
        return dungeon_walk(seed)
    if name == "short-sketch":
        return short_sketch(seed)
    if name == "large-vocab":
        return large_vocab(seed)
    if name == "remote-mock":
        return remote_mock(seed, src)
    raise ValueError(f"unknown workload {name!r}")


def _info(items: list[Item]) -> dict:
    kinds: dict[str, int] = {}
    for item in items:
        kinds[item.config.kind] = kinds.get(item.config.kind, 0) + 1
    return {"items": len(items), "decoder_kinds": kinds}


# --- dungeon-walk --------------------------------------------------------------


def dungeon_walk(seed: int) -> Workload:
    """Dynamic transcripts of several hundred forced character tokens."""
    items = []
    for n, instance in enumerate(dungeon.suite(seed)):
        backend = dungeon.dungeon_backend(instance)
        source = dungeon.dungeon_source(instance)

        def reaches_exit(result, instance=instance):
            actions = [b.value for b in result.bindings]
            return dungeon.replay_actions(instance, actions) is not None

        for kind, width in (("argmax", 1), ("beamvar", 2), ("var", 2)):
            items.append(
                Item(
                    key=f"dungeon/{n}/{kind}-w{width}",
                    source=source,
                    backend=backend,
                    config=DecoderConfig(kind=kind, width=width, seed=seed),
                    check=reaches_exit,
                    reference_lm=backend,
                )
            )
    return Workload("dungeon-walk", items, _info(items))


# --- short-sketch --------------------------------------------------------------

# every decoder kind and var proposal; exhaustive only where all slots are OneOf
_SHORT_KINDS = (
    ("argmax", "branch"),
    ("beam", "branch"),
    ("var", "branch"),
    ("var", "sample"),
    ("var", "exhaustive"),
    ("beamvar", "branch"),
)


def _no_duplicate(result) -> bool:
    return not fig1.has_duplicate(fig1.parse_items(result.text))


def _json_matches(record):
    def check(result) -> bool:
        obj = jsonfmt.extract_json(result.text)
        return obj == {"name": record.name, "age": record.age, "city": record.city}

    return check


def short_sketch(seed: int) -> Workload:
    """Millisecond decodes over the bundled task fixtures."""
    table = fig1.fig1_backend()
    ngram = jsonfmt.ngram_backend()
    sketches = [
        ("fig1", fig1.fig1_sketch(), table, _no_duplicate, False),
        ("list4", fig1.list4_sketch(), table, _no_duplicate, False),
    ]
    for n, (instance, sketch, backend) in enumerate(sudoku.suite(seed)):
        solved = lambda r, instance=instance: sudoku.solved(instance, r.bindings)
        sketches.append((f"sudoku{n}", sketch, backend, solved, True))
    for record in jsonfmt.RECORDS:
        sketch = jsonfmt.build_sketch(record)
        check = _json_matches(record)
        name = record.name.lower()
        sketches.append((f"json-table-{name}", sketch, jsonfmt.record_backend(record), check, True))
        sketches.append((f"json-ngram-{name}", sketch, ngram, check, True))

    items = []
    for i, (name, sketch, backend, check, all_one_of) in enumerate(sketches):
        source = StaticSketchSource(sketch)
        for j, (kind, proposal) in enumerate(_SHORT_KINDS):
            if proposal == "exhaustive" and not all_one_of:
                continue
            # widths 1-8 spread over the sketches, the same for every seed
            width = 1 if kind == "argmax" else 1 + (3 * i + 5 * j) % 8
            items.append(
                Item(
                    key=f"{name}/{kind}-{proposal}-w{width}",
                    source=source,
                    backend=backend,
                    config=DecoderConfig(
                        kind=kind, width=width, proposal=proposal, seed=seed
                    ),
                    check=check,
                    reference_lm=backend,
                )
            )
    return Workload("short-sketch", items, _info(items))


# --- large-vocab ---------------------------------------------------------------


def _members_ok(sketch):
    def check(result) -> bool:
        values = result.bindings.as_dict()
        return all(
            spec.name in values
            and (spec.one_of is None or values[spec.name] in spec.one_of.members)
            for spec in sketch.variables
        )

    return check


# Each fixture's model prefers outputs of its own lengths (one free-slot
# value for all its sketches, at order 2), so the decode steps per item vary
# by fixture; three fixtures per seed average that out.
LARGE_VOCAB_FIXTURES = 3


def large_vocab(seed: int) -> Workload:
    fixtures = [largevocab.build(seed, part) for part in range(LARGE_VOCAB_FIXTURES)]
    items = []
    for part, fixture in enumerate(fixtures):
        for n, sketch in enumerate(fixture.sketches):
            # one decoder kind per sketch, in turn, so that a pass covers
            # many sketches
            kind, width = (("argmax", 1), ("var", 2), ("beamvar", 2))[n % 3]
            items.append(
                Item(
                    key=f"large-vocab/{part}/{n}/{kind}-w{width}",
                    source=StaticSketchSource(sketch),
                    backend=fixture.backend,
                    config=DecoderConfig(kind=kind, width=width, seed=seed),
                    check=_members_ok(sketch),
                    reference_lm=fixture.backend,
                )
            )
    info = {**_info(items), "fixtures": [f.describe() for f in fixtures]}
    return Workload("large-vocab", items, info)


# --- remote-mock ---------------------------------------------------------------


def start_mock(src: Path) -> tuple[subprocess.Popen, int]:
    """Start the mock service in a child process; returns it and its port."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "mock_service.py"), "--src", str(src)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    if not line.strip().isdigit():
        stop_mock(proc)
        raise RuntimeError("mock completions service did not start")
    return proc, int(line)


def stop_mock(proc: subprocess.Popen) -> None:
    try:
        proc.stdin.close()
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()


def remote_mock(seed: int, src: Path) -> Workload:
    """One long-lived HTTP backend against the mock service."""
    proc, port = start_mock(src)
    session = TimingSession()
    remote = RemoteCompletionsLM(
        f"http://127.0.0.1:{port}",
        "mock-model",
        api_key="",
        backoff_base=BACKOFF_S,
        session=session,
    )
    table = fig1.fig1_backend()
    sketches = [
        ("fig1", fig1.fig1_sketch(), table, _no_duplicate),
        ("list4", fig1.list4_sketch(), table, _no_duplicate),
    ]
    for record in jsonfmt.RECORDS:
        sketches.append(
            (
                f"json-{record.name.lower()}",
                jsonfmt.build_sketch(record),
                jsonfmt.record_backend(record),
                _json_matches(record),
            )
        )
    # the first pass runs in this fixed order for every seed: the registry
    # interns tokens in first-seen order, and its indices break ties between
    # equal log-probabilities, so another order can change decode paths
    items = []
    for name, sketch, local, check in sketches:
        source = StaticSketchSource(sketch)
        for kind, width in (("argmax", 1), ("beam", 2), ("var", 2), ("beamvar", 2)):
            items.append(
                Item(
                    key=f"remote/{name}/{kind}-w{width}",
                    source=source,
                    backend=remote,
                    config=DecoderConfig(kind=kind, width=width, seed=seed),
                    check=check,
                    reference_lm=local,
                )
            )

    def close() -> None:
        session.close()
        stop_mock(proc)

    info = {
        **_info(items),
        "service_delay_ms": SERVICE_DELAY_MS,
        "fail_every": FAIL_EVERY,
    }
    return Workload("remote-mock", items, info, remote, session, close)
