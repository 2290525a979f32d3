"""sketchdec decode benchmark.

    python3 perfbench/run.py --workload dungeon-walk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout: the library is imported from
``src/``.  Load is a closed loop with one caller in one process: the next
decode starts only after the previous one returns.

Each run builds the workload once, decodes every item once to check it, and
measures.  With ``--trace 0`` it makes whole passes over the items in seeded
orders until ``--seconds`` have passed and ``MIN_DECODES`` decodes were
made, times set-up in fresh interpreters between them, and prints the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and
traced passes over the item list for ``--seconds`` and prints the per-layer
metrics: counts from the first traced pass, times as the median over traced
passes.  Human-readable lines come first; the last line of standard output
is one JSON object.  Reports and spans are written under ``.perfbench_out/``.
"""
import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("dungeon-walk", "short-sketch", "large-vocab", "remote-mock")
SETUP_REPEATS = 5  # at least; one more per SETUP_EVERY_S of measuring
SETUP_EVERY_S = 2.5
MIN_DECODES = 100  # so that 10 lie beyond the p90
RESCORE_TOLERANCE = 1e-9
CALIBRATE_EVERY_S = 0.1


def load_library():
    """Import sketchdec from this checkout's ``src/`` and the bench modules."""
    if not (SRC / "sketchdec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sketchdec sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import sketchdec

    if Path(sketchdec.__file__).resolve().parent != SRC / "sketchdec":
        raise SystemExit(f"perfbench: imported sketchdec from {sketchdec.__file__}")
    import hostspeed
    import tracing
    import workloads
    from sketchdec.decoders import decode

    return decode, hostspeed, tracing, workloads


# --- correctness ---------------------------------------------------------------


def digest(result, vocab) -> str:
    """Best tokens (as text), bindings and raw_score float bits."""
    best = result.best
    payload = json.dumps(
        [
            [vocab.token_text(t) for t in best.tokens],
            [[b.name, b.value] for b in result.bindings],
            best.raw_score.hex(),
        ],
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def rescore(item, result) -> float:
    """Sum of the reference model's forced scores over the best tokens."""
    tokens = result.best.tokens
    ref = item.reference_lm
    if ref is not item.backend:
        text = item.backend.vocab.token_text
        tokens = [ref.vocab.index_of(text(t)) for t in tokens]
        if None in tokens:
            return float("nan")
    return sum(ref.score_forced((), tokens))


def committed_digests(workload: str, seed: int) -> list[str] | None:
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


class Tally:
    """Decodes attempted and the ways they failed."""

    def __init__(self):
        self.attempted = 0
        self.errors = 0
        self.mismatches = 0
        self.rescore_failures = 0

    @property
    def failed(self) -> int:
        return self.errors + self.mismatches + self.rescore_failures

    def error(self, item) -> None:
        self.errors += 1
        if self.errors == 1:
            print(f"perfbench: decode of {item.key} raised", file=sys.stderr)
            traceback.print_exc()


def timed_decode(decode, item, tally: Tally, backend=None, config=None):
    """One decode: (latency in seconds, result), or (None, None) if it raised."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = decode(item.source, backend or item.backend, config or item.config)
    except Exception:  # noqa: BLE001 - every failure is counted and shown
        tally.error(item)
        return None, None
    return time.perf_counter() - start, result


def checked_decode(decode, item, tally: Tally, expected, backend=None, config=None):
    """A timed decode whose output must match the ``expected`` digest."""
    latency, result = timed_decode(decode, item, tally, backend, config)
    if result is not None and digest(result, item.backend.vocab) != expected:
        tally.mismatches += 1
    return latency, result


def reference_pass(decode, wl, tally: Tally, committed: list[str] | None):
    """Decode every item once and check it.

    Returns the digests later decodes must reproduce (the committed ones
    when this seed is recorded) and the task checker's success count.
    """
    digests: list[str | None] = []
    successes = 0
    for item in wl.items:
        _, result = timed_decode(decode, item, tally)
        if result is None:
            digests.append(None)
            continue
        digests.append(digest(result, item.backend.vocab))
        error = abs(rescore(item, result) - result.best.raw_score)
        if not error <= RESCORE_TOLERANCE:  # a NaN re-score fails too
            tally.rescore_failures += 1
        if item.check(result):
            successes += 1
    if committed is not None:
        if len(committed) != len(digests):
            raise SystemExit("perfbench: committed digests do not fit the workload")
        tally.mismatches += sum(c != d for c, d in zip(committed, digests))
        digests = committed
    return digests, successes


# --- phases --------------------------------------------------------------------


def probe_setup(name: str, seed: int) -> None:
    """Import the library, build the workload and print the seconds taken;
    run in a fresh interpreter by ``setup_time``."""
    start = time.perf_counter()
    wl = load_library()[3].build(name, seed, SRC)
    print(time.perf_counter() - start)
    wl.close()


def setup_time(hostspeed, name: str, seed: int) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import the library and build the
    workload: n-gram counting, table row checks, large-vocab generation and
    the mock service's start.  Returns them as measured and scaled to the
    reference host speed by ``hostspeed.import_time`` timed just after."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "run.probe_setup(sys.argv[2], int(sys.argv[3]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE), name, str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    measured = float(out.stdout)
    return measured, measured * hostspeed.IMPORT_REFERENCE_S / hostspeed.import_time()


def measure(decode, hostspeed, wl, seed: int, seconds: float, tally, expected):
    """Closed loop of whole passes over the items, each pass in a seeded
    order, until ``seconds`` have passed and ``MIN_DECODES`` decodes were
    attempted.

    Set-up is timed by ``setup_time`` between segments, once per
    ``SETUP_EVERY_S`` and at least ``SETUP_REPEATS`` times, so that the
    probes meet the host in more than one of its phases.

    Times are scaled to the reference host speed: whenever
    ``CALIBRATE_EVERY_S`` of decoding has passed, the host-speed kernel is
    timed, and the decode latencies and the loop's wall time since the last
    timing are scaled by ``REFERENCE_S`` over the mean of the kernel times
    before and after them.  Percentiles are over every decode that
    completed; throughput is completed decodes over the loop's scaled wall
    time, without the kernel's own time.

    Returns the end-to-end timings and, apart, the figures behind them.
    """
    rng = random.Random(f"{wl.name}-{seed}-order")
    order = list(range(len(wl.items)))
    scaled: list[float] = []
    raw: list[float] = []
    pending: list[float] = []
    wall = 0.0
    setups: list[tuple[float, float]] = []  # (measured, scaled)

    def calibrate(before: float, segment_start: float) -> float:
        nonlocal wall
        segment = time.perf_counter() - segment_start
        after = hostspeed.kernel_time()
        scale = hostspeed.REFERENCE_S / ((before + after) / 2)
        scaled.extend(latency * scale for latency in pending)
        pending.clear()
        wall += segment * scale
        return after

    kernel_s = hostspeed.kernel_time()
    segment_start = next_setup = time.perf_counter()
    deadline = segment_start + seconds
    attempted = 0
    since = 0.0
    while attempted < MIN_DECODES or time.perf_counter() < deadline:
        rng.shuffle(order)
        for i in order:
            attempted += 1
            latency, _ = checked_decode(decode, wl.items[i], tally, expected[i])
            if latency is None:
                continue
            raw.append(latency)
            pending.append(latency)
            since += latency
            if since >= CALIBRATE_EVERY_S:
                kernel_s = calibrate(kernel_s, segment_start)
                if time.perf_counter() >= next_setup:
                    setups.append(setup_time(hostspeed, wl.name, seed))
                    next_setup = time.perf_counter() + SETUP_EVERY_S
                segment_start = time.perf_counter()
                since = 0.0
    calibrate(kernel_s, segment_start)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(hostspeed, wl.name, seed))
    if len(raw) < 2:
        raise SystemExit(f"perfbench: only {len(raw)} decodes completed")
    ms = sorted(x * 1e3 for x in scaled)
    raw_ms = sorted(x * 1e3 for x in raw)
    timings = {
        "decodes_per_s": len(ms) / wall,
        "decode_ms_p50": statistics.median(ms),
        "decode_ms_p90": statistics.quantiles(ms, n=10)[-1],
        "setup_s": statistics.median(scaled for _, scaled in setups),
    }
    return timings, {
        "decodes": len(ms),
        "setup_probes": len(setups),
        "unscaled_setup_s": statistics.median(measured for measured, _ in setups),
        "unscaled_ms_p50": statistics.median(raw_ms),
        "unscaled_ms_p90": statistics.quantiles(raw_ms, n=10)[-1],
    }


def run_pass(decode, tracing, wl, tally: Tally, expected, tracer=None) -> float:
    """Decode every item once, in list order; returns the wall time."""
    if wl.session is not None:
        wl.session.tracer = tracer
    start = time.perf_counter()
    if tracer is None:
        for i, item in enumerate(wl.items):
            checked_decode(decode, item, tally, expected[i])
        return time.perf_counter() - start
    sources = {id(item.source): item.source for item in wl.items}.values()
    traced_decode = tracer.wrap("decode", decode)
    with tracing.instrumented(tracer, sources):
        for i, item in enumerate(wl.items):
            tracer.request_id = i
            backend = tracing.BackendProxy(item.backend, tracer)
            config = replace(item.config, record_tree=True)
            _, result = checked_decode(
                traced_decode, item, tally, expected[i], backend, config
            )
            if result is not None:
                tracer.counts["decoders.truncated"] += result.truncated_count
                for node in result.tree.nodes[1:]:  # node 0 is the root
                    tracer.counts["decoders." + node.status] += 1
    wall = time.perf_counter() - start
    if wl.session is not None:
        wl.session.tracer = None
    return wall


def layer_metrics(tracer, wl) -> dict:
    """Per-layer numbers of one traced pass."""
    busy, calls, c = tracer.busy(), tracer.calls(), tracer.counts
    out = {}
    for name in ("lm.next_distribution", "lm.score_forced", "lm.tokenize"):
        out[name + ".calls"] = calls[name]
        out[name + ".s"] = busy.get(name, 0.0)
        if name == "lm.score_forced":
            out[name + ".tokens"] = c["lm.score_forced.tokens"]
    out["lm.prefix_tokens"] = c["lm.prefix_tokens"]
    for name in (
        "constraints.compute_mask",
        "constraints.advance",
        "constraints.mask_start",
        "sketch.pending",
        "scoring.rank_key",
    ):
        out[name + ".calls"] = calls[name]
        out[name + ".s"] = busy.get(name, 0.0)
    scanned = c["constraints.mask_scanned"]
    out["constraints.mask_allowed_ratio"] = (
        c["constraints.mask_allowed"] / scanned if scanned else 0.0
    )
    out["decoders.self_s"] = tracer.self_time("decode")
    for status in ("expanded", "pruned", "forced", "done"):
        out["decoders." + status] = c["decoders." + status]
    tried = c["decoders.expanded"] + c["decoders.pruned"]
    out["decoders.keep_ratio"] = c["decoders.expanded"] / tried if tried else 0.0
    out["decoders.truncated"] = c["decoders.truncated"]
    out["scoring.hypotheses"] = c["scoring.hypotheses"]
    for name in ("requests", "retries", "http_5xx", "bytes_out", "bytes_in"):
        out["remote." + name] = c["remote." + name]
    out["remote.request_s"] = busy.get("remote.request", 0.0)
    out["remote.server_s"] = float(c["remote.server_s"])
    out["remote.registry_size"] = len(wl.remote.vocab) if wl.remote else 0
    return out


def trace_run(decode, tracing, wl, seconds: float, tally: Tally, expected):
    """Untraced and traced passes, alternating, for ``seconds``."""
    untraced, traced, per_pass = [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run_pass(decode, tracing, wl, tally, expected))
        tracer = tracing.Tracer()
        traced.append(run_pass(decode, tracing, wl, tally, expected, tracer))
        per_pass.append(layer_metrics(tracer, wl))
        if first is None:
            first = tracer
    metrics = dict(per_pass[0])
    for name in metrics:
        if name.endswith(".s") or name.endswith("_s"):
            metrics[name] = statistics.median(p[name] for p in per_pass)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(
        untraced
    )
    return metrics, first, len(traced)


# --- reporting -----------------------------------------------------------------


def emit(args, metrics: dict, tally: Tally, extra: dict) -> int:
    """Print the report; BENCHMARK.json names the metrics and their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        raise SystemExit(
            f"perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    correct = tally.failed == 0
    attempted = max(tally.attempted, 1)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": tally.errors / attempted,
        "mismatch_rate": tally.mismatches / attempted,
        "rescore_failures": tally.rescore_failures,
        **extra,
    }
    for key, value in summary.items():
        print(f"# {key} = {value}")
    metrics = {name: metrics[name] for name in units}  # BENCHMARK.json order
    for name, value in metrics.items():
        print(f"{name:36s} {value:>16.6g} {units[name]}")
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(
        json.dumps({"summary": summary, "metrics": metrics}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def run_one(args) -> int:
    decode, hostspeed, tracing, workloads = load_library()
    wl = workloads.build(args.workload, args.seed, SRC)
    try:
        tally = Tally()
        committed = committed_digests(args.workload, args.seed)
        expected, successes = reference_pass(decode, wl, tally, committed)
        extra = {
            "reference": "committed" if committed is not None else "first pass",
            **wl.info,
        }
        if args.trace:
            metrics, tracer, passes = trace_run(
                decode, tracing, wl, args.seconds, tally, expected
            )
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
            extra["traced_passes"] = passes
            return emit(args, metrics, tally, extra)
        timings, details = measure(
            decode, hostspeed, wl, args.seed, args.seconds, tally, expected
        )
        extra.update(details)
        metrics = {
            **timings,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "task_success_rate": successes / len(wl.items),
        }
        return emit(args, metrics, tally, extra)
    finally:
        wl.close()


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sketchdec decode benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
