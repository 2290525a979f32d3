"""Host-speed adjustment for latencies measured on a shared host.

Other tenants' load changes how fast this host runs Python by up to 2×, in
phases of seconds to minutes -- longer than a benchmark run.  The benchmark
therefore times a fixed pure-Python kernel, which shares no code with
sketchdec, between decodes, and scales each decode's latency by
``REFERENCE_S`` over the kernel time around it.  The kernel mimics a
decoder's inner loop (string joins, dictionary lookups, sorts of scored
pairs, tuple growth) so that load slows it as it slows a decode.

Set-up time is scaled the same way by ``import_time``, a fresh interpreter's
import of a fixed set of standard-library modules: like the library's own
import, it is mostly file reads and loading of compiled extensions, which
the kernel does not track.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter

# the kernel's time on a 2-core x86-64 VM under CPython 3.11 (median of 500
# timings 2.8 ms, fastest 2.4 ms); it sets only the scale of the results
REFERENCE_S = 0.0025
# ``import_time`` on the same VM in its faster phases (0.05-0.06 s)
IMPORT_REFERENCE_S = 0.055
_IMPORT_CODE = (
    "import time; t = time.perf_counter(); "
    "import asyncio, csv, decimal, email.mime.multipart, http.client, logging, "
    "sqlite3, ssl, unittest, xml.dom.minidom, zipfile; "
    "print(time.perf_counter() - t)"
)

_VOCAB = tuple(f"tok{i}" for i in range(64))
_ROW = 512  # scored entries per row, sorted like a next-token distribution


def kernel(rounds: int = 8) -> int:
    table: dict[str, list[float]] = {}
    acc = 0
    hyp: tuple[int, ...] = ()
    for r in range(rounds):
        prefix = "".join(_VOCAB[(r * 7 + j) % 64] for j in range(r % 24))
        row = table.get(prefix)
        if row is None:
            row = [((i * 2654435761 + r) % 1000) / 1000.0 for i in range(_ROW)]
            table[prefix] = row
        pairs = sorted(enumerate(row), key=lambda p: (-p[1], p[0]))
        hyp = hyp + (pairs[0][0],)
        acc += len(hyp) + int(pairs[1][1] * 10)
    return acc


def kernel_time() -> float:
    """Seconds the kernel takes now: the fastest of three runs, so that one
    interrupted run does not count."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def import_time() -> float:
    """Seconds a fresh interpreter takes to import ``_IMPORT_CODE``'s
    standard-library modules."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_CODE],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    return float(out.stdout)
