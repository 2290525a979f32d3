"""Record the reference output digests for the benchmark's recorded seeds.

    python3 perfbench/record_digests.py

Decodes every item of every workload once per recorded seed and writes
``perfbench/digests.json``.  A run of ``run.py`` on a recorded seed counts
every decode whose output differs from these digests as a mismatch, so
record again only when a change is meant to alter decode outputs.
"""
import json
import sys

import run

RECORDED_SEEDS = range(32)


def main() -> int:
    decode, _, _, workloads = run.load_library()
    lines = []
    for name in run.WORKLOADS:
        rows = []
        for seed in RECORDED_SEEDS:
            wl = workloads.build(name, seed, run.SRC)
            try:
                tally = run.Tally()
                digests, _ = run.reference_pass(decode, wl, tally, None)
            finally:
                wl.close()
            if tally.failed:
                raise SystemExit(f"{name} seed {seed}: {tally.failed} decodes failed")
            rows.append(f'  "{seed}": {json.dumps(digests)}')
        lines.append(f'"{name}": {{\n' + ",\n".join(rows) + "\n}")
    run.DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
