"""The committed ``BENCH_<n>.json`` perf records stay machine-readable."""
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = {"change", "parent_commit", "command", "method", "seeds", "claim", "workloads"}


def test_every_bench_record_parses_and_carries_its_fields():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record, dict), path.name
        missing = FIELDS - record.keys()
        assert not missing, f"{path.name} lacks {sorted(missing)}"
