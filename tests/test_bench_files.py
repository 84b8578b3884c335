"""The committed BENCH_*.json records share one layout and name real metrics."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_layout(path):
    record = json.loads(path.read_text())
    for key in ("change", "parent_commit", "machine", "claimed", "not_claimed"):
        assert key in record, key
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"])
    claimed = record["claimed"]
    if claimed is None:
        return
    for key in ("command", "method", "results"):
        assert key in claimed, key
    assert claimed["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert claimed["metric"] in {m["name"] for m in BENCHMARK["end_to_end"]}
