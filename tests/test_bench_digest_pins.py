"""The pinned ``--quick`` digests CI compares ``python3 -m bench`` against."""

import json
from pathlib import Path

import pytest

from check_bench_digests import PINNED, main, moved_digests

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quick_results(digests: dict[str, str]) -> list[dict]:
    return [
        {"workload": name, "digest": digest, "quick": True, "seed": 1}
        for name, digest in digests.items()
    ]


def test_every_declared_workload_is_pinned():
    declared = [workload["name"] for workload in json.loads(SPEC.read_text())["workloads"]]
    assert sorted(json.loads(PINNED.read_text())) == sorted(declared)


def test_a_moved_or_missing_digest_is_named():
    pinned = json.loads(PINNED.read_text())
    assert moved_digests(quick_results(pinned)) == []
    moved = dict(pinned, shard_ring="0" * 64)
    del moved["hot_cache"]
    assert [line.split(":")[0] for line in moved_digests(quick_results(moved))] == [
        "hot_cache",
        "shard_ring",
    ]


def test_only_quick_seed_1_results_compare():
    [result] = quick_results({"shard_ring": "0" * 64})
    with pytest.raises(ValueError):
        moved_digests([dict(result, seed=2)])
    with pytest.raises(ValueError):
        moved_digests([dict(result, quick=False)])


def test_main_exits_nonzero_and_prints_each_moved_workload(tmp_path, capsys):
    pinned = json.loads(PINNED.read_text())
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(quick_results(pinned)))
    assert main([str(path)]) == 0
    assert capsys.readouterr().out == ""
    path.write_text(json.dumps(quick_results(dict(pinned, conj_optimizer="0" * 64))))
    assert main([str(path)]) == 1
    assert capsys.readouterr().out.startswith("conj_optimizer: digest 000")
