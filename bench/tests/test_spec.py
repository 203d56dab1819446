"""``BENCHMARK.json`` against the driver's contract and the benchmark."""

import io
import json
import re

from bench import ROOT
from bench.harness import RunResult, load_spec, print_result
from bench.reducers import LAYERS
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def test_spec_has_exactly_the_contract_keys_and_limits():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "-m", "bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    # every run the driver makes, with warm-up and start-up, inside its hour
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 8) <= 3420


def test_names_units_and_bounds_are_well_formed():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_spec_names_the_six_workloads_and_every_layer():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.host_share", f"{layer}.calls_per_op"} <= per_layer


def test_result_line_carries_exactly_the_listed_metrics():
    spec = load_spec()
    for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
        result = RunResult("hot_cache", 1, 1.0, trace, True, env={})
        result.attempted, result.metrics = 10, {"host_us_per_op": 1.5, "stray": 2.0}
        line = json.loads(result.result_line(spec))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in spec[listed]]
        for metric in spec[listed]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_a_metric_the_workload_does_not_define_is_listed_as_such():
    spec = load_spec()
    result = RunResult("publish_churn", 1, 1.0, True, True, env={
        "commit": "c", "python": "3", "cpu_count": 2, "platform": "p",
        "load_start": (0.0,), "load_end": (0.0,),
    })
    result.attempted, result.metrics = 10, {"net.kb_publish": 7.1}
    out = io.StringIO()
    print_result(result, spec, out)
    listing = out.getvalue()
    assert "net.kb_publish" in listing and "= 7.1" in listing
    assert "e2e.paper_rel_err                      = n/a" in listing
    assert "e2e.paper_rel_err" not in result.to_json()["metrics"]
