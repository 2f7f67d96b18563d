"""Regression tests for the BENCH_engine.json recorder.

The recorder must *merge* into an existing file: a partial run (a
``-k`` selection, or one ``pytest -n`` worker's slice of the perf
smokes) refreshes only the scenarios it measured and leaves every other
scenario's recorded rate alone. A clobbering recorder silently erases
the perf trajectory the floors are calibrated against.
"""

from benchmarks.conftest import ENGINE_SCENARIOS, merge_bench_file


def entry(rps, floor=1000.0, n=100):
    return {"measured_rps": rps, "floor_rps": floor, "n_requests": n}


def test_merge_into_missing_file(tmp_path):
    path = tmp_path / "bench.json"
    merged = merge_bench_file(path, {"bare": entry(5.0)})
    assert merged == {"bare": entry(5.0)}
    assert path.exists()


def test_partial_run_preserves_other_scenarios(tmp_path):
    path = tmp_path / "bench.json"
    merge_bench_file(path, {"bare": entry(5.0), "qos": entry(3.0)})
    # A later partial run measures only one scenario...
    merged = merge_bench_file(path, {"qos": entry(4.0)})
    # ...and must update it without erasing the rest.
    assert merged == {"bare": entry(5.0), "qos": entry(4.0)}


def test_file_round_trips_sorted(tmp_path):
    import json

    path = tmp_path / "bench.json"
    merge_bench_file(path, {"zeta": entry(1.0), "alpha": entry(2.0)})
    payload = json.loads(path.read_text())
    assert list(payload["scenarios"]) == ["alpha", "zeta"]


def test_empty_file_is_a_fresh_start(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("")
    assert merge_bench_file(path, {"bare": entry(5.0)}) == {"bare": entry(5.0)}


def test_stale_scenarios_are_dropped(tmp_path):
    # A scenario no perf test records any more (a deleted floor) leaves
    # the file on the next run instead of keeping a stale figure.
    path = tmp_path / "bench.json"
    merge_bench_file(path, {"bare": entry(5.0), "bare_scalar": entry(1.0)})
    merged = merge_bench_file(path, {"qos_columnar": entry(4.0)},
                              live=ENGINE_SCENARIOS)
    assert merged == {"bare": entry(5.0), "qos_columnar": entry(4.0)}


def test_live_names_cover_every_recorded_scenario():
    import re
    from pathlib import Path

    source = (Path(__file__).parent / "test_engine_perf.py").read_text()
    recorded = set(re.findall(r'record_bench\(\s*"(\w+)"', source))
    assert recorded == set(ENGINE_SCENARIOS)
