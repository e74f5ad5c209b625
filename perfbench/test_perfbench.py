"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest perfbench -q

The two end-to-end tests run ``steady_pair`` (about 15 s untraced, 30 s
traced).
"""

from __future__ import annotations

import json
import subprocess
import sys

import ops
import run
import spans

sys.path.insert(0, str(run.SRC))
SPEC = run.SPEC


def _bench(*extra: str) -> dict:
    command = [sys.executable, str(ops.HERE / "run.py"), "--workload", "steady_pair"]
    done = subprocess.run(
        command + ["--seed", "3", "--seconds", "1", *extra],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, listed: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))


def test_corrupt_reference_digest_counts_as_failure_and_every_metric_prints(tmp_path):
    reference = ops.load_reference()
    reference["digests"]["steady_pair/occamy"] = "0" * 64
    corrupt = tmp_path / "reference.json"
    corrupt.write_text(json.dumps(reference), encoding="utf-8")

    result = _bench("--trace", "0", "--reference", str(corrupt))

    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 1)
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_traced_run_prints_every_per_layer_metric_and_writes_spans():
    result = _bench("--trace", "1")

    assert result["correct"] is True and result["failed"] == 0
    _assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["core.replayed_frac"]["value"] > 0
    trace = json.loads((run.OUT / "trace-steady_pair-seed3.json").read_text())
    names = {span[3] for rep in trace["repetitions"] for span in rep}
    assert {"workloads.build_jobs", "core.init", "core.run", "validation.digest"} <= names


def test_reference_covers_every_operation():
    reference = ops.load_reference()
    op_ids = [op_id for w in ops.SIM_WORKLOADS for op_id, _task in ops.sim_ops(w)]
    op_ids += [op_id for op_id, _spec in ops.service_pool()]
    assert set(op_ids) <= set(reference["digests"])
    pool_ids = {op_id for op_id, _spec in ops.service_pool()}
    assert set(reference["service_cost_s"]) == set(reference["service_cycles"]) == pool_ids


def test_cold_specs_are_distinct_and_fixed_by_the_seed():
    reference = ops.load_reference()
    pool = ops.service_pool()
    first = ops.choose_cold_specs(5, pool, reference)
    assert first == ops.choose_cold_specs(5, pool, reference)
    assert len({op_id for op_id, _spec in first}) == ops.COLD_JOBS
    assert first != ops.choose_cold_specs(6, pool, reference)
    order = ops.cached_order(5, ops.COLD_JOBS)
    assert sorted(order) == sorted(list(range(ops.COLD_JOBS)) * ops.CACHED_ROUNDS)


def test_rep_environment_drops_inherited_repro_variables(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NO_LOOP_REPLAY", "1")
    monkeypatch.setenv("REPRO_JOBS", "4")
    env = run.rep_env("ncore32_mix", tmp_path)
    assert "REPRO_NO_LOOP_REPLAY" not in env
    assert env["REPRO_JOBS"] == "1"
    assert env["REPRO_CACHE_DIR"] == str(tmp_path / "cache")
    assert "REPRO_NO_CACHE" not in run.rep_env("service_rt", tmp_path)


def test_self_time_subtracts_child_spans():
    recorded = [
        [1, 0, None, "service.submit", 0.0, 10.0],
        [1, 1, 0, "core.run", 2.0, 5.0],
        [1, 2, 0, "core.run", 4.0, 7.0],
        [2, 3, None, "validation.digest", 0.0, 1.0],
    ]
    times = spans.self_times(recorded)
    assert times["service"] == 5.0
    assert times["core"] == 6.0
    assert times["validation"] == 1.0
