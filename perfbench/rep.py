"""One repetition of one workload, run in a fresh process by ``run.py``.

Writes one JSON record to ``--result``.  Times are monotonic seconds:

* ``setup_s``: from ``--t0`` (the moment ``run.py`` launched this process)
  to the end of set-up — imports, job build and ``Machine`` construction,
  or for the service, daemon start until its first ping;
* ``host_s``: from the end of set-up to the last result, without the
  benchmark's own digest checks;
* ``sim_s``: the part of ``host_s`` that simulated ``sim_cycles`` cycles.

With ``--trace 1`` the record also holds the spans and the per-layer
metrics.  Every failed operation is listed under ``failures``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import ops
import spans

MODEL_STALLS = ("empty", "dependency", "rename", "issue-budget", "store-queue", "reconfig")


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    values = sorted(values)
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else _median(values)


def model_counts(results) -> dict:
    """Deterministic counts of the simulated machine, summed over runs."""
    stalls = {reason: 0 for reason in MODEL_STALLS}
    busy = capacity = cycles = ok = failed = dram = moved = 0
    hits = {"vec_cache": [0, 0], "l2": [0, 0]}
    for result in results:
        metrics = result.metrics
        cycles += result.total_cycles
        busy += metrics.busy_pipe_slots
        capacity += metrics.total_lanes * metrics.pipes_per_lane * result.total_cycles
        for per_core in metrics.stalls:
            for reason, count in per_core.items():
                stalls[reason.value] += count
        ok += sum(metrics.reconfig_success)
        failed += sum(metrics.reconfig_failed)
        for stats in result.lsu_stats:
            dram += stats.dram_accesses
            moved += stats.bytes_loaded + stats.bytes_stored
        for level, pair in hits.items():
            stats = result.cache_stats[level]
            pair[0] += stats.hits
            pair[1] += stats.accesses
    counts = {
        "core.sim_cycles": cycles,
        "coproc.simd_util": busy / capacity if capacity else 0.0,
        "coproc.reconfig_ok": ok,
        "coproc.reconfig_failed": failed,
        "memory.vec_cache_hit_rate": hits["vec_cache"][0] / max(1, hits["vec_cache"][1]),
        "memory.l2_hit_rate": hits["l2"][0] / max(1, hits["l2"][1]),
        "memory.dram_accesses": dram,
        "memory.bytes_moved": moved,
    }
    counts.update({f"coproc.stall.{reason}": count for reason, count in stalls.items()})
    return counts


def engine_counts(machines) -> dict:
    """What the engine layers did, from ``Machine.profile`` and the lane manager."""
    total = replayed = ff = interpreted = templates = aborts = plans = 0
    busy = idle = asleep = batched = scalar = 0
    for machine in machines:
        profile = machine.profile
        total += profile.total_cycles
        replayed += profile.replayed_cycles
        ff += profile.fastforward_cycles
        interpreted += profile.interpreted_cycles
        templates += profile.templates_built
        aborts += profile.replay_aborts
        busy += sum(profile.component_busy)
        idle += sum(profile.component_idle)
        asleep += sum(profile.component_asleep)
        batched += profile.batched_dispatch_calls
        scalar += profile.scalar_dispatch_calls
        plans += machine.lane_manager.plans_generated
    total = max(1, total)
    return {
        "core.replayed_frac": replayed / total,
        "core.replay_templates": templates,
        "core.replay_aborts": aborts,
        "core.asleep_frac": asleep / max(1, busy + idle + asleep),
        "core.idle_stepped_frac": idle / max(1, busy + idle),
        "core.fastforward_frac": ff / total,
        "core.interpreted_frac": interpreted / total,
        "core.lane_plans": plans,
        "coproc.dispatch_calls": batched + scalar,
        "coproc.batched_ratio": batched / max(1, batched + scalar),
    }


def paper_gm_err(outcomes) -> float:
    """Mean |ln(sim/paper)| of the GM Core1 speed-ups of FTS, VLS and Occamy."""
    from repro.analysis.report import PAPER_FIG10
    from repro.analysis.reporting import geomean

    errors = [
        abs(math.log(geomean([o.speedup(key, 1) for o in outcomes]) / paper))
        for key, paper in PAPER_FIG10.items()
    ]
    return sum(errors) / len(errors)


def render_report(results, tracer: spans.Tracer):
    """The ``repro report --scale 0.1`` text, built by its section builders."""
    from repro.analysis import report
    from repro.analysis.experiments import MotivationResult, PairOutcome
    from repro.common.config import experiment_config
    from repro.core.policies import ALL_POLICIES
    from repro.workloads.pairs import all_pairs

    scale = ops.REPORT_SCALE
    config = experiment_config()
    motivation = MotivationResult(
        results={p.key: results[f"motivate/{p.key}@{scale}"] for p in ALL_POLICIES}
    )
    outcomes = [
        PairOutcome(
            pair=pair,
            results={p.key: results[ops.pair_op_id(pair, p.key, scale)] for p in ALL_POLICIES},
        )
        for pair in all_pairs()[: ops.REPORT_PAIRS]
    ]
    builders = (
        ("fig2", lambda: report._fig2_section(motivation)),
        ("pairs", lambda: report._pairs_section(outcomes)),
        ("table5", lambda: report._table5_section(config)),
        ("area", report._area_section),
        ("energy", lambda: report._energy_section(motivation)),
    )
    trace = tracer.new_trace()
    with tracer.span("analysis.render", trace):
        sections = [
            "# Occamy reproduction report\n",
            f"Workload scale {scale}; {config.num_cores} cores, "
            f"{config.vector.total_lanes} lanes.  See EXPERIMENTS.md for the "
            "full-suite numbers and fidelity notes.\n",
        ]
        for name, build in builders:
            with tracer.span(f"analysis.render.{name}", trace):
                sections.append(build())
        text = "\n".join(sections)
    return text, outcomes


def run_sims(args, tracer: spans.Tracer, reference: dict) -> dict:
    from repro.core.machine import Machine
    from repro.core.policies import POLICIES_BY_KEY
    from repro.service.protocol import fingerprint_digests

    failures = []
    staged = []
    planned = ops.sim_ops(args.workload)
    for op_id, task in planned:
        trace = tracer.new_trace()
        try:
            with tracer.span("workloads.build_jobs", trace):
                jobs = task.build_jobs()
            with tracer.span("core.init", trace):
                machine = Machine(task.config, POLICIES_BY_KEY[task.policy_key], jobs)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            failures.append(f"{op_id}: {type(exc).__name__}: {exc}")
            continue
        staged.append((op_id, task, machine, trace))
    setup_end = time.monotonic()
    record = {"setup_s": setup_end - args.t0}
    if args.setup_only:
        return record

    results, op_host_s = {}, {}
    for op_id, task, machine, trace in staged:
        start = time.monotonic()
        try:
            with tracer.span("core.run", trace):
                results[op_id] = machine.run(max_cycles=task.max_cycles)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{op_id}: {type(exc).__name__}: {exc}")
        op_host_s[op_id] = time.monotonic() - start
    sim_end = time.monotonic()
    attempted = len(planned)
    text = outcomes = None
    if args.workload == "report_small":
        attempted += 1
        try:
            text, outcomes = render_report(results, tracer)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"report: {type(exc).__name__}: {exc}")
    work_end = time.monotonic()

    for op_id, result in results.items():
        with tracer.span("validation.digest", tracer.new_trace()):
            digest = ops.combine(fingerprint_digests(result))
        if digest != reference["digests"].get(op_id):
            failures.append(f"{op_id}: fingerprint differs from the reference")
    if text is not None and ops.text_digest(text) != reference["report_text"]:
        failures.append("report: text differs from the reference")

    record.update(
        host_s=work_end - setup_end,
        sim_s=sim_end - setup_end,
        sim_cycles=sum(result.total_cycles for result in results.values()),
        op_host_s=op_host_s,
        attempted=attempted,
        failures=failures,
        extra={},
    )
    if outcomes is not None:
        record["extra"]["paper_gm_err"] = paper_gm_err(outcomes)
    if args.trace:
        layer = {
            "core.init_s": tracer.total("core.init"),
            "core.run_s": tracer.total("core.run"),
            "workloads.build_jobs_s": tracer.total("workloads.build_jobs"),
            "analysis.render_s": tracer.total("analysis.render"),
        }
        layer.update(
            engine_counts([m for _, _, m, _ in staged if m.profile is not None])
        )
        layer.update(model_counts(results.values()))
        record["layer"] = layer
    return record


def run_service(args, tracer: spans.Tracer, reference: dict) -> dict:
    import threading

    from repro.service.client import ServiceClient, wait_for_server
    from repro.service.server import ServerOptions, SimulationServer

    cold = ops.choose_cold_specs(args.seed, ops.service_pool(), reference)
    start_trace = tracer.new_trace()
    daemon_start = time.monotonic()
    server = SimulationServer(
        ServerOptions(address="svc.sock", workers=1, cost_path=Path("service_costs.json"))
    )
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        wait_for_server(server.address, deadline_s=60.0)
        setup_end = time.monotonic()
        tracer.record("service.start", start_trace, daemon_start, setup_end)
        record = {"setup_s": setup_end - args.t0, "start_s": setup_end - daemon_start}
        if args.setup_only:
            return record
        with ServiceClient(server.address, timeout=170.0) as client:
            record.update(_closed_loop(args, tracer, reference, client, cold))
            counters = client.status().get("counters", {})
    finally:
        server.stop_threadsafe()
        thread.join(timeout=30.0)
        server.pool.stop()
    if args.trace:
        record["layer"].update(
            {
                "service.start_s": record["start_s"],
                "service.cache_hits": counters.get("cache_hits", 0),
                "service.coalesced": counters.get("coalesced", 0),
                "service.retries": counters.get("retries", 0),
            }
        )
    return record


def _submit(client, spec, tracer: spans.Tracer, failures: list, label: str):
    """One closed-loop round trip.

    Returns ``(latency_s, started_after_s, done_event)``, where
    ``started_after_s`` is ``None`` when the job never queued (a cache
    hit), or ``None`` for a failed or refused job.
    """
    stamps = {}

    def on_event(event):
        stamps.setdefault(event.get("event"), time.monotonic())

    start = time.monotonic()
    try:
        done = client.submit(spec, client="perfbench", on_event=on_event, timeout=170.0)
    except Exception as exc:  # noqa: BLE001 - refusals and failures are counted
        failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return None
    end = time.monotonic()
    if done.get("event") != "done":
        failures.append(f"{label}: job ended {done.get('event')!r}")
        return None
    trace = tracer.new_trace()
    root = tracer.record("service.submit", trace, start, end)
    started = stamps.get("started")
    if started is not None:
        tracer.record("service.queue_wait", trace, start, started, root)
        tracer.record("service.exec", trace, started, end, root)
        started -= start
    return end - start, started, done


def _closed_loop(args, tracer, reference, client, cold) -> dict:
    failures = []
    served = []  # (op_id, done event, cold?)
    cold_lat, waits, execs, cached_lat = {}, [], [], []
    work_start = time.monotonic()
    for op_id, spec in cold:
        reply = _submit(client, spec, tracer, failures, op_id)
        if reply is not None:
            latency, started, done = reply
            cold_lat[op_id] = latency
            if started is not None:
                waits.append(started)
                execs.append(latency - started)
            served.append((op_id, done, True))
    cold_end = time.monotonic()
    for index in ops.cached_order(args.seed, len(cold)):
        op_id, spec = cold[index]
        reply = _submit(client, spec, tracer, failures, op_id)
        if reply is not None:
            cached_lat.append(reply[0])
            served.append((op_id, reply[2], False))
    work_end = time.monotonic()

    sim_cycles = 0
    for op_id, done, is_cold in served:
        summary = done.get("result") or {}
        if ops.combine(summary.get("fingerprint", {})) != reference["digests"].get(op_id):
            failures.append(f"{op_id}: served fingerprint differs from the reference")
        if is_cold:
            sim_cycles += summary.get("total_cycles", 0)
    record = {
        "host_s": work_end - work_start,
        "sim_s": cold_end - work_start,
        "sim_cycles": sim_cycles,
        "attempted": len(cold) * (1 + ops.CACHED_ROUNDS),
        "failures": failures,
        "extra": {
            "svc_cold_p50_ms": _ms(_median(cold_lat.values())),
            "svc_cold_n": len(cold_lat),
            "svc_cached_p50_ms": _ms(_median(cached_lat)),
            "svc_cached_p90_ms": _ms(_p90(cached_lat)),
            "svc_cached_n": len(cached_lat),
        },
    }
    if args.trace:
        layer = {
            "service.queue_wait_ms": _ms(_median(waits)),
            "service.exec_ms": _ms(_median(execs)),
        }
        layer.update(_service_layers(tracer, cold, cold_lat))
        record["layer"] = layer
    return record


def _service_layers(tracer: spans.Tracer, cold, cold_lat: dict) -> dict:
    """Cache, summary and in-process costs of the cold specs, after the loop."""
    from repro.analysis import result_cache
    from repro.analysis.parallel import execute_task
    from repro.service.protocol import summarize_result
    from repro.service.specs import build_task

    cache = result_cache.ResultCache()
    key_ms, get_ms, entry_kb, summarize_ms, overhead_ms, results = [], [], [], [], [], []
    for op_id, spec in cold:
        if op_id not in cold_lat:
            continue
        trace = tracer.new_trace()
        task = build_task(spec)
        jobs = task.build_jobs()
        with tracer.span("analysis.cache_key", trace):
            key = result_cache.simulation_key(task.config, task.policy_key, jobs, task.max_cycles)
        with tracer.span("analysis.cache_get", trace):
            result = cache.get(key)
        if result is None:
            continue
        with tracer.span("service.summarize", trace):
            summarize_result(result, key=key)
        with tracer.span("core.execute_task", trace):
            execute_task(task)
        key_ms.append(_ms(tracer.durations("analysis.cache_key")[-1]))
        get_ms.append(_ms(tracer.durations("analysis.cache_get")[-1]))
        summarize_ms.append(_ms(tracer.durations("service.summarize")[-1]))
        overhead_ms.append(_ms(cold_lat[op_id] - tracer.durations("core.execute_task")[-1]))
        entry_kb.append(cache.path_for(key).stat().st_size / 1024.0)
        results.append(result)
    layer = {
        "analysis.cache_key_ms": _median(key_ms),
        "analysis.cache_get_ms": _median(get_ms),
        "analysis.cache_entry_kb": _median(entry_kb),
        "service.summarize_ms": _median(summarize_ms),
        "service.cold_overhead_ms": _median(overhead_ms),
    }
    layer.update(model_counts(results))
    return layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--reference", default=str(ops.REFERENCE_PATH))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = spans.Tracer(bool(args.trace))
    reference = ops.load_reference(Path(args.reference))
    runner = run_service if args.workload == "service_rt" else run_sims
    record = runner(args, tracer, reference)
    # Only this process: for the service that is the daemon and the client.
    # The worker's memory is the simulator's, which the other workloads
    # measure in-process; here it would follow the seed's choice of specs.
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace and not args.setup_only:
        record["layer"].update(
            {f"{layer}.self_s": seconds for layer, seconds in spans.self_times(tracer.spans).items()}
        )
        record["spans"] = tracer.spans
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
