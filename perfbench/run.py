"""The repository benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ncore32_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload steady_pair --seed 1 --loo

Each repetition runs in a fresh process (``rep.py``) with every inherited
``REPRO_*`` variable cleared, one simulation worker (``REPRO_JOBS=1``) and
a private, empty result-cache directory.  Repetitions continue while the
next one is expected to end within ``--seconds``; there is always at least
one.  Extra set-up-only repetitions bring ``setup_s`` to at least
``SETUP_SAMPLES`` samples.  Metrics are medians over repetitions.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions, prints the
per-layer metrics and ``trace_overhead_pct``, and writes the spans to
``.perfbench-out/``.  ``--loo`` (``ncore32_mix`` and ``steady_pair``) runs
the workload with each engine layer switched off in turn, each right after
a full-stack repetition, and prints ``core.loo.<layer>.ratio``: the
layer-off host time over that full stack's.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 whenever a result was printed,
also when outputs were wrong; a run that cannot measure exits with 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops

ROOT = ops.HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_SAMPLES = 5
#: A run (in the ``--loo`` pass, each repetition) must end within this.
RUN_DEADLINE_S = 170.0
LOO_WORKLOADS = ("ncore32_mix", "steady_pair")


class MeasureError(RuntimeError):
    """A repetition crashed or overran: the run cannot report a result."""


def rep_env(workload: str, rep_dir: Path, extra=None) -> dict:
    """A clean environment: no inherited ``REPRO_*``, private cache, one job."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_JOBS"] = "1"
    env["REPRO_CACHE_DIR"] = str(rep_dir / "cache")
    if workload != "service_rt":
        env["REPRO_NO_CACHE"] = "1"
    env.update(extra or {})
    return env


def run_rep(args, deadline: float, trace: bool, setup_only=False, switches=None) -> dict:
    """One repetition in a fresh process group; returns its record."""
    rep_dir = OUT / f"rep-{os.getpid()}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    result = rep_dir / "result.json"
    command = [
        sys.executable, str(ops.HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(trace)), "--result", str(result),
        "--reference", str(Path(args.reference).resolve()),
    ]
    if setup_only:
        command.append("--setup-only")
    env = rep_env(args.workload, rep_dir, switches)
    t0 = time.monotonic()
    child = subprocess.Popen(
        command + ["--t0", repr(t0)], env=env, cwd=rep_dir, start_new_session=True
    )
    try:
        code = child.wait(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # the rep's stray workers, if any
        except ProcessLookupError:
            pass
        child.wait()
    try:
        if code != 0:
            raise MeasureError(f"repetition exited with {code}")
        record = json.loads(result.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    record["wall_s"] = time.monotonic() - t0
    return record


def run_reps(args, deadline: float, trace_modes) -> list:
    """Full repetitions cycling through ``trace_modes`` until ``--seconds``."""
    start = time.monotonic()
    reps = []
    while True:
        mode = trace_modes[len(reps) % len(trace_modes)]
        reps.append(run_rep(args, deadline, mode))
        elapsed = time.monotonic() - start
        last = reps[-1]["wall_s"]
        if len(reps) >= len(trace_modes) and elapsed + last > args.seconds:
            return reps


def provenance() -> list:
    """Python, CPUs and source identity of this checkout."""
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return [
        f"python {platform.python_version()} ({platform.python_implementation()})",
        f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})",
        f"git commit {commit}",
        f"src sha256 {digest.hexdigest()[:16]}",
    ]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(reps, setups) -> dict:
    return {
        "host_s": median(r["host_s"] for r in reps),
        "setup_s": median(setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "sim_kcycles_per_s": median(r["sim_cycles"] / 1000.0 / r["sim_s"] for r in reps),
    }


def per_layer(traced, untraced) -> dict:
    names = [m["name"] for m in SPEC["per_layer"]]
    metrics = {}
    for name in names:
        values = [r["layer"].get(name, r["extra"].get(name)) for r in traced]
        metrics[name] = median(v for v in values if v is not None)
    untraced_host = median(r["host_s"] for r in untraced)
    traced_host = median(r["host_s"] for r in traced)
    metrics["trace_overhead_pct"] = 100.0 * (traced_host / untraced_host - 1.0)
    return metrics


def loo_metrics(args) -> tuple:
    """Each engine layer off in turn, against a full-stack repetition run
    just before it so that slow drift in host speed cancels in the ratio;
    returns ``(reps, metrics)``."""
    sys.path.insert(0, str(SRC))
    from repro.validation.difftest import ENGINE_KILL_SWITCH_ENV

    reps, metrics = [], {}
    for layer, var in ENGINE_KILL_SWITCH_ENV.items():
        full = run_rep(args, time.monotonic() + RUN_DEADLINE_S, False)
        off = run_rep(args, time.monotonic() + RUN_DEADLINE_S, False, switches={var: "1"})
        reps += [full, off]
        metrics[f"core.loo.{layer}.ratio"] = off["host_s"] / full["host_s"]
        if args.workload == "steady_pair":
            for op_id, seconds in off["op_host_s"].items():
                policy = op_id.split("/")[-1]
                metrics[f"core.loo.{layer}.{policy}.ratio"] = seconds / full["op_host_s"][op_id]
    return reps, metrics


def write_trace(args, reps) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "fields": ["trace", "span", "parent", "name", "start", "end"],
        "repetitions": [r["spans"] for r in reps if "spans" in r],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.loo:
        measured, metrics = loo_metrics(args)
    elif args.trace:
        measured = run_reps(args, deadline, (False, True))
        traced = [r for r in measured if "layer" in r]
        metrics = per_layer(traced, [r for r in measured if "layer" not in r])
    else:
        measured = run_reps(args, deadline, (False,))
        setups = [r["setup_s"] for r in measured]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_rep(args, deadline, False, setup_only=True)["setup_s"])
        metrics = end_to_end(measured, setups)
    failures = [f for r in measured for f in r["failures"]]
    attempted = sum(r["attempted"] for r in measured)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} loo={int(args.loo)}")
    for line in provenance():
        print(f"  {line}")
    print(f"  repetitions {len(measured)}")
    used = rep_env(args.workload, OUT / "<rep>")
    used["REPRO_CACHE_DIR"] = "<private, empty>"
    loo = " and one REPRO_NO_* switch per layer" if args.loo else ""
    print(f"  env {' '.join(f'{k}={v}' for k, v in sorted(used.items()) if k.startswith('REPRO_'))}{loo}")
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    print(f"  cleared inherited {' '.join(cleared) or '(none)'}")
    if args.trace:
        print(f"  spans written to {write_trace(args, measured).relative_to(ROOT)}")
    if not args.trace and not args.loo:
        print(f"  {'failed_frac':<34} {len(failures) / attempted:>14.6f} ratio"
              f"  ({len(failures)} of {attempted} ops)")
        for name in sorted(measured[0]["extra"]):
            values = [r["extra"][name] for r in measured]
            print(f"  {name:<34} {median(values):>14.4f} {UNITS.get(name, 'count')}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6f} {UNITS.get(name, 'ratio')}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name, "ratio")}
            for name, value in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--loo", action="store_true", help="leave-one-out engine pass")
    parser.add_argument("--reference", default=str(ops.REFERENCE_PATH))
    args = parser.parse_args()
    if args.loo and args.workload not in LOO_WORKLOADS:
        parser.error(f"--loo runs on {', '.join(LOO_WORKLOADS)} only")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 1
    try:
        summary = measure(args)
    except MeasureError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
