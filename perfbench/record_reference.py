"""Record ``reference.json``: the digests every benchmark run is checked against.

Run from the repository root::

    python3 perfbench/record_reference.py

Digests come from the seed reference engine: a fresh process with every
switch in ``repro.validation.difftest.ENGINE_KILL_SWITCH_ENV`` set, so all
engine layers are off.  The ``repro report --scale 0.1`` text digest comes
from ``generate_report`` itself on that engine.  A second process runs
each ``service_rt`` pool spec on the default engine and records its wall
time and simulated cycles; they only group the pool into classes of alike
specs (see ``ops.cold_classes``).  Both processes run
side by side, serially inside each, with the result cache off.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import ops

ROOT = ops.HERE.parent
SRC = ROOT / "src"


def _digests() -> dict:
    from repro.analysis.report import generate_report
    from repro.core.machine import Machine
    from repro.core.policies import POLICIES_BY_KEY
    from repro.service.protocol import fingerprint_digests
    from repro.service.specs import build_task

    tasks = {}
    for workload in ops.SIM_WORKLOADS:
        tasks.update(ops.sim_ops(workload))
    for op_id, spec in ops.service_pool():
        tasks.setdefault(op_id, build_task(spec))
    digests = {}
    for op_id, task in tasks.items():
        machine = Machine(task.config, POLICIES_BY_KEY[task.policy_key], task.build_jobs())
        result = machine.run(max_cycles=task.max_cycles)
        digests[op_id] = ops.combine(fingerprint_digests(result))
        print(f"  {op_id}", file=sys.stderr, flush=True)
    text = generate_report(scale=ops.REPORT_SCALE, pairs_limit=ops.REPORT_PAIRS, jobs=1)
    return {"digests": digests, "report_text": ops.text_digest(text)}


def _costs() -> dict:
    from repro.analysis.parallel import execute_task
    from repro.service.protocol import fingerprint_digests
    from repro.service.specs import build_task

    costs, cycles, digests = {}, {}, {}
    for op_id, spec in ops.service_pool():
        task = build_task(spec)
        start = time.perf_counter()
        result = execute_task(task)
        costs[op_id] = round(time.perf_counter() - start, 3)
        cycles[op_id] = result.total_cycles
        digests[op_id] = ops.combine(fingerprint_digests(result))
    return {"service_cost_s": costs, "service_cycles": cycles, "default_engine_digests": digests}


def _spawn(mode: str, extra_env: dict) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_NO_CACHE="1", REPRO_JOBS="1", **extra_env)
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), mode],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def main() -> int:
    if len(sys.argv) == 2 and sys.argv[1] in ("--digests", "--costs"):
        payload = _digests() if sys.argv[1] == "--digests" else _costs()
        print(json.dumps(payload))
        return 0
    sys.path.insert(0, str(SRC))
    from repro.validation.difftest import ENGINE_KILL_SWITCH_ENV

    seed_engine = {var: "1" for var in ENGINE_KILL_SWITCH_ENV.values()}
    children = [_spawn("--digests", seed_engine), _spawn("--costs", {})]
    outputs = [child.communicate()[0] for child in children]
    if any(child.returncode for child in children):
        print("recording failed", file=sys.stderr)
        return 1
    reference, timed = (json.loads(out.strip().splitlines()[-1]) for out in outputs)
    mismatched = [
        op_id
        for op_id, digest in timed["default_engine_digests"].items()
        if reference["digests"][op_id] != digest
    ]
    if mismatched:
        print(f"default engine differs from seed engine on {mismatched}", file=sys.stderr)
        return 1
    reference.update(
        engine="seed reference: every ENGINE_KILL_SWITCH_ENV switch set",
        switches=sorted(seed_engine),
        python=sys.version.split()[0],
        service_cost_s=timed["service_cost_s"],
        service_cycles=timed["service_cycles"],
    )
    with open(ops.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {ops.REFERENCE_PATH} ({len(reference['digests'])} digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
