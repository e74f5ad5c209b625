"""The operations each benchmark workload runs, and their reference digests.

Shared by ``rep.py`` (one measured repetition) and ``record_reference.py``
(which records the digests once on the seed reference engine).  Every
operation is addressed by a stable ``op_id``; ``reference.json`` maps each
id to the combined fingerprint digest the seed engine produced for it.

Imports from ``repro`` happen inside the functions, so the caller decides
when the import cost is paid (it belongs to ``setup_s``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("report_small", "ncore32_mix", "steady_pair", "service_rt")
SIM_WORKLOADS = ("report_small", "ncore32_mix", "steady_pair")

#: ``repro report --scale 0.1`` defaults: the motivating pair plus the
#: first six pairs, each under every policy.
REPORT_SCALE = 0.1
REPORT_PAIRS = 6

NCORE_CORES = 32
STREAM_LENGTH = 6144  # two 24 KiB arrays per core: misses the scaled L2
DOT_LENGTH = 256  # Vec-Cache resident
DOT_REPEATS = 48
STEADY_REPEATS = 64
STEADY_POLICIES = ("occamy", "fts", "cts")

#: Service pool: every Table 3 pair under every policy at this scale.
SERVICE_SCALE = 0.1
COLD_JOBS = 12
CLASS_SIZE = 3
CACHED_ROUNDS = 10
MAX_CYCLES = 3_000_000


@dataclass(frozen=True)
class KernelTask:
    """A ``SimTask``-shaped operation over hand-built kernels."""

    policy_key: str
    num_cores: int
    kernels: Tuple[object, ...]
    max_cycles: int = MAX_CYCLES

    @property
    def config(self):
        from repro.common.config import experiment_config

        return experiment_config(num_cores=self.num_cores)

    def build_jobs(self) -> list:
        from repro.compiler.pipeline import CompileOptions, build_image, compile_kernel
        from repro.core.machine import Job

        return [
            Job(compile_kernel(kernel, CompileOptions()), build_image(kernel, core_id=core))
            for core, kernel in enumerate(self.kernels)
        ]


def _axpy(length: int, repeats: int = 1):
    from repro.compiler.ir import Assign, BinOp, Kernel, Load, Loop, Param

    body = (Assign("y", BinOp("add", BinOp("mul", Param("a"), Load("x")), Load("y"))),)
    return Kernel(
        name="axpy",
        array_length=length,
        loops=(Loop("axpy", trip_count=length, repeats=repeats, body=body),),
        params={"a": 2.0},
    )


def _dot(length: int, repeats: int):
    from repro.compiler.ir import BinOp, Kernel, Load, Loop, Reduce

    body = (Reduce("add", "acc", BinOp("mul", Load("x"), Load("y"))),)
    return Kernel(
        name="dot",
        array_length=length,
        loops=(Loop("dot", trip_count=length, repeats=repeats, body=body),),
    )


def pair_op_id(pair, policy_key: str, scale: float) -> str:
    return f"pair/{pair}/{policy_key}@{scale}"


def sim_ops(workload: str) -> List[Tuple[str, object]]:
    """``(op_id, task)`` for every simulation of a simulator workload.

    A task has ``policy_key``, ``config``, ``max_cycles`` and
    ``build_jobs()``, like :class:`repro.analysis.parallel.SimTask`.
    """
    if workload == "report_small":
        from repro.analysis.parallel import SimTask
        from repro.common.config import experiment_config
        from repro.core.policies import ALL_POLICIES
        from repro.workloads.pairs import all_pairs

        config = experiment_config()
        ops = [
            (
                f"motivate/{policy.key}@{REPORT_SCALE}",
                SimTask(policy.key, REPORT_SCALE, config, kind="motivate"),
            )
            for policy in ALL_POLICIES
        ]
        for pair in all_pairs()[:REPORT_PAIRS]:
            for policy in ALL_POLICIES:
                ops.append(
                    (
                        pair_op_id(pair, policy.key, REPORT_SCALE),
                        SimTask(policy.key, REPORT_SCALE, config, pair=pair),
                    )
                )
        return ops
    if workload == "ncore32_mix":
        kernels = tuple(
            _dot(DOT_LENGTH, DOT_REPEATS) if core % 4 == 3 else _axpy(STREAM_LENGTH)
            for core in range(NCORE_CORES)
        )
        return [("ncore32_mix/occamy", KernelTask("occamy", NCORE_CORES, kernels))]
    if workload == "steady_pair":
        kernels = (_axpy(STREAM_LENGTH, STEADY_REPEATS), _axpy(STREAM_LENGTH, STEADY_REPEATS))
        return [
            (f"steady_pair/{key}", KernelTask(key, 2, kernels)) for key in STEADY_POLICIES
        ]
    raise ValueError(f"{workload!r} is not a simulator workload")


def service_pool() -> List[Tuple[str, Dict[str, object]]]:
    """``(op_id, spec)`` for every spec ``service_rt`` may submit."""
    from repro.core.policies import ALL_POLICIES
    from repro.workloads.pairs import all_pairs

    pool = []
    for pair in all_pairs():
        for policy in ALL_POLICIES:
            spec = {
                "kind": "pair",
                "suite": pair.suite,
                "mem": pair.core0,
                "comp": pair.core1,
                "policy": policy.key,
                "scale": SERVICE_SCALE,
            }
            pool.append((pair_op_id(pair, policy.key, SERVICE_SCALE), spec))
    return pool


def cold_classes(
    pool: List[Tuple[str, Dict[str, object]]], reference: dict
) -> List[List[Tuple[str, Dict[str, object]]]]:
    """``COLD_JOBS`` disjoint classes of ``CLASS_SIZE`` alike specs.

    Anchors sit at evenly spaced quantiles of the recorded cost; each class
    holds the unused specs nearest its anchor in (log cost, log cycles).
    Drawing one spec per class gives every seed distinct specs with nearly
    the same total host time and simulated cycles, so the seed does not
    move ``host_s`` or ``sim_kcycles_per_s``.
    """
    costs, cycles = reference["service_cost_s"], reference["service_cycles"]
    ranked = sorted(pool, key=lambda item: (costs[item[0]], item[0]))
    used, classes = set(), []
    for index in range(COLD_JOBS):
        anchor = ranked[int((index + 0.5) * len(ranked) / COLD_JOBS)][0]

        def distance(item, anchor=anchor):
            op_id = item[0]
            return (
                math.log(costs[op_id] / costs[anchor]) ** 2
                + math.log(cycles[op_id] / cycles[anchor]) ** 2,
                op_id,
            )

        members = sorted((item for item in pool if item[0] not in used), key=distance)
        classes.append(members[:CLASS_SIZE])
        used.update(op_id for op_id, _spec in classes[-1])
    return classes


def choose_cold_specs(
    seed: int, pool: List[Tuple[str, Dict[str, object]]], reference: dict
) -> List[Tuple[str, Dict[str, object]]]:
    """The seed's distinct cold specs, one from each class, in seed order."""
    rng = random.Random(seed)
    chosen = [rng.choice(members) for members in cold_classes(pool, reference)]
    rng.shuffle(chosen)
    return chosen


def cached_order(seed: int, count: int) -> List[int]:
    """Indices of the cold specs in the seed's resubmission order."""
    rng = random.Random(seed + 1)
    order = [index for _ in range(CACHED_ROUNDS) for index in range(count)]
    rng.shuffle(order)
    return order


def combine(section_digests: Dict[str, str]) -> str:
    """One digest over a run's per-section fingerprint digests."""
    text = json.dumps(section_digests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
