"""One round of one workload in one fresh process: set up, serve, check.

Started by ``run.py``, once per round; prints one JSON object as its
last line.  The clock starts on the first statement, before ``repro`` is
imported, so ``setup_s`` covers the import, quantization, building and
deploying (and, for parallel execution, forking workers and publishing
shared memory).  Input generation is timed apart and left out of it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402,F401
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - T0
CACHE_DIR = ROOT / ".bench_build" / "servebench"


def _pin_to_current_cpu() -> None:
    """Keep this process (and its threads) on the CPU it runs on now.

    The serial workloads run Python on one thread at a time; left free,
    the process migrates between CPUs and the fabric's two shard
    threads hand the interpreter lock across CPUs, which alone swings a
    round's wall time by +-15 % on a shared 2-CPU host.
    """
    try:
        with open("/proc/self/stat") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


def _phase_timer():
    phases: dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def phase(name):
        start = time.perf_counter()
        try:
            yield
        finally:
            phases[name] += time.perf_counter() - start

    return phases, phase


def _per_layer(tracer, stats, phases, pool_deploy_s, execution) -> dict[str, float]:
    """Per-layer metrics: self time per request counted in throughput."""
    requests = max(stats["completed"], 1.0)

    def per_request_us(name, count=requests):
        return tracer.self_ns.get(name, 0) / 1e3 / max(count, 1.0)

    layers = {
        name + "_us": per_request_us(name)
        for name in (
            "net.parse", "traffic.gateway", "traffic.admission", "fabric.route",
            "fabric.serve_routed", "runtime.cluster", "runtime.schedulers",
            "runtime.queues", "runtime.parallel.submit", "runtime.parallel.join_wait",
            "core.timing", "core.datapath", "core.plans", "core.stats",
            "photonics.readout_noise", "photonics.contraction", "photonics.reseed",
            "traffic.fleet", "traffic.arrivals",
        )
    }
    layers["sim.simulator_us"] = per_request_us(
        "sim.simulator", tracer.counts.get("sim.simulated_requests", 0)
    )
    served = max(stats["served"], 1.0)
    layers["fabric.recovered"] = stats["recovered"]
    layers["runtime.batch_size"] = (
        stats["served"] / stats["dispatches"] if stats["dispatches"] else 0.0
    )
    layers["runtime.queue_wait_us"] = stats["queue_wait_s"] / served * 1e6
    layers["photonics.readouts_per_request"] = (
        tracer.counts.get("photonics.readouts", 0) / requests
    )
    forked = phases.get("build", 0.0) if execution == "parallel" else 0.0
    layers["setup.import_s"] = IMPORT_S
    layers["setup.deploy_s"] = phases.get("deploy", 0.0) - pool_deploy_s
    layers["setup.pool_s"] = forked + pool_deploy_s
    return layers


def _peak_rss_mb() -> float:
    """Peak resident memory of this process and of its reaped children.

    Parallel execution keeps the datapath, the plans and a copy of each
    model in forked workers; once ``close`` has joined them, their peak
    is in ``RUSAGE_CHILDREN``.  The larger of the two peaks is reported.
    """
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0,
                        help="index of this round in the run; keys its trace")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inputs-only", action="store_true",
                        help="generate (and cache) the input assets, then exit")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else NullTracer()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, CACHE_DIR, tracer)
    if workload.pinned:
        _pin_to_current_cpu()
    start = time.perf_counter()
    workload.load()
    inputs_s = time.perf_counter() - start
    if args.inputs_only:
        print(json.dumps({"inputs_s": inputs_s}))
        return 0

    phases, phase = _phase_timer()
    pool_tracer = Tracer()
    if args.trace:
        # Split the worker pool's deploy (shared-memory publish and
        # worker adoption) out of deploy; one call per model.
        from repro.runtime.parallel import CoreWorkerPool

        pool_tracer.patch(CoreWorkerPool, "deploy", "setup.pool_deploy")
    try:
        workload.setup(phase)
        setup_s = time.perf_counter() - T0 - inputs_s
        pool_tracer.uninstall()
        round_ = workload.prepare_round(args.round)
        if args.trace:
            tracer.install()
        begin = time.perf_counter()
        with tracer.span("round"):
            result = workload.serve(round_)
        wall = time.perf_counter() - begin
        if args.trace:
            tracer.uninstall()
        errors = workload.check(round_, result)
        stats = workload.round_stats(round_, result)
        stats.setdefault("completed", stats["served"])
        stats.setdefault("failed", round_["offered"] - stats["completed"])
        stats.update(offered=round_["offered"], wall_s=wall)
    finally:
        workload.close()

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "round": args.round,
        "traced": bool(args.trace),
        "errors": errors[:20],
        "setup_s": setup_s,
        "inputs_s": inputs_s,
        "import_s": IMPORT_S,
        "phases": dict(phases),
        "stats": stats,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if args.trace:
        out["layers"] = _per_layer(
            tracer, stats, phases,
            pool_tracer.self_ns.get("setup.pool_deploy", 0) / 1e9,
            getattr(workload, "execution", "serial"),
        )
        out["spans_kept"] = len(tracer.spans)
        out["spans_dropped"] = tracer.dropped_spans
        tracer.write(CACHE_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
