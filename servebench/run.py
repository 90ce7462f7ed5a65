#!/usr/bin/env python3
"""Serving benchmark for the Lightning reproduction.

Runs one workload as a series of rounds, each in a fresh worker process
(``child.py``), and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 servebench/run.py --workload lenet_frames --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 20   # every workload
    python3 servebench/run.py --smoke [--seed 1]                     # tiny sizes, every check
    python3 servebench/run.py --retrain                              # rebuild the LeNet cache

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced round and reports the per-layer metrics plus
the tracing overhead.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CACHE_DIR = ROOT / ".bench_build" / "servebench"
WORKLOADS = ("lenet_frames", "zoo_failover", "fleet_campaign", "lenet_parallel")
#: The whole run ends by then, so it exits well inside 180 s.
RUN_DEADLINE_S = 170.0
#: A round is started only with this much of the deadline left.
ROUND_MARGIN_S = 15.0
#: Seconds of ``--seconds`` budgeted per round, set-up included.  A run
#: serves ``round(seconds / ROUND_SECONDS)`` rounds (at least
#: ``MIN_ROUNDS``), so the traces it serves depend only on its
#: arguments, never on speed.  A LeNet round takes about 5 s in all
#: (4 s of serving) but is budgeted at 3.3 s so that a 20 s run takes
#: the mean of six; a zoo or fleet round takes about 2.2 s, and the
#: fleet's are budgeted at 1.7 s so that a run takes twelve.
ROUND_SECONDS = dict(
    lenet_frames=3.3, zoo_failover=2.0, fleet_campaign=1.7, lenet_parallel=3.3
)
MIN_ROUNDS = 3
#: Host-speed units per second of a typical run when the benchmark was
#: defined; see ``host_speed``.
REFERENCE_HOST_SPEED = 300.0

#: Layers each workload must reach; a traced run where one reads 0 means
#: a wrapper no longer attaches (a renamed method, say).
EXERCISED = {
    "lenet_frames": (
        "net.parse_us", "runtime.cluster_us", "runtime.schedulers_us",
        "runtime.queues_us", "core.datapath_us", "core.plans_us", "core.stats_us",
        "photonics.readout_noise_us", "photonics.contraction_us",
        "photonics.reseed_us", "photonics.readouts_per_request",
    ),
    "zoo_failover": (
        "net.parse_us", "traffic.gateway_us", "traffic.admission_us",
        "fabric.route_us", "fabric.serve_routed_us",
        "runtime.cluster_us", "runtime.schedulers_us", "runtime.queues_us",
        "core.datapath_us", "core.plans_us", "core.stats_us",
        "photonics.contraction_us", "photonics.reseed_us",
    ),
    "fleet_campaign": (
        "traffic.fleet_us", "traffic.arrivals_us", "sim.simulator_us",
        "core.stats_us", "runtime.schedulers_us",
    ),
    "lenet_parallel": (
        "net.parse_us", "runtime.cluster_us", "runtime.queues_us",
        "runtime.parallel.submit_us", "runtime.parallel.join_wait_us",
        "core.timing_us", "core.stats_us", "setup.pool_s",
    ),
}


def _metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _fail(message: str) -> int:
    print(f"servebench: {message}", file=sys.stderr)
    return 2


def host_speed(seconds: float = 0.2) -> float:
    """Units per second of a fixed kernel, run here between rounds.

    On a shared 2-CPU host the CPU speed drifts by up to +-25 % over
    tens of seconds (neighbour load on the physical cores), and the
    drift moves the kernel and the program alike.  The median of the
    samples taken before the first round and after every round scales
    the run's throughput and set-up time to a host running at
    REFERENCE_HOST_SPEED.  It runs in this process, which never imports
    the program, while no worker process is alive, so nothing the
    program leaves running can slow it.  One unit is one 65,536-draw
    numpy Gaussian fill plus a 20,000-step interpreted dict loop: the
    two kinds of work the workloads mix.
    """
    rng = np.random.Generator(np.random.Philox(7))
    buffer = np.empty(65_536)
    table = {i: i for i in range(64)}
    units = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rng.standard_normal(65_536, out=buffer)
        total = 0
        for i in range(20_000):
            total += table[i & 63]
        units += 1
    return units / (time.perf_counter() - start)


def _run_child(workload, seed, deadline, *, round_=0, trace=0, smoke=False, extra=()):
    """One worker process; returns (its JSON result, None) or (None, error).

    The worker leads its own process group, so a worker that hangs is
    killed together with any process it forked, and waited for.
    """
    cmd = [
        sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
        "--round", str(round_), "--trace", str(trace), *extra,
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    label = f"{workload} round {round_}{' (traced)' if trace else ''}"
    if out is None:
        return None, f"{label} timed out"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{label} worker exited with {proc.returncode}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"{label} worker printed no result"


def _ensure_inputs(workload: str, deadline: float) -> str | None:
    """Train the LeNet cache in its own process, so no measured worker
    pays for (or keeps the memory of) training."""
    if workload.startswith("lenet") and not any(CACHE_DIR.glob("lenet-*.npz")):
        return _run_child("lenet_frames", 0, deadline, extra=["--inputs-only"])[1]
    return None


def _raw_rps(child) -> float:
    return child["stats"]["completed"] / child["stats"]["wall_s"]


def _throughput(children, speed=None) -> float:
    """Mean over rounds of requests completed per wall-second; given the
    host speed, scaled to the reference speed.  The mean, not the
    median: one fleet round's rate varies by about 19 % from round to
    round, and over twelve rounds the mean wanders less."""
    raw = statistics.fmean(_raw_rps(c) for c in children)
    return raw * REFERENCE_HOST_SPEED / speed if speed else raw


def _virtual(children) -> dict[str, float]:
    """Virtual-clock metrics: per-round percentiles averaged over every
    round (each round is a distinct trace), and ledger joules over all
    served requests."""
    stats = [c["stats"] for c in children]
    return {
        "virtual_p50_us": statistics.fmean(s["p50_us"] for s in stats),
        "virtual_p99_us": statistics.fmean(s["p99_us"] for s in stats),
        "energy_per_inference_mj": sum(s["energy_j"] for s in stats)
        / max(sum(s["served"] for s in stats), 1) * 1e3,
    }


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Run one workload, one fresh process per round; returns
    (result, errors, host)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    errors = []
    inputs_error = _ensure_inputs(workload, deadline)
    if inputs_error:
        errors.append(f"input generation: {inputs_error}")
    if trace:
        # An untraced and a traced process serve the same trace.
        plan = [(0, 0), (0, 1)]
    else:
        rounds = 1 if smoke else max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))
        plan = [(index, 0) for index in range(rounds)]
    children, lost = [], 0
    speeds = [host_speed()]
    for index, traced in plan:
        if inputs_error or time.monotonic() > deadline - ROUND_MARGIN_S:
            lost += 1
            errors.append(f"{workload} round {index} not run")
            continue
        child, error = _run_child(
            workload, seed, deadline, round_=index, trace=traced, smoke=smoke
        )
        speeds.append(host_speed())
        if child is None:
            lost += 1
            errors.append(error)
            continue
        child["host_speed"] = statistics.fmean(speeds[-2:])
        errors.extend(child["errors"])
        children.append(child)
    untraced = [c for c in children if not c["traced"]]
    metrics, host = {}, None
    if untraced:
        # Slow drift of the host moves whole runs; the median of the
        # run's samples tracks it without the noise of any one sample.
        host = {"raw_rps": _throughput(untraced), "speed": statistics.median(speeds)}
    if trace and len(children) == 2:
        traced = children[1]
        if _virtual([traced]) != _virtual(untraced):
            errors.append(
                "tracing changed virtual-clock results: "
                f"{_virtual([traced])} vs {_virtual(untraced)}"
            )
        layers = dict(traced["layers"])
        layers["trace.overhead_pct"] = (
            1.0 - _throughput([traced], traced["host_speed"])
            / _throughput(untraced, untraced[0]["host_speed"])
        ) * 100.0
        layers["host.speed"] = host["speed"]
        layers["host.uncalibrated_rps"] = host["raw_rps"]
        missing = [name for name in EXERCISED[workload] if not layers.get(name)]
        if missing:
            errors.append(f"traced layers read 0: {missing}")
        for name, unit in _metric_units("per_layer").items():
            metrics[name] = {"value": layers[name], "unit": unit}
    elif not trace and untraced:
        values = _virtual(untraced)
        values["throughput_rps"] = _throughput(untraced, host["speed"])
        values["setup_s"] = (
            statistics.median(c["setup_s"] for c in untraced)
            * host["speed"] / REFERENCE_HOST_SPEED
        )
        values["peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in untraced)
        for name, unit in _metric_units("end_to_end").items():
            metrics[name] = {"value": values[name], "unit": unit}
    # A round whose process failed counts as a round of failed requests,
    # sized like the rounds that ran (or as one request if none did).
    lost_size = max((c["stats"]["offered"] for c in children), default=1)
    result = {
        "correct": not errors,
        "attempted": sum(c["stats"]["offered"] for c in children) + lost * lost_size,
        "failed": sum(c["stats"]["failed"] for c in children) + lost * lost_size,
        "metrics": metrics,
    }
    return result, errors, host


def _print_table(workload: str, result: dict, errors: list[str], host=None) -> None:
    print(f"== {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    if host:
        print(f"   uncalibrated {host['raw_rps']:.4f} req/s at host speed "
              f"{host['speed']:.1f} (reference {REFERENCE_HOST_SPEED:.1f})")
    for name, metric in result["metrics"].items():
        print(f"   {name:34s} {metric['value']:16.4f} {metric['unit']}")
    for error in errors:
        print(f"   CHECK FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, traced and untraced")
    parser.add_argument("--retrain", action="store_true",
                        help="delete and rebuild the cached LeNet training")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program under {ROOT / 'src'}; run from a full checkout")
    if args.retrain:
        shutil.rmtree(CACHE_DIR, ignore_errors=True)
        error = _ensure_inputs("lenet_frames", time.monotonic() + RUN_DEADLINE_S)
        if error:
            return _fail(error)
        if args.workload is None:
            return 0
    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, errors, host = run_workload(workload, args.seed, 1.0, trace, smoke=True)
                _print_table(f"{workload} (smoke, trace={trace})", result, errors, host)
                ok = ok and result["correct"] and result["failed"] == 0
        print(json.dumps({"smoke_ok": ok}))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required (or --smoke / --retrain)")
    if args.workload == "all":
        results = {}
        for workload in WORKLOADS:
            result, errors, host = run_workload(workload, args.seed, args.seconds, args.trace)
            _print_table(workload, result, errors, host)
            results[workload] = result
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result, errors, host = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _print_table(args.workload, result, errors, host)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
