"""The four served workloads.

A worker process (``child.py``) drives one round of one workload
through these phases, timing each apart:

* ``load`` - one-off input assets (the trained LeNet cache).
* ``setup`` - everything the program needs before it can serve:
  quantization, building the cluster/fabric/fleet, ``deploy``.
* ``prepare_round`` - the benchmark's own inputs for one round: a fresh
  trace drawn from ``(seed, round)``.  Untimed.
* ``serve`` - the round itself, timed.
* ``check`` - the round's outputs against references computed in
  ``reference.py``, the accounting invariant and the energy ledger;
  then ``round_stats`` summarizes the round on the virtual clock.

Arrival rates are fixed constants on the modelled hardware's virtual
clock, so a seed offers the same traces to every commit; each is stated
as a fraction of the capacity measured when the benchmark was defined
(README.md).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

import reference
from repro import Cluster, Fabric, LightningDatapath, ShardSpec
from repro.core.dag import ComputationDAG, LayerTask
from repro.core.energy import EnergyModel
from repro.dnn import (
    Dataset,
    SIMULATION_MODELS,
    build_lenet_300_100,
    quantize_mlp,
    synthetic_mnist,
    train_mlp,
)
from repro.fabric import FailoverRouter, ModelPlacement, kill_shard
from repro.faults import FaultSchedule, RetryPolicy, WireFrame, requests_from_frames
from repro.net import InferenceRequest, build_inference_frame
from repro.photonics import BehavioralCore, CoreArchitecture, NoiselessModel
from repro.sim import BENCHMARK_PLATFORMS, lightning_chip, run_comparison
from repro.traffic import (
    AcceptAll,
    AdmissionController,
    FleetSpec,
    ModelMix,
    OpenLoopTraffic,
    PoissonProcess,
    serve_fabric_open_loop,
    serve_open_loop,
)

# --- LeNet-300-100 (Fig 16) -------------------------------------------------
LENET_MODEL_ID = 3
#: Training set-up of the Fig 16 stand-in: synthetic MNIST at the noise
#: level that lands int8 top-1 in the mid-90s.
LENET_DATA = dict(num_samples=6000, noise_std=95.0, seed=0)
LENET_TRAIN = 2080
LENET_EPOCHS = 20
LENET_CORES = 2
LENET_MAX_BATCH = 4
#: 0.6 x the 2-core capacity: one LeNet request holds a core for
#: 50.69 us of virtual time, so capacity is 2 / 50.69 us = 39,455 req/s.
#: (At 0.75 the median sits between the single-pass and the batched
#: serve times and moves by +-9 % from seed to seed; see README.md.)
LENET_RATE_RPS = 23_700.0
LENET_REQUESTS = 1024
#: Fig 16 reports 96.2 % photonic top-1; the floor leaves 5 points for
#: the synthetic data set and the sample.
LENET_TOP1_FLOOR = 0.962 - 0.05
#: Photonic predictions against the noiseless reference.
LENET_AGREEMENT_FLOOR = 0.95

# --- Stand-in zoo behind a failover fabric ----------------------------------
#: Input widths of the seven tiny dense nets, one per section 9 model.
ZOO_WIDTHS = (8, 12, 16, 16, 20, 24, 12)
ZOO_SHARDS = 2
ZOO_CORES_PER_SHARD = 4
#: 0.6 x one shard's capacity (the survivor carries the whole load after
#: the kill): 4 cores / 1.051 us mean service = 3.81 M req/s.
ZOO_RATE_RPS = 2.28e6
ZOO_REQUESTS = 4000
ZOO_KILLED_SHARD = 1

# --- Analytic fleet and the section 10 comparison ---------------------------
#: 0.9 x the capacity of 4 shards x 2 Lightning cores under the Zipf(1.2)
#: mix of the seven section 9 models (42,448 req/s).
FLEET_RATE_RPS = 38_200.0
FLEET_REQUESTS = 100_000
FLEET_ZIPF = 1.2
COMPARISON = dict(utilization=0.98, num_requests=2000, num_traces=10)

#: Sizes for ``--smoke``: every check still runs.
SMOKE = dict(lenet=128, zoo=300, fleet=5000, comparison_requests=200, comparison_traces=2)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(key)


def _poisson_arrivals(rng, rate_rps: float, n: int) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / rate_rps, n))


def _count(value) -> int:
    return value if isinstance(value, int) else len(value)


def _accounting(result, offered: int) -> list[str]:
    terms = dict(
        served=result.served,
        dropped=_count(result.dropped),
        failed=_count(result.failed),
        unfinished=_count(result.unfinished),
        shed=_count(getattr(result, "shed", 0)),
        failed_over=_count(getattr(result, "failed_over", 0)),
    )
    errors = []
    if sum(terms.values()) != result.offered:
        errors.append(f"accounting broken: {terms} vs offered={result.offered}")
    if result.offered != offered:
        errors.append(f"program saw {result.offered} offered, benchmark sent {offered}")
    return errors


def _ledger_errors(charged: float, records, model: EnergyModel) -> list[str]:
    formula = reference.three_source_joules(
        [r.compute_s for r in records],
        [r.datapath_s for r in records],
        [r.queuing_s for r in records],
        model.power_watts,
        model.datapath_power_watts,
        model.dram_power_watts,
    )
    if reference.ledger_matches(charged, formula):
        return []
    return [f"ledger {charged!r} J != three-source formula {formula!r} J"]


def _record_stats(records, charged_j: float) -> dict[str, float]:
    serve_us = np.array(
        [(r.queuing_s + r.datapath_s + r.compute_s) * 1e6 for r in records]
    )
    return {
        "served": len(records),
        "p50_us": float(np.percentile(serve_us, 50)),
        "p99_us": float(np.percentile(serve_us, 99)),
        "energy_j": charged_j,
        "dispatches": float(sum(1.0 / r.batch_size for r in records)),
        "queue_wait_s": float(sum(r.queuing_s for r in records)),
    }


def lenet_arrays(cache_dir: Path) -> dict[str, np.ndarray]:
    """The trained LeNet-300-100 and its data, cached on disk.

    Training takes a few seconds, so the first run writes
    ``lenet-<key>.npz`` under the cache directory and later runs load
    it; deleting the file (or ``run.py --retrain``) regenerates it.
    """
    key = hashlib.sha256(
        repr((LENET_DATA, LENET_TRAIN, LENET_EPOCHS)).encode()
    ).hexdigest()[:12]
    path = cache_dir / f"lenet-{key}.npz"
    if path.exists():
        with np.load(path) as cached:
            return dict(cached)
    data = synthetic_mnist(**LENET_DATA)
    train = Dataset(
        data.x[:LENET_TRAIN], data.y[:LENET_TRAIN], data.num_classes, data.name
    )
    model = train_mlp(
        [784, 300, 100, 10], train, epochs=LENET_EPOCHS, use_bias=False, name="lenet"
    ).model
    weights = [layer.weights for layer in model.layers if hasattr(layer, "weights")]
    arrays = {
        "w0": weights[0],
        "w1": weights[1],
        "w2": weights[2],
        "calibration": train.x[:256],
        "test_x": np.clip(np.round(data.x[LENET_TRAIN:]), 0, 255).astype(np.uint8),
        "test_y": data.y[LENET_TRAIN:],
    }
    cache_dir.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp.npz")
    np.savez(partial, **arrays)
    partial.replace(path)
    return arrays


class Workload:
    """Shared shape; subclasses fill in the phases."""

    name = ""
    #: Serve from one CPU (see ``child._pin_to_current_cpu``); a workload
    #: with worker processes must not, or its workers inherit the pin.
    pinned = True

    def __init__(self, seed: int, smoke: bool, cache_dir: Path, tracer) -> None:
        self.seed = seed
        self.smoke = smoke
        self.cache_dir = cache_dir
        self.tracer = tracer

    def load(self) -> None:
        pass

    def close(self) -> None:
        pass


class LenetFrames(Workload):
    """Fig 16 LeNet served from Ethernet/IPv4/UDP frames on 2 cores."""

    name = "lenet_frames"
    execution = "serial"

    def load(self) -> None:
        self.arrays = lenet_arrays(self.cache_dir)

    def setup(self, phase) -> None:
        with phase("quantize"):
            model = build_lenet_300_100()
            dense = [layer for layer in model.layers if hasattr(layer, "weights")]
            for layer, key in zip(dense, ("w0", "w1", "w2")):
                layer.weights = self.arrays[key]
            self.dag = quantize_mlp(
                model, self.arrays["calibration"], model_id=LENET_MODEL_ID,
                name="lenet-300-100",
            )
        base = self.seed * 64
        with phase("build"):
            self.cluster = Cluster(
                num_cores=LENET_CORES,
                datapath_factory=lambda core: LightningDatapath(
                    core=BehavioralCore(seed=base + core), seed=base + core
                ),
                max_batch=LENET_MAX_BATCH,
                execution=self.execution,
            )
        with phase("deploy"):
            self.cluster.deploy(self.dag)
        self.layers = reference.dense_layers(self.dag)

    def prepare_round(self, index: int) -> dict:
        n = SMOKE["lenet"] if self.smoke else LENET_REQUESTS
        rng = _rng(self.seed, index, 0x1E7)
        pool = len(self.arrays["test_y"])
        picks = rng.choice(pool, size=n, replace=n > pool)
        arrivals = _poisson_arrivals(rng, LENET_RATE_RPS, n)
        images = self.arrays["test_x"][picks]
        frames = [
            WireFrame(
                float(t),
                build_inference_frame(InferenceRequest(LENET_MODEL_ID, i, image)),
            )
            for i, (t, image) in enumerate(zip(arrivals, images))
        ]
        expected = np.argmax(reference.forward(self.layers, images), axis=1)
        return dict(
            frames=frames, labels=self.arrays["test_y"][picks],
            expected=expected, offered=n,
        )

    def serve(self, round_):
        result, _wire = self.cluster.serve_frames(round_["frames"])
        return result

    def check(self, round_, result) -> list[str]:
        offered = round_["offered"]
        errors = _accounting(result, offered)
        predictions = np.full(offered, -1)
        for record in result.records:
            predictions[record.request.request_id] = record.prediction
        served = predictions >= 0
        if served.any():
            agree = float(np.mean(predictions[served] == round_["expected"][served]))
            top1 = float(np.mean(predictions[served] == round_["labels"][served]))
            if agree < LENET_AGREEMENT_FLOOR:
                errors.append(f"agreement with reference {agree:.4f} < {LENET_AGREEMENT_FLOOR}")
            if top1 < LENET_TOP1_FLOOR:
                errors.append(f"top-1 {top1:.4f} < {LENET_TOP1_FLOOR:.3f}")
        ledger = self.cluster.stats.energy.total_joules
        round_["charged_j"] = ledger - getattr(self, "_ledger_before", 0.0)
        self._ledger_before = ledger
        errors += _ledger_errors(round_["charged_j"], result.records, self.cluster.energy_model)
        return errors

    def round_stats(self, round_, result) -> dict[str, float]:
        stats = _record_stats(result.records, round_["charged_j"])
        stats["recovered"] = 0.0
        return stats

    def close(self) -> None:
        cluster = getattr(self, "cluster", None)
        if cluster is not None:
            cluster.close()


class LenetParallel(LenetFrames):
    """The same traces with one worker process per core."""

    name = "lenet_parallel"
    execution = "parallel"
    pinned = False


def zoo_dag(model_id: int, width: int) -> ComputationDAG:
    """One tiny two-layer dense net of the stand-in zoo (fixed weights)."""
    rng = np.random.default_rng(1000 + model_id)
    half = width // 2
    return ComputationDAG(
        model_id,
        f"zoo-{model_id}",
        [
            LayerTask(
                name="fc1", kind="dense", input_size=width, output_size=half,
                weights_levels=rng.integers(-200, 201, (half, width)).astype(float),
                nonlinearity="relu", requant_divisor=float(width),
            ),
            LayerTask(
                name="fc2", kind="dense", input_size=half, output_size=4,
                weights_levels=rng.integers(-200, 201, (4, half)).astype(float),
                depends_on=("fc1",),
            ),
        ],
    )


class ZooFailover(Workload):
    """Seven tiny nets on a replicated 2-shard fabric; one shard dies."""

    name = "zoo_failover"

    def setup(self, phase) -> None:
        with phase("quantize"):
            self.zoo = [
                zoo_dag(model_id, width)
                for model_id, width in enumerate(ZOO_WIDTHS, start=1)
            ]
        arch = CoreArchitecture(accumulation_wavelengths=2)
        base = self.seed * 64
        with phase("build"):
            self.fabric = Fabric(
                [
                    ShardSpec(
                        num_cores=ZOO_CORES_PER_SHARD,
                        datapath_factory=lambda core: LightningDatapath(
                            core=BehavioralCore(architecture=arch, noise=NoiselessModel()),
                            seed=base + core,
                        ),
                    )
                    for _ in range(ZOO_SHARDS)
                ],
                router=FailoverRouter(),
                placement=ModelPlacement(replicas=2, auto_heal=True),
            )
        with phase("deploy"):
            for dag in self.zoo:
                self.fabric.deploy(dag)
        self.layers = [reference.dense_layers(dag) for dag in self.zoo]

    def prepare_round(self, index: int) -> dict:
        n = SMOKE["zoo"] if self.smoke else ZOO_REQUESTS
        rng = _rng(self.seed, index, 0x200)
        models = rng.integers(0, len(ZOO_WIDTHS), n)
        arrivals = _poisson_arrivals(rng, ZOO_RATE_RPS, n)
        inputs = [rng.integers(0, 256, ZOO_WIDTHS[m], dtype=np.uint8) for m in models]
        frames = [
            WireFrame(
                float(t),
                build_inference_frame(InferenceRequest(int(m) + 1, i, data)),
            )
            for i, (t, m, data) in enumerate(zip(arrivals, models, inputs))
        ]
        expected = np.full(n, -1)
        tied = np.zeros(n, dtype=bool)
        for m, layers in enumerate(self.layers):
            rows = np.flatnonzero(models == m)
            if len(rows):
                outputs = reference.forward(layers, np.stack([inputs[i] for i in rows]))
                expected[rows], tied[rows] = reference.top1_and_ties(outputs)
        schedule = FaultSchedule(seed=7)
        kill_shard(schedule, self.fabric, ZOO_KILLED_SHARD, float(arrivals[n // 2]))
        return dict(
            frames=frames, expected=expected, tied=tied, schedule=schedule, offered=n
        )

    def serve(self, round_):
        requests, round_["punted"] = requests_from_frames(round_["frames"])
        with self.tracer.span("traffic.gateway"):
            return serve_fabric_open_loop(
                self.fabric,
                requests,
                AdmissionController(AcceptAll()),
                fault_schedule=round_["schedule"],
                retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
            )

    def check(self, round_, result) -> list[str]:
        errors = _accounting(result, round_["offered"])
        if round_["punted"]:
            errors.append(f"{round_['punted']} frames punted at ingress")
        records = result.records()
        round_["records"] = records
        expected, tied = round_["expected"], round_["tied"]
        wrong = [
            r.request.request_id
            for r in records
            if r.prediction != expected[r.request.request_id]
            and not tied[r.request.request_id]
        ]
        if wrong:
            errors.append(f"{len(wrong)} predictions differ from the reference, e.g. {wrong[:5]}")
        ledger = self.fabric.stats.energy.total_joules
        round_["charged_j"] = ledger - getattr(self, "_ledger_before", 0.0)
        self._ledger_before = ledger
        errors += _ledger_errors(
            round_["charged_j"], records, self.fabric.shards[0].energy_model
        )
        return errors

    def round_stats(self, round_, result) -> dict[str, float]:
        stats = _record_stats(round_["records"], round_["charged_j"])
        stats["recovered"] = float(
            sum(r.served for r in result.recovery_results if r is not None)
        )
        return stats


class FleetCampaign(Workload):
    """The analytic fleet at 0.9 load, then the Figs 21/22 comparison."""

    name = "fleet_campaign"

    def setup(self, phase) -> None:
        self.requests = SMOKE["fleet"] if self.smoke else FLEET_REQUESTS
        self.comparison = dict(COMPARISON)
        if self.smoke:
            self.comparison.update(
                num_requests=SMOKE["comparison_requests"],
                num_traces=SMOKE["comparison_traces"],
            )
        with phase("build"):
            self.models = SIMULATION_MODELS()
            self.platforms = BENCHMARK_PLATFORMS()
            self.lightning = lightning_chip()
            self.mix = ModelMix.zipf(self.models, exponent=FLEET_ZIPF)
            # Queues as deep as the trace: no request can ever drop.
            self.spec = FleetSpec(
                self.lightning, num_shards=4, cores_per_shard=2,
                queue_capacity=self.requests,
            )
        self.energy = EnergyModel.from_accelerator(self.lightning)

    def prepare_round(self, index: int) -> dict:
        simulated = (
            2 * len(self.platforms)
            * self.comparison["num_traces"] * self.comparison["num_requests"]
        )
        return dict(
            traffic=OpenLoopTraffic(
                PoissonProcess(FLEET_RATE_RPS), self.mix,
                seed=self.seed, stream=index,
            ),
            comparison_seed=self.seed * 256 + index,
            offered=self.requests + simulated,
        )

    def serve(self, round_):
        with self.tracer.span("traffic.fleet"):
            fleet = serve_open_loop(round_["traffic"], self.requests, self.spec)
        comparison = run_comparison(
            self.models, self.platforms, self.lightning,
            seed=round_["comparison_seed"], **self.comparison,
        )
        return fleet, comparison

    def check(self, round_, result) -> list[str]:
        fleet, comparison = result
        errors = []
        terms = fleet.served + fleet.dropped + fleet.shed + fleet.unfinished
        if terms != fleet.offered or fleet.offered != self.requests:
            errors.append(
                f"fleet accounting broken: served={fleet.served} dropped={fleet.dropped} "
                f"shed={fleet.shed} unfinished={fleet.unfinished} offered={fleet.offered}"
            )
        expected_pairs = len(self.platforms) * len(self.models)
        got_pairs = sum(len(v) for v in comparison.speedups.values())
        if got_pairs != expected_pairs:
            errors.append(f"comparison covers {got_pairs} pairs, expected {expected_pairs}")
        for platform, per_model in comparison.speedups.items():
            for model, speedup in per_model.items():
                saving = comparison.energy_savings[platform][model]
                if not (speedup > 1.0 and saving > 1.0):
                    errors.append(
                        f"Lightning does not beat {platform} on {model}: "
                        f"speedup {speedup:.3f}, energy saving {saving:.3f}"
                    )
        aggregates = fleet.summary.per_model.values()
        formula = reference.three_source_joules(
            [a.compute_s for a in aggregates],
            [a.datapath_s for a in aggregates],
            [a.queuing_s for a in aggregates],
            self.energy.power_watts, self.energy.datapath_power_watts,
            self.energy.dram_power_watts,
        )
        if not reference.ledger_matches(fleet.energy.total_joules, formula):
            errors.append(
                f"ledger {fleet.energy.total_joules!r} J != three-source formula {formula!r} J"
            )
        return errors

    def round_stats(self, round_, result) -> dict[str, float]:
        fleet, _ = result
        p50, p99 = fleet.percentiles([50, 99])
        return {
            "served": fleet.served,
            # The comparison's simulated requests count in throughput.
            "completed": fleet.served + round_["offered"] - self.requests,
            "p50_us": p50 * 1e6,
            "p99_us": p99 * 1e6,
            "energy_j": fleet.energy.total_joules,
            "failed": self.requests - fleet.served,
            "dispatches": 0.0,
            "queue_wait_s": float(
                sum(a.queuing_s for a in fleet.summary.per_model.values())
            ),
            "recovered": 0.0,
        }


WORKLOADS = {
    cls.name: cls for cls in (LenetFrames, ZooFailover, FleetCampaign, LenetParallel)
}
