"""Span tracing installed from outside the program.

The tracer wraps public calls of each layer of ``repro`` by replacing
class attributes (and one private CSR kernel method, the only handle on
the sparse contraction) at run time.  Nothing in ``src/`` knows about
it.  Each call records a span: name, start, end, the span that caused
it, and the request id when the call's arguments carry one.  A layer's
per-request cost is its *self* time: the span's duration minus the part
of it covered by child spans.

Spans are kept in memory (the first ``SPAN_CAP`` of them; totals and
counts are exact regardless) and written out as JSON lines at exit.

Cross-thread parenting: ``Fabric`` serves shards on worker threads.  A
span that opens on a thread with no open span of its own is parented
to the innermost open span of the thread that created the tracer, and
the parent subtracts the *union* of such overlapping child intervals.
Under the interpreter lock those threads also wait on each other, so
self times measured on them include lock waits.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

#: Spans kept in memory per traced process; later spans only feed totals.
SPAN_CAP = 100_000

_now = time.perf_counter_ns


class _Frame:
    __slots__ = ("span_id", "child_ns", "foreign")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.child_ns = 0
        self.foreign: list[tuple[int, int]] = []


def _union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _request_id(args, kwargs):
    candidate = kwargs.get("request")
    if candidate is None:
        for arg in args[1:3]:
            if hasattr(arg, "request_id"):
                candidate = arg
                break
    if candidate is not None:
        item = getattr(candidate, "item", candidate)
        rid = getattr(item, "request_id", None)
        if isinstance(rid, int):
            return rid
    return None


class Tracer:
    """In-memory span recorder with per-name self-time totals."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = self._stack()
        # Shard threads close spans concurrently; totals are
        # read-modify-write, so every update holds this lock.
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else None
        foreign = False
        if parent is None and stack is not self._home and self._home:
            parent = self._home[-1]
            foreign = True
        frame = _Frame(next(self._ids))
        stack.append(frame)
        return stack, frame, parent, foreign, _now()

    def _close(self, name, opened, request_id=None) -> None:
        stack, frame, parent, foreign, start = opened
        end = _now()
        stack.pop()
        duration = end - start
        covered = frame.child_ns
        if frame.foreign:
            covered += _union_ns(frame.foreign, start, end)
        with self._lock:
            self.self_ns[name] += max(duration - covered, 0)
            if parent is not None:
                if foreign:
                    parent.foreign.append((start, end))
                else:
                    parent.child_ns += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (
                        frame.span_id,
                        name,
                        start,
                        end,
                        parent.span_id if parent is not None else None,
                        request_id,
                    )
                )
            else:
                self.dropped_spans += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call site in the benchmark's own code."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, opened)

    # -- installation ----------------------------------------------------
    def _wrap(self, fn, name, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            opened = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, opened, _request_id(args, kwargs))
                if counter is not None:
                    key, measure = counter
                    count = measure(args, kwargs)
                    with tracer._lock:
                        tracer.counts[key] += count

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                opened = tracer._open()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(name, opened)
                yield item

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, counter=None, generator=False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        wrapper = (
            self._wrap_generator(original, name)
            if generator
            else self._wrap(original, name, counter)
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary listed in :data:`LAYER_CALLS`; a
        class or method that no longer exists is skipped, and its layer
        then reads 0."""
        for metric, module_name, owners, attrs, extra in LAYER_CALLS:
            module = importlib.import_module(module_name)
            for owner_name in owners:
                owner = getattr(module, owner_name, None)
                if owner is None:
                    continue
                for attr in attrs:
                    if attr not in owner.__dict__:
                        continue
                    self.patch(owner, attr, metric, **extra)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the kept spans as JSON lines (header line first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(
                json.dumps(
                    {
                        "fields": [
                            "id", "name", "start_ns", "end_ns",
                            "parent", "request_id",
                        ],
                        "kept": len(self.spans),
                        "dropped": self.dropped_spans,
                    }
                )
                + "\n"
            )
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _readouts(args, kwargs):
    out = args[1] if len(args) > 1 else kwargs["out"]
    return int(out.shape[0])


def _trace_length(args, kwargs):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    return len(trace)


#: (metric, module, classes, methods, patch options).  The call-site
#: spans ``traffic.gateway`` and ``traffic.fleet`` are opened by the
#: workloads themselves around ``serve_fabric_open_loop`` and
#: ``serve_open_loop``.
LAYER_CALLS = [
    ("net.parse", "repro.net.parser", ["PacketParser"], ["parse"], {}),
    (
        "traffic.admission", "repro.traffic.admission",
        ["AdmissionController"], ["admit"], {},
    ),
    (
        "fabric.route", "repro.fabric.router",
        ["LeastLoadedShardRouter", "HashShardRouter", "SwitchShardRouter"],
        ["route"], {},
    ),
    ("fabric.route", "repro.fabric.lifecycle", ["FailoverRouter"], ["route"], {}),
    ("fabric.serve_routed", "repro.fabric.fabric", ["Fabric"], ["serve_routed"], {}),
    ("runtime.cluster", "repro.runtime.cluster", ["Cluster"], ["serve_trace"], {}),
    (
        "runtime.schedulers", "repro.runtime.schedulers",
        [
            "RoundRobinScheduler", "LeastLoadedScheduler",
            "WeightedFairScheduler", "HealthAwareScheduler",
        ],
        ["assign"], {},
    ),
    ("runtime.queues", "repro.runtime.queues", ["AdmissionQueue"], ["offer", "pop"], {}),
    ("runtime.parallel.submit", "repro.runtime.parallel", ["CoreWorkerPool"], ["run"], {}),
    ("runtime.parallel.join_wait", "repro.runtime.parallel", ["CoreWorkerPool"], ["result"], {}),
    (
        "core.timing", "repro.core.datapath", ["LightningDatapath"],
        ["execute_timing", "execute_batch_timing"], {},
    ),
    (
        "core.datapath", "repro.core.datapath", ["LightningDatapath"],
        ["execute", "execute_batch"], {},
    ),
    (
        "core.plans", "repro.core.plans",
        ["DensePlan", "ConvPlan", "AttentionPlan", "PoolPlan"],
        ["execute"], {},
    ),
    ("core.stats", "repro.core.stats", ["ServerStats"], ["record"], {}),
    ("core.stats", "repro.core.stats", ["EnergyLedger"], ["charge"], {}),
    ("core.stats", "repro.sim.simulator", ["StreamedSummary"], ["observe"], {}),
    (
        "photonics.readout_noise", "repro.photonics.core", ["BehavioralCore"],
        ["readout_noise_into"],
        {"counter": ("photonics.readouts", _readouts)},
    ),
    (
        "photonics.contraction", "repro.photonics.core", ["BehavioralCore"],
        ["accumulate_into"], {},
    ),
    (
        "photonics.contraction", "repro.core.plans", ["DensePlan"],
        ["_clean_partials_csr"], {},
    ),
    ("photonics.reseed", "repro.photonics.core", ["BehavioralCore"], ["reseed_noise"], {}),
    (
        "traffic.arrivals", "repro.traffic.mix", ["OpenLoopTraffic"],
        ["chunks"], {"generator": True},
    ),
    (
        "sim.simulator", "repro.sim.simulator", ["EventDrivenSimulator"],
        ["run"], {"counter": ("sim.simulated_requests", _trace_length)},
    ),
]


class NullTracer:
    """The untraced stand-in: call-site spans cost one no-op context."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield
