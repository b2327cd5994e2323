"""Outside-in tracing: class-level wrappers around each layer's public callables.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the callables it lists with timing wrappers and :meth:`Tracer.remove`
puts the originals back (``verify_removed`` proves it with ``is``).  A wrapper
records only while a span is open: what the harness itself calls between
units (digesting results) is not the program's work.

Two kinds of wrapper share one call stack, so a frame's *self* time is its
duration minus the part its wrapped children cover:

* **coarse** boundaries (run, figure point, campaign phase, variant,
  checkpoint, journal append, cache op, worker spawn, NDJSON export) are kept
  as individual spans;
* **per-cycle** callables only accumulate ``calls``/``total_s``/``self_s``;
  the pending sums are emitted as one aggregate span per callable whenever a
  *scope* span (unit, figure point, campaign phase, variant, run) opens or
  closes, so every aggregate names the run it belongs to.

All clocks are host time (``time.perf_counter``).  The wrappers read no
simulation state and return what the wrapped callable returned, so a traced
run produces the same results as an untraced one — the harness checks that.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: key -> [calls, total_s, self_s], flushed sums plus coarse spans.
        self.totals: Dict[str, List[float]] = {}
        #: Exact counts read at the boundaries (cycles, bytes, hits, ...).
        self.counts: Dict[str, float] = {}
        self._stack: List[List[float]] = []  # one [child_s] per open frame
        self._open: List[Dict[str, Any]] = []  # open coarse spans
        self._pending: Dict[str, List[float]] = {}
        self._layers: Dict[str, str] = {}
        #: (owner, attribute, original ``__dict__`` entry or _MISSING)
        self._patched: List[Tuple[Any, str, Any]] = []
        #: (module-level function, its wrapper)
        self._functions: List[Tuple[Callable, Callable]] = []

    # -- recording -------------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def span(
        self, name: str, layer: str, scope: bool = False
    ) -> Iterator[Dict[str, Any]]:
        """Record one coarse span around the ``with`` body.

        A ``scope`` span starts a new run id (its own span id) that its
        children inherit, and owns the aggregate spans of the per-cycle
        calls made while it is the innermost scope."""
        parent = self._open[-1] if self._open else None
        if scope and parent:
            self._flush(parent)
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": parent["id"] if parent else None,
            "run": parent["run"] if parent else 0,
            "start": 0.0,
            "end": 0.0,
        }
        if scope:
            span["run"] = span["id"]
        self.spans.append(span)
        self._open.append(span)
        frame = [0.0]
        self._stack.append(frame)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            duration = span["end"] - span["start"]
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            span["self_s"] = duration - frame[0]
            if scope:
                self._flush(span)
            self._open.pop()
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += duration
            total[2] += span["self_s"]

    def _flush(self, owner: Dict[str, Any]) -> None:
        """Emit the pending per-cycle sums as aggregate spans under ``owner``
        (still open when a child scope is about to start)."""
        for key, acc in self._pending.items():
            if not acc[0]:
                continue
            self.spans.append(
                {
                    "id": len(self.spans),
                    "name": key,
                    "layer": self._layers[key],
                    "parent": owner["id"],
                    "run": owner["run"],
                    "start": owner["start"],
                    "end": owner["end"] or time.perf_counter(),
                    "aggregate": True,
                    "calls": acc[0],
                    "total_s": acc[1],
                    "self_s": acc[2],
                }
            )
            total = self.totals.setdefault(key, [0, 0.0, 0.0])
            for i in range(3):
                total[i] += acc[i]
                acc[i] = 0

    def _aggregate(self, key: str, layer: str, fn: Callable) -> Callable:
        acc = self._pending.setdefault(key, [0, 0.0, 0.0])
        self._layers[key] = layer
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack:  # outside every span: the harness's own call
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[0]

        return wrapper

    def _coarse(
        self,
        key: str,
        layer: str,
        fn: Callable,
        after: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self._stack:  # outside every span: the harness's own call
                return fn(*args, **kwargs)
            with self.span(key, layer):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- reading ---------------------------------------------------------------

    def calls(self, *keys: str) -> int:
        return int(sum(self.totals.get(k, (0, 0, 0))[0] for k in keys))

    def total_s(self, *keys: str) -> float:
        return sum(self.totals.get(k, (0, 0, 0))[1] for k in keys)

    def self_s(self, *keys: str) -> float:
        return sum(self.totals.get(k, (0, 0, 0))[2] for k in keys)

    def durations(self, name: str) -> List[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and not s.get("aggregate")
        ]

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer over every recorded span."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span["layer"]] = out.get(span["layer"], 0.0) + span["self_s"]
        return out

    def write(self, path: str, **header: Any) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, spans=self.spans), fh)

    # -- patching ----------------------------------------------------------------

    def _set(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def _wrapper(
        self,
        key: str,
        layer: str,
        fn: Callable,
        after: Optional[Callable[[Any, tuple], None]],
        coarse: bool,
    ) -> Callable:
        if coarse or after is not None:
            return self._coarse(key, layer, fn, after)
        return self._aggregate(key, layer, fn)

    def _wrap_method(
        self,
        owner: type,
        attr: str,
        layer: str,
        after: Optional[Callable[[Any, tuple], None]] = None,
        coarse: bool = False,
    ) -> None:
        key = f"{owner.__name__}.{attr}"
        fn = getattr(owner, attr)
        self._set(owner, attr, self._wrapper(key, layer, fn, after, coarse))

    def _wrap_overrides(
        self, base: type, attr: str, layer: str, key: Optional[str] = None
    ) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that overrides it,
        under one key (default ``Base.attr``)."""
        key = key or f"{base.__name__}.{attr}"
        pending = [base]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if attr in vars(cls):
                self._set(cls, attr, self._aggregate(key, layer, vars(cls)[attr]))

    def _wrap_function(
        self,
        fn: Callable,
        layer: str,
        after: Optional[Callable[[Any, tuple], None]] = None,
        coarse: bool = False,
    ) -> None:
        """Rebind a module-level function in every loaded ``repro`` module
        that imported it by name."""
        wrapper = self._wrapper(fn.__name__, layer, fn, after, coarse)
        self._functions.append((fn, wrapper))
        _rebind(fn, wrapper)

    def install(self) -> None:
        """Wrap every layer's public callables (class level / module level)."""
        from repro.analysis import linter
        from repro.faults.injector import FaultInjector
        from repro.faults.intermittent import IntermittentLifecycle
        from repro.noc.kernel import BatchedKernel
        from repro.noc.network import Network, NetworkInterface
        from repro.noc.router import Router
        from repro.noc.simulator import Simulator
        from repro import checkpoint, serialization
        from repro.service import cache, journal
        from repro.telemetry import export
        from repro.telemetry.bus import TelemetryBus
        from repro.traffic.injection import InjectionProcess
        from repro.traffic.patterns import TrafficPattern

        count = self.count

        def network_built(_result: Any, args: tuple) -> None:
            network = args[0]
            if network.config.backend == "batched":
                engaged = network.kernel is not None
                count("kernel.engaged_runs" if engaged else "kernel.fallback_runs")

        self._wrap_method(Network, "__init__", "noc.network", after=network_built)
        self._wrap_method(Network, "step", "noc.network")
        self._wrap_method(NetworkInterface, "inject", "noc.network")
        self._wrap_method(NetworkInterface, "receive", "noc.network")
        self._wrap_method(Router, "receive", "noc.router")
        self._wrap_method(Router, "compute", "noc.router")
        self._wrap_method(BatchedKernel, "step", "noc.kernel")
        self._wrap_method(Simulator, "advance", "noc.simulator")
        self._set(Simulator, "run", self._traced_run(Simulator.run))
        self._wrap_overrides(InjectionProcess, "fires", "traffic")
        self._wrap_overrides(TrafficPattern, "destination", "traffic")
        for name in [n for n in vars(FaultInjector) if n.endswith("_upset")]:
            self._wrap_overrides(
                FaultInjector, name, "faults.injector", key="FaultInjector.upset"
            )
        self._wrap_method(IntermittentLifecycle, "advance", "faults.intermittent")
        self._wrap_method(TelemetryBus, "on_cycle_end", "telemetry.bus")
        self._wrap_method(TelemetryBus, "publish", "telemetry.bus")

        def report_built(report: Any, _args: tuple) -> None:
            count("telemetry.samples", sum(len(s) for s in report.series.values()))

        self._wrap_method(
            TelemetryBus, "build_report", "telemetry.bus", after=report_built
        )
        self._wrap_function(
            export.write_ndjson,
            "telemetry.export",
            after=lambda _r, args: count(
                "telemetry.export.bytes", os.path.getsize(args[1])
            ),
        )
        self._wrap_function(
            checkpoint.save_checkpoint,
            "checkpoint",
            after=lambda path, _a: count("checkpoint.bytes", os.path.getsize(path)),
        )
        self._wrap_function(checkpoint.load_checkpoint, "checkpoint", coarse=True)
        self._wrap_function(serialization.config_to_dict, "serialization")
        self._wrap_function(serialization.config_from_dict, "serialization")
        self._wrap_function(serialization.result_to_dict, "serialization")
        self._wrap_function(linter.lint_config, "analysis.linter")
        self._wrap_method(
            journal.CampaignJournal, "append", "service.journal", coarse=True
        )
        self._wrap_function(journal.read_journal, "service.journal")
        self._wrap_function(cache.cache_key, "service.cache")
        self._wrap_method(
            cache.ResultCache,
            "get",
            "service.cache",
            after=lambda hit, _a: count("cache.hits", hit is not None),
        )
        self._wrap_method(cache.ResultCache, "put", "service.cache", coarse=True)
        self._wrap_method(
            multiprocessing.Process, "start", "service.runner", coarse=True
        )

    def _traced_run(self, original: Callable) -> Callable:
        """``Simulator.run`` with the closed loop driven from here, so the
        loop, each ``advance`` and the final result build are timed apart.
        ``original`` then finds nothing left to simulate and only finalizes."""
        finalize = self._aggregate("Simulator.finalize", "noc.simulator", original)

        @functools.wraps(original)
        def run(sim: Any) -> Any:
            if not self._stack:  # outside every span: the harness's own call
                return original(sim)
            with self.span("Simulator.run", "noc.simulator", scope=True):
                while sim.should_continue():
                    sim.advance()
                result = finalize(sim)
            self.count("packets_generated", result.packets_injected)
            self.count("router_slots", result.cycles * len(sim.network.routers))
            return result

        return run

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        for owner, attr, original in reversed(self._patched):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        for fn, wrapper in self._functions:
            _rebind(wrapper, fn)

    def verify_removed(self) -> List[str]:
        """Names of wrapped attributes that are not identical (``is``) to the
        original any more; empty once :meth:`remove` restored everything."""
        bad = [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner).get(attr, _MISSING) is not original
        ]
        wrappers = {id(wrapper) for _fn, wrapper in self._functions}
        for name, module in _repro_modules():
            bad += [
                f"{name}.{attr}"
                for attr, value in vars(module).items()
                if id(value) in wrappers
            ]
        return bad


def _repro_modules() -> List[Tuple[str, Any]]:
    return [
        (name, module)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _rebind(old: Any, new: Any) -> None:
    for _name, module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer,
    units: int,
    simulated: Any,
    untraced_wall_s: float,
    traced_wall_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, per traced unit: times are
    means over the ``units`` traced repetitions, counts are exact (each
    repetition makes the same calls), zero where the layer was bypassed.
    ``simulated`` is the workload's :class:`~benchmarks.ledger.workloads.Unit`,
    the same exact counts the end-to-end metrics divide by."""
    calls = lambda *keys: tracer.calls(*keys) / units  # noqa: E731
    total = lambda *keys: tracer.total_s(*keys) / units  # noqa: E731
    own = lambda *keys: tracer.self_s(*keys) / units  # noqa: E731
    count = lambda key: tracer.counts.get(key, 0) / units  # noqa: E731
    ni = ("NetworkInterface.inject", "NetworkInterface.receive")
    serial = ("config_to_dict", "config_from_dict", "result_to_dict")
    appends = tracer.durations("CampaignJournal.append")
    points = tracer.durations("figure5.point")
    cold_s = count("runner.cold_s")
    return {
        "noc.network.build_s": total("Network.__init__"),
        "noc.network.step_calls": calls("Network.step"),
        "noc.network.step_s": total("Network.step"),
        "noc.network.step_self_s": own("Network.step"),
        "noc.network.ni_s": total(*ni),
        "noc.network.ni_calls": calls(*ni),
        "noc.router.receive_s": total("Router.receive"),
        "noc.router.compute_s": total("Router.compute"),
        "noc.router.calls": calls("Router.receive", "Router.compute"),
        "noc.router.active_ratio": _ratio(
            calls("Router.compute"), count("router_slots")
        ),
        "noc.kernel.step_s": total("BatchedKernel.step"),
        "noc.kernel.step_calls": calls("BatchedKernel.step"),
        "noc.kernel.engaged_runs": count("kernel.engaged_runs"),
        "noc.kernel.fallback_runs": count("kernel.fallback_runs"),
        "noc.simulator.advance_s": total("Simulator.advance"),
        "noc.simulator.self_s": own(
            "Simulator.run", "Simulator.advance", "Simulator.finalize"
        ),
        "noc.simulator.finalize_s": total("Simulator.finalize"),
        "traffic.fires_s": total("InjectionProcess.fires"),
        "traffic.fires_calls": calls("InjectionProcess.fires"),
        "traffic.destination_s": total("TrafficPattern.destination"),
        "traffic.packets_generated": count("packets_generated"),
        "faults.injector.s": total("FaultInjector.upset"),
        "faults.injector.calls": calls("FaultInjector.upset"),
        "faults.intermittent.advance_s": total("IntermittentLifecycle.advance"),
        "faults.intermittent.advance_calls": calls("IntermittentLifecycle.advance"),
        "telemetry.bus.cycle_end_s": total("TelemetryBus.on_cycle_end"),
        "telemetry.bus.samples": count("telemetry.samples"),
        "telemetry.bus.events_published": calls("TelemetryBus.publish"),
        "telemetry.bus.report_s": total("TelemetryBus.build_report"),
        "telemetry.export.write_s": total("write_ndjson"),
        "telemetry.export.bytes": count("telemetry.export.bytes"),
        "checkpoint.save_s": total("save_checkpoint"),
        "checkpoint.save_calls": calls("save_checkpoint"),
        "checkpoint.bytes": count("checkpoint.bytes"),
        "checkpoint.load_s": total("load_checkpoint"),
        "serialization.config_s": total("config_to_dict", "config_from_dict"),
        "serialization.result_s": total("result_to_dict"),
        "serialization.calls": calls(*serial),
        "analysis.linter.lint_s": total("lint_config"),
        "analysis.linter.calls": calls("lint_config"),
        "service.journal.appends": calls("CampaignJournal.append"),
        "service.journal.append_s": total("CampaignJournal.append"),
        "service.journal.append_p50_ms": percentile(appends, 0.5) * 1e3,
        "service.journal.append_p90_ms": percentile(appends, 0.9) * 1e3,
        "service.journal.read_s": total("read_journal"),
        "service.journal.bytes": count("journal.bytes"),
        "service.cache.key_s": total("cache_key"),
        "service.cache.gets": calls("ResultCache.get"),
        "service.cache.get_s": total("ResultCache.get"),
        "service.cache.hits": count("cache.hits"),
        "service.cache.hit_ratio": _ratio(
            count("cache.hits"), calls("ResultCache.get")
        ),
        "service.cache.puts": calls("ResultCache.put"),
        "service.cache.put_s": total("ResultCache.put"),
        "service.runner.spawns": calls("Process.start"),
        "service.runner.spawn_s": total("Process.start"),
        "service.runner.attempts": count("runner.attempts"),
        "service.runner.retries": count("runner.retries"),
        "service.runner.cold_variants_per_s": _ratio(
            count("runner.cold_variants"), cold_s
        ),
        "service.runner.resume_s": count("runner.resume_s"),
        "service.runner.warm_s": count("runner.warm_s"),
        "service.runner.overhead_share": (
            1 - count("campaign.variant_sim_s") / count("runner.cold_worker_s")
            if cold_s
            else 0.0
        ),
        "campaign.variant_sim_s": count("campaign.variant_sim_s"),
        "experiments.figure5.point_s_p50": percentile(points, 0.5),
        "experiments.figure5.point_s_max": max(points, default=0.0),
        "sim.cycles": simulated.cycles,
        "sim.packets_delivered": simulated.packets,
        "sim.packets_lost": simulated.lost,
        "sim.retransmission_rounds": simulated.retransmissions,
        "sim.host_us_per_cycle": _ratio(untraced_wall_s * 1e6, simulated.cycles),
        "sim.host_us_per_packet": _ratio(untraced_wall_s * 1e6, simulated.packets),
        "host.calib_s": calibrate(),
        "host.nproc": os.cpu_count() or 0,
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
    }


def calibrate() -> float:
    """Host seconds for a fixed pure-Python loop: divide another machine's
    host times by the ratio of the two to compare them."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - start
