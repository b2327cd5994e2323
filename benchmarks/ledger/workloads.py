"""The four pinned workloads of the ledger.

Each workload is built from ``(scale, seed, workdir)`` alone: the seed is
added to the workload's base seed, the program under test receives only the
generated configs.  ``run`` is the timed section and returns ``(segments,
raw outputs)``: the wall-clock of each consecutive part of the section, cut
where the program calls back into something the harness can see from outside
(a figure point, a sweep point, a checkpoint, a campaign phase), so that the
harness can tell a quiet host from a disturbed one at a fraction of a second.
``summarize`` (untimed) turns the raw outputs into a :class:`Unit` of digests
and exact simulated counts; ``verify`` (untimed) holds the workload's own
correctness checks.

Sizes are pinned per scale: ``full`` is the size the paper figure and the
fleet campaign really have, ``bench`` is one repeatable unit of the
time-boxed benchmark (a run repeats it for its ``--seconds``), ``smoke`` is a
seconds-long self-test.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import api, checkpoint
from repro.campaign import campaign_row_to_dict
from repro.experiments import figure5
from repro.experiments.common import ERROR_RATES, INJECTION_RATES
from repro.noc.topology import make_topology

# By name, not through ``api``: the tracer rebinds these inside ``repro``'s
# modules only, so the harness's own digesting is never counted as the
# program's serialization or cache work.
from repro.serialization import config_to_dict, result_to_dict
from repro.service.cache import cache_key, result_core
from repro.types import FaultSite

from benchmarks.ledger.tracer import Tracer

SCALES = ("smoke", "bench", "full")

#: The only numbers a builder tunes; everything else about a workload is
#: fixed by its class below.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "fig5_fault_sweep": {
        "smoke": {"messages": 60, "error_rates": (1e-3, 1e-1)},
        "bench": {"messages": 300, "error_rates": ERROR_RATES},
        "full": {"messages": 1500, "error_rates": ERROR_RATES},
    },
    "faultfree_rate_sweep_batched": {
        "smoke": {"messages": 200, "rates": (0.1, 1.0)},
        "bench": {"messages": 1200, "rates": INJECTION_RATES},
        "full": {"messages": 12000, "rates": INJECTION_RATES},
    },
    "lowrate_3d_observed": {
        "smoke": {"messages": 500, "checkpoint_interval": 500},
        "bench": {"messages": 3000, "checkpoint_interval": 2500},
        "full": {"messages": 20000, "checkpoint_interval": 5000},
    },
    "campaign_service_mix": {
        "smoke": {"cold": 4, "duplicates": 1, "new": 1, "messages": 100},
        "bench": {"cold": 16, "duplicates": 2, "new": 4, "messages": 300},
        "full": {"cold": 64, "duplicates": 8, "new": 16, "messages": 500},
    },
}


@dataclass
class Unit:
    """What one repetition of a workload produced (all exact, all simulated)."""

    digests: List[str]
    cycles: int
    packets: int
    lost: int
    retransmissions: int
    ops: int
    failed: int
    problems: List[str] = field(default_factory=list)


def digest(obj: Any) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result: api.SimulationResult) -> str:
    # Without the config: it names the checkpoint path, which differs per
    # checkout; everything else in the dict is simulated and deterministic.
    return digest(result_to_dict(result, include_config=False))


def results_unit(results: Sequence[api.SimulationResult]) -> Unit:
    limited = [i for i, r in enumerate(results) if r.hit_cycle_limit]
    return Unit(
        digests=[result_digest(r) for r in results],
        cycles=sum(r.cycles for r in results),
        packets=sum(r.packets_delivered for r in results),
        lost=sum(r.packets_lost for r in results),
        retransmissions=sum(r.counter("retransmission_rounds") for r in results),
        ops=len(results),
        failed=len(limited),
        problems=[f"result {i} hit the cycle limit" for i in limited],
    )


@contextmanager
def cut_at(
    owner: Any, attr: str, around: Callable[[], ContextManager[Any]] = nullcontext
) -> Iterator[Tuple[List[float], List[Any]]]:
    """Inside the body, note when each call of ``owner.attr`` returned and
    what: the cuts of a timed section (two clock reads a call, so only for
    callables the program calls a few times a second)."""
    original = getattr(owner, attr)
    cuts: List[float] = []
    returned: List[Any] = []

    def noted(*args: Any, **kwargs: Any) -> Any:
        with around():
            value = original(*args, **kwargs)
        cuts.append(time.perf_counter())
        returned.append(value)
        return value

    setattr(owner, attr, noted)
    try:
        yield cuts, returned
    finally:
        setattr(owner, attr, original)


def segments(start: float, cuts: Sequence[float], end: float) -> List[float]:
    """The walls of the parts ``cuts`` divide ``start``..``end`` into."""
    edges = [start, *cuts, end]
    return [after - before for before, after in zip(edges, edges[1:])]


class Workload:
    name: str
    base_seed: int
    #: Worker processes the workload starts (their memory counts too).
    processes = 0

    def __init__(self, scale: str, seed: int, workdir: Path):
        self.size = SIZES[self.name][scale]
        self.scale = scale
        self.seed = self.base_seed + seed
        self.workdir = workdir
        #: Set by the harness for the traced repetitions only.
        self.tracer: Optional[Tracer] = None
        self.build()

    def scope(self, name: str, layer: str) -> ContextManager[Any]:
        """A scope span when tracing, nothing otherwise."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, layer, scope=True)

    def build(self) -> None:
        raise NotImplementedError

    def run(self, index: int) -> Tuple[List[float], Any]:
        raise NotImplementedError

    def summarize(self, raw: Any) -> Unit:
        return results_unit(raw)

    def verify(self, raw: Any, unit: Unit) -> List[Tuple[str, bool]]:
        """Extra ``(check name, passed)`` pairs; each is one attempted op."""
        return []


class Fig5FaultSweep(Workload):
    """``experiments.figure5.run_figure5()``: 3 schemes x the error-rate axis
    on the paper's 8x8 mesh at injection 0.25 — the ROADMAP's "wall-clock for
    ``repro figure 5``".  Every point with a nonzero error rate runs the
    object loop: router pipeline, fault injector and retransmission."""

    name = "fig5_fault_sweep"
    base_seed = 7

    def build(self) -> None:
        self.kwargs = {
            "error_rates": self.size["error_rates"],
            "num_messages": self.size["messages"],
            "warmup": self.size["messages"] // 5,
            "seed": self.seed,
        }

    def run(self, index: int) -> Tuple[List[float], Any]:
        # run_figure5 returns latency points, not results; take the results
        # (cycles, digests) where the figure asks for them, one cut a point.
        point = partial(self.scope, "figure5.point", "experiments")
        with cut_at(figure5, "run_simulation", point) as (cuts, results):
            start = time.perf_counter()
            series = figure5.run_figure5(**self.kwargs)
            end = time.perf_counter()
        return segments(start, cuts, end), (results, series)

    def summarize(self, raw: Any) -> Unit:
        return results_unit(raw[0])

    def verify(self, raw: Any, unit: Unit) -> List[Tuple[str, bool]]:
        if self.scale != "full" or self.seed != self.base_seed:
            return []
        series = raw[1]
        measured = [
            [f"{series[s][i].avg_latency:.2f}" for s in ("hbh", "e2e", "fec")]
            for i in range(len(ERROR_RATES))
        ]
        return [("EXPERIMENTS.md Figure 5 table", measured == documented_figure5())]


def documented_figure5() -> List[List[str]]:
    """The HBH/E2E/FEC latency cells of EXPERIMENTS.md's Figure 5 table."""
    root = Path(__file__).resolve().parents[2]
    text = (root / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = text.split("## Figure 5", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| 1e-\d \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$", section, re.M)
    return [list(row) for row in rows]


class FaultfreeRateSweepBatched(Workload):
    """``api.sweep`` of the paper 8x8 HBH config on ``backend="batched"``
    over the Figure 8/9 injection axis.  The kernel does all the cycle work
    and no router object is ever called: the workload a router optimisation
    must not move and a kernel optimisation must."""

    name = "faultfree_rate_sweep_batched"
    base_seed = 11

    def build(self) -> None:
        messages = self.size["messages"]
        self.config = api.load_config(
            backend="batched", messages=messages, warmup=messages // 5, seed=self.seed
        )
        self.rates = list(self.size["rates"])

    def run(self, index: int) -> Tuple[List[float], Any]:
        with cut_at(api, "run_simulation") as (cuts, _results):  # a cut a point
            start = time.perf_counter()
            results = api.sweep(self.config, rates=self.rates)
            end = time.perf_counter()
        return segments(start, cuts, end), results

    def verify(self, raw: Any, unit: Unit) -> List[Tuple[str, bool]]:
        reference = api.sweep(
            api.load_config(self.config, backend="object"), rates=self.rates[:1]
        )[0]
        return [("point 0 equals backend=object", result_digest(reference) == unit.digests[0])]


class Lowrate3dObserved(Workload):
    """One long closed-loop run on a 4x4x4 mesh with slow TSVs at injection
    0.02, transient link errors, four bursty sites that never wear out,
    telemetry every 100 cycles and periodic checkpoints, through
    ``api.run(telemetry_path=...)``.  Routers are mostly idle, so the fixed
    per-cycle work of ``Network.step`` and the observers dominate."""

    name = "lowrate_3d_observed"
    base_seed = 23

    def build(self) -> None:
        rng = random.Random(self.seed)
        topology = make_topology("mesh3d", (4, 4, 4), (1, 1, 2))
        links = [
            (node, direction)
            for node in topology.nodes()
            for direction in topology.connected_directions(node)
        ]
        sites = [
            api.IntermittentFault(node, direction, rate=0.3, mean_on=30, mean_off=300)
            for node, direction in rng.sample(links, 4)
        ]
        messages = self.size["messages"]
        self.ndjson = self.workdir / "telemetry.ndjson"
        self.checkpoint = self.workdir / "run.ckpt"
        self.config = api.load_config(
            shape="4x4x4",
            link_latency="1,1,2",
            retx_depth=5,
            rate=0.02,
            messages=messages,
            warmup=messages // 5,
            faults=api.FaultConfig(
                rates={FaultSite.LINK: 1e-4},
                intermittent=api.IntermittentFaultSchedule.of(*sites),
                # Never reached: the sites stay intermittent all run long.
                wear_out=api.WearOutConfig(threshold=1e12),
            ),
            seed=self.seed,
            telemetry=api.TelemetryConfig(enabled=True, metrics_interval=100),
            checkpoint_interval=self.size["checkpoint_interval"],
            checkpoint_path=str(self.checkpoint),
        )

    def run(self, index: int) -> Tuple[List[float], Any]:
        # The simulator looks ``save_checkpoint`` up at each call: a cut a
        # checkpoint, the last part ending with the NDJSON export.
        with cut_at(checkpoint, "save_checkpoint") as (cuts, _paths):
            start = time.perf_counter()
            result = api.run(self.config, telemetry_path=self.ndjson)
            end = time.perf_counter()
        return segments(start, cuts, end), [result]

    def verify(self, raw: Any, unit: Unit) -> List[Tuple[str, bool]]:
        with open(self.ndjson, encoding="utf-8") as fh:
            problems = api.validate_ndjson_lines(fh)
        resumed = api.resume(self.checkpoint)
        return [
            ("telemetry NDJSON validates", not problems),
            ("resume from the last checkpoint", result_digest(resumed) == unit.digests[0]),
        ]


class CampaignServiceMix(Workload):
    """A pinned session through ``api.campaign``/``api.resume_campaign``
    with two worker processes, a journal, a result cache and checkpoints:
    (a) a cold grid — three quarters faulted HBH/E2E/FEC, one quarter
    fault-free, all asking for ``backend="batched"``, a few exact
    duplicates; (b) a resume from a copy of the journal cut where half the
    variants were done; (c) the grid again plus new variants, mostly cache
    hits.  The only workload above one ``Simulator.run``."""

    name = "campaign_service_mix"
    base_seed = 31
    processes = 2
    checkpoint_interval = 500

    def build(self) -> None:
        size = self.size
        fresh = size["cold"] - size["duplicates"]
        cold = [self._variant(i) for i in range(fresh)]
        cold += [(f"dup-of-{name}", config) for name, config in cold[: size["duplicates"]]]
        self.cold = cold
        self.new = [self._variant(i) for i in range(fresh, fresh + size["new"])]

    def _variant(self, i: int) -> Tuple[str, api.SimulationConfig]:
        messages = self.size["messages"]
        scheme = ("hbh", "e2e", "fec")[i % 3]
        error_rate = 0.0 if i % 4 == 3 else (1e-3, 1e-2)[(i // 4) % 2]
        rate = (0.05, 0.1, 0.2, 0.3)[(i // 2) % 4]
        config = api.load_config(
            backend="batched",
            scheme=scheme,
            rate=rate,
            messages=messages,
            warmup=messages // 5,
            link_error_rate=error_rate,
            seed=self.seed + i,
        )
        return f"v{i:03d}-{scheme}-inj{rate}-err{error_rate}", config

    def _session(self, root: Path, phase: str) -> Dict[str, Any]:
        return {
            "processes": self.processes,
            "checkpoint_dir": str(root / f"ckpt-{phase}"),
            "checkpoint_interval": self.checkpoint_interval,
        }

    def run(self, index: int) -> Tuple[List[float], Any]:
        root = self.workdir / f"unit-{index}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        tracer = self.tracer
        walls = {}
        stats = {}

        start = time.perf_counter()
        with self.scope("phase.cold", "campaign"):
            cold, stats["cold"] = api.campaign(
                self.cold,
                journal_path=str(root / "cold.journal"),
                cache_dir=str(root / "cache"),
                return_stats=True,
                **self._session(root, "cold"),
            )
        walls["cold"] = time.perf_counter() - start

        cut_journal(root / "cold.journal", root / "resume.journal", len(self.cold) // 2)
        start = time.perf_counter()
        with self.scope("phase.resume", "campaign"):
            resumed, stats["resume"] = api.resume_campaign(
                str(root / "resume.journal"),
                cache_dir=str(root / "cache-resume"),
                **self._session(root, "resume"),
            )
        walls["resume"] = time.perf_counter() - start

        start = time.perf_counter()
        with self.scope("phase.warm", "campaign"):
            warm, stats["warm"] = api.campaign(
                self.cold + self.new,
                journal_path=str(root / "warm.journal"),
                cache_dir=str(root / "cache"),
                return_stats=True,
                **self._session(root, "warm"),
            )
        walls["warm"] = time.perf_counter() - start

        if tracer is not None:
            unique = {cache_key(config_to_dict(c)): c for _n, c in self.cold}
            start = time.perf_counter()
            for config in unique.values():
                with self.scope("variant", "campaign"):
                    api.run(config)
            tracer.count("campaign.variant_sim_s", time.perf_counter() - start)
            tracer.count("runner.cold_variants", len(self.cold))
            tracer.count("runner.cold_worker_s", walls["cold"] * self.processes)
            for phase, wall in walls.items():
                tracer.count(f"runner.{phase}_s", wall)
            for phase_stats in stats.values():
                tracer.count("runner.attempts", phase_stats["attempts"])
                tracer.count("runner.retries", phase_stats["retries"])
            for journal in root.glob("*.journal"):
                tracer.count("journal.bytes", journal.stat().st_size)
        return list(walls.values()), (cold, resumed, warm)

    def summarize(self, raw: Any) -> Unit:
        cold, resumed, warm = ([_row_core(row) for row in rows] for rows in raw)
        rows = [row for phase in raw for row in phase]
        problems = [f"row {row.name!r} failed: {row.error}" for row in rows if row.failed]
        n = len(cold)
        problems += [
            f"{phase} row {i} differs from the cold row"
            for phase, cores in (("resumed", resumed), ("warm", warm[:n]))
            for i in range(n)
            if i >= len(cores) or cores[i] != cold[i]
        ]
        return Unit(
            digests=[digest(core) for core in cold + warm[n:]],
            cycles=sum(_row_cycles(row) for row in rows),
            packets=sum(row.packets_delivered for row in rows),
            lost=sum(row.packets_lost for row in rows),
            retransmissions=sum(row.counter("retransmission_rounds") for row in rows),
            ops=len(rows),
            failed=len(problems),
            problems=problems,
        )


def _row_core(row: api.CampaignRow) -> Dict[str, Any]:
    return result_core(campaign_row_to_dict(row))


def _row_cycles(row: api.CampaignRow) -> int:
    """A campaign row carries throughput, not cycles: invert
    ``throughput = delivered flits / (cycles * nodes)``."""
    if not row.throughput:
        return 0
    noc = row.config.noc
    flits = row.packets_delivered * noc.flits_per_packet
    return round(flits / (row.throughput * noc.num_nodes))


def cut_journal(source: Path, target: Path, done: int) -> None:
    """Copy ``source`` up to and including its ``done``-th ``done`` record —
    what a supervisor killed at that record boundary leaves behind."""
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    seen = 0
    for end, line in enumerate(lines[2:], start=3):  # magic + header first
        if json.loads(line).get("type") == "done":
            seen += 1
            if seen == done:
                break
    target.write_text("".join(lines[:end]), encoding="utf-8")


WORKLOADS = {
    cls.name: cls
    for cls in (
        Fig5FaultSweep,
        FaultfreeRateSweepBatched,
        Lowrate3dObserved,
        CampaignServiceMix,
    )
}


def filesystem_type(path: Path) -> str:
    """The type of the filesystem ``path`` lives on (``unknown`` off Linux):
    journal and checkpoint fsyncs cost nothing on tmpfs."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _dev, mount, kind = line.split()[:3]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype
