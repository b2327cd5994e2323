"""Shared workload builders for the simulator speed benchmarks.

Three operating points bracket the scheduler's behaviour space:

* **idle** — an 8x8 mesh with nothing queued anywhere.  The full polling
  loop still walks all 64 routers and interfaces every cycle; the
  activity-driven loop touches only the empty active sets.  This is the
  point the fast path exists for (long drain tails, low-rate campaigns).
* **loaded** — the historical workhorse: two packets queued per node, a
  mixed phase where some routers drain while others still carry traffic.
* **saturation** — enough packets queued per node that every router stays
  busy for the whole measured window.  Here the active sets contain every
  node, so this point measures the fast path's bookkeeping overhead — the
  regression floor ``tools/bench_record.py --check`` enforces.

Both the pytest-benchmark suite (``bench_simulator_speed.py``) and the
trajectory recorder (``tools/bench_record.py``) build their networks here so
the two always measure the same thing.
"""

from __future__ import annotations

import os
import random
import tempfile
import time

from repro.config import NoCConfig, SimulationConfig, WorkloadConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.simulator import Simulator
from tests.conftest import reference_loop


def build_idle_network(backend: str = "object") -> Network:
    """An 8x8 mesh with no traffic at all."""
    return Network(SimulationConfig(noc=NoCConfig(), backend=backend))


def _enqueue_uniform(net: Network, packets_per_node: int, seed: int = 1) -> None:
    rng = random.Random(seed)
    pid = 0
    num_nodes = net.config.noc.num_nodes
    for node in range(num_nodes):
        for _ in range(packets_per_node):
            dst = rng.randrange(num_nodes - 1)
            dst = dst if dst < node else dst + 1
            net.interfaces[node].enqueue(Packet(pid, node, dst, 4, 0))
            pid += 1


def build_loaded_network(backend: str = "object") -> Network:
    """An 8x8 mesh with two uniform-random packets queued per node."""
    net = build_idle_network(backend)
    _enqueue_uniform(net, packets_per_node=2)
    return net


def build_saturation_network(backend: str = "object") -> Network:
    """An 8x8 mesh with deep per-node queues: every router busy throughout.

    Twenty 4-flit packets per node keep injection queues non-empty for far
    longer than the measured window, so the activity-driven loop's active
    sets hold all 64 nodes every cycle — its worst case.
    """
    net = build_idle_network(backend)
    _enqueue_uniform(net, packets_per_node=20)
    return net


WORKLOADS = {
    "idle": build_idle_network,
    "loaded": build_loaded_network,
    "saturation": build_saturation_network,
}

#: Cycles each workload runs per measurement; idle cycles are so cheap on
#: the fast path that a large count is needed for a stable timer reading.
DEFAULT_CYCLES = {"idle": 2000, "loaded": 100, "saturation": 100}


def run_cycles(net: Network, cycles: int) -> None:
    for _ in range(cycles):
        net.step()


def measure_cycles_per_second(
    workload: str,
    activity_driven: bool,
    cycles: int | None = None,
    rounds: int = 3,
    backend: str = "object",
) -> float:
    """Best-of-``rounds`` cycles/second for one (workload, loop, backend)
    point.

    ``activity_driven=False`` times the reference polling loop, swapped in
    by the same ``reference_loop`` helper the equivalence suites use (the
    package has no switch for it).  Each round builds a fresh network
    (measurements start from the same state) and times ``cycles`` steps;
    best-of defends against scheduler noise the same way
    pytest-benchmark's ``min`` column does.  These workloads are
    fault-free, so ``backend="batched"`` runs the struct-of-arrays kernel
    (``repro.noc.kernel``) rather than falling back.
    """
    n = cycles if cycles is not None else DEFAULT_CYCLES[workload]
    builder = WORKLOADS[workload]
    best = float("inf")
    for _ in range(rounds):
        net = builder(backend)
        with reference_loop(not activity_driven):
            t0 = time.perf_counter()
            run_cycles(net, n)
            best = min(best, time.perf_counter() - t0)
    return n / best


#: The checkpoint-overhead point runs a loaded *closed-loop* Simulator (the
#: bare-Network workloads above have no checkpoint machinery) for this many
#: cycles, snapshotting every ``CHECKPOINT_BENCH_INTERVAL`` — two full
#: save_checkpoint() calls (pickle + fsync + rename) land inside the window,
#: which is the cadence a long campaign run would actually use (a loaded 8x8
#: mesh simulates a few hundred cycles/second, so this snapshots every few
#: wall-clock seconds).
CHECKPOINT_BENCH_CYCLES = 2000
CHECKPOINT_BENCH_INTERVAL = 1000


def _loaded_simulator_config(checkpoint_path: str | None) -> SimulationConfig:
    """An 8x8 closed-loop config that stays loaded for the whole window."""
    return SimulationConfig(
        noc=NoCConfig(),
        workload=WorkloadConfig(
            injection_rate=0.25,
            num_messages=10**9,
            warmup_messages=100,
            max_cycles=10**9,
        ),
        checkpoint_interval=(
            CHECKPOINT_BENCH_INTERVAL if checkpoint_path is not None else None
        ),
        checkpoint_path=checkpoint_path,
    )


def measure_checkpoint_overhead(
    cycles: int = CHECKPOINT_BENCH_CYCLES, rounds: int = 3
) -> dict:
    """Throughput of a loaded run with and without auto-checkpointing.

    Returns ``{"plain": cps, "checkpointed": cps}`` for an identical loaded
    Simulator run; ``tools/bench_record.py --check`` enforces that the ratio
    stays within the documented overhead budget (docs/CHECKPOINTING.md).

    The two snapshots in the window cost ~100ms against a multi-second run,
    so the signal (a few percent) is smaller than this machine class's
    run-to-run timing noise.  Timing each variant in its own best-of block
    would therefore measure scheduler luck, not checkpointing: instead each
    round times the two variants *back to back* (so they sample the same
    noise epoch) and the reported ratio is the best paired ratio — a lower
    bound on true overhead that still catches real regressions, since a
    checkpoint path that became expensive drags every round down.
    """

    def timed(checkpoint_path: str | None) -> float:
        sim = Simulator(_loaded_simulator_config(checkpoint_path))
        t0 = time.perf_counter()
        sim.run_to_cycle(cycles)
        return time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as tmp:
        path = os.path.join(tmp, "bench.ckpt")
        best_plain = float("inf")
        best_ratio = 0.0
        for _ in range(rounds):
            plain_elapsed = timed(None)
            ckpt_elapsed = timed(path)
            best_plain = min(best_plain, plain_elapsed)
            best_ratio = max(best_ratio, plain_elapsed / ckpt_elapsed)
    plain = cycles / best_plain
    return {"plain": plain, "checkpointed": plain * min(best_ratio, 1.0)}
