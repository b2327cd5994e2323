"""Engine microbenchmarks: simulator throughput and hot primitives.

These are the only benches where pytest-benchmark's repeated timing is the
point (the figure benches time one full regeneration instead).
"""

from benchmarks.workloads import (
    DEFAULT_CYCLES,
    build_idle_network,
    build_loaded_network,
    build_saturation_network,
    run_cycles,
)
from repro.coding.hamming import HammingSecDed
from repro.noc.allocators import SwitchAllocator


def test_simulation_cycles_per_second(benchmark):
    """Cycles/second of a loaded 8x8 mesh (the figure benches' workhorse)."""

    def setup():
        return (build_loaded_network(), DEFAULT_CYCLES["loaded"]), {}

    benchmark.pedantic(run_cycles, setup=setup, rounds=5, iterations=1)


def test_simulation_idle_mesh_cycles_per_second(benchmark):
    """Cycles/second of a completely idle 8x8 mesh.

    The activity-driven loop's best case: nothing is queued, so each step
    only checks the empty active sets.  Compare against the same point with
    the reference polling loop (``tools/bench_record.py`` records both) to
    see the fast path's headline speedup.
    """

    def setup():
        return (build_idle_network(), DEFAULT_CYCLES["idle"]), {}

    benchmark.pedantic(run_cycles, setup=setup, rounds=5, iterations=1)


def test_simulation_saturation_cycles_per_second(benchmark):
    """Cycles/second of a saturated 8x8 mesh (every router busy).

    The activity-driven loop's worst case: the active sets hold all 64
    nodes every cycle, so this measures its bookkeeping overhead relative
    to plain polling.  ``tools/bench_record.py --check`` enforces that the
    overhead stays within bounds.
    """

    def setup():
        return (build_saturation_network(), DEFAULT_CYCLES["saturation"]), {}

    benchmark.pedantic(run_cycles, setup=setup, rounds=5, iterations=1)


def test_simulation_batched_cycles_per_second(benchmark):
    """Cycles/second of the loaded 8x8 mesh on the batched kernel.

    Same workload as ``test_simulation_cycles_per_second``, run on
    ``backend="batched"`` (``repro.noc.kernel``).  ``tools/bench_record.py
    --check`` ratchets this point at 5x the PR 5 object-loop record — see
    docs/KERNEL.md and docs/PERFORMANCE.md for the model.
    """

    def setup():
        return (
            (build_loaded_network(backend="batched"), DEFAULT_CYCLES["loaded"]),
            {},
        )

    benchmark.pedantic(run_cycles, setup=setup, rounds=5, iterations=1)


def test_switch_allocator_throughput(benchmark):
    sa = SwitchAllocator(5, 3)
    bids = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (2, 2): 3, (3, 0): 4, (4, 1): 0}
    benchmark(sa.allocate, bids)


def test_hamming_decode_throughput(benchmark):
    codec = HammingSecDed(64)
    word = codec.flip_bits(codec.encode(0xDEAD_BEEF_CAFE_F00D), (17,))
    result = benchmark(codec.decode, word)
    assert result.data == 0xDEAD_BEEF_CAFE_F00D
