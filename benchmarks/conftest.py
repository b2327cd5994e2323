"""Benchmark configuration.

Every benchmark regenerates one paper table/figure and prints the same
rows/series the paper reports.  Scale knobs (the paper uses 300,000 ejected
messages per point, which a pure-Python simulator cannot afford per sweep):

* ``REPRO_BENCH_MESSAGES`` — ejected messages per sweep point (default 1200)
* ``REPRO_BENCH_WARMUP`` — warm-up messages excluded from stats (default 240)

Raise them for tighter confidence; curve shapes are stable from a few
hundred messages at these injection rates.
"""

import os

import pytest

BENCH_MESSAGES = int(os.environ.get("REPRO_BENCH_MESSAGES", "1200"))
BENCH_WARMUP = int(os.environ.get("REPRO_BENCH_WARMUP", "240"))


@pytest.fixture(scope="session")
def bench_scale():
    return {"num_messages": BENCH_MESSAGES, "warmup": BENCH_WARMUP}


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole-figure regeneration exactly once under the timer.

    Simulation sweeps are long; pytest-benchmark's default calibration
    would re-run them dozens of times.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_tables(tables):
    """Print a figure's ``tables(results)`` the way ``repro figure N
    --no-chart`` does."""
    # Imported here: benchmarks/ledger's self-test loads this conftest
    # before it has put src/ on the path.
    from repro.report import render_figure

    for table in tables:
        print()
        print(render_figure(*table, chart=False))
