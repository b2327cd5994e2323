"""Experiment harness: one module per paper table/figure.

Each figure module exposes a ``run_*`` function returning structured rows
and a pure ``tables(results)`` that picks out the series the paper plots
(title, x axis, one series per legend label).  ``python -m repro figure N``
and the benchmarks in ``benchmarks/`` both call ``run_*`` and print
``tables()`` through :func:`repro.report.charts.render_figure`;
``EXPERIMENTS.md`` records the measured outputs against the paper's claims.

Scaling: the paper simulates 300,000 ejected messages per point; a pure-
Python simulator cannot afford that per sweep point, so every function takes
``num_messages`` / ``warmup`` parameters with defaults small enough for
interactive use.  Curve shapes converge long before the paper's counts at
these injection rates.  (The package imports none of its modules, so
``import repro.api`` compiles :mod:`~repro.experiments.degradation` only.)
"""
