"""Experiment harness: one module per paper table/figure.

Each figure module exposes a ``run_*`` function returning structured rows,
a pure ``tables(results)`` that picks out the series the paper plots and a
pure ``claims(results)`` that states what the paper says about them as named
``value op bound`` rows.  ``python -m repro figure N`` prints ``tables()``;
``paper.build_paper_claims`` runs every figure once into ``CLAIMS_paper.json``
(``tools/record.py``), from which ``EXPERIMENTS.md``'s tables are generated.

Scaling: the paper simulates 300,000 ejected messages per point; the
``num_messages`` / ``warmup`` defaults are 1,500 / 300, at which the whole
artefact builds in about two minutes (200x that at the paper's count).
Curve shapes converge long before the paper's counts at these injection
rates.  (The package imports none of its modules, so ``import repro.api``
compiles :mod:`~repro.experiments.degradation` only.)
"""
