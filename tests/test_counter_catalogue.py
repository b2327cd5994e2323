"""The counter catalogue in ``stats/collectors.py`` matches the source.

The module docstring of :mod:`repro.stats.collectors` documents every
counter name the code base increments.  That table drifted once (PR 1 added
counters without documenting them); this test makes the drift impossible by
comparing the documented names against every ``stats.count(...)`` call
site under ``src/``, in both directions.
"""

import pathlib
import re

import repro.stats.collectors as collectors

SRC_ROOT = pathlib.Path(collectors.__file__).resolve().parents[1]

#: A literal-name counting call site.  Digits are significant
#: (``e2e_retransmissions``); ``str.count("1")`` in the coding modules does
#: not match because it requires the ``stats.`` receiver.
CALL_SITE = re.compile(r'stats\.count\(\s*"([a-z0-9_]+)"')

TABLE_ROW = re.compile(r"^``([a-z0-9_]+)``", re.MULTILINE)


def documented_counters():
    doc = collectors.__doc__
    # Only names inside the rst table (between the first and last rulers)
    # count as catalogue entries.
    first = doc.index("====")
    last = doc.rindex("====")
    return set(TABLE_ROW.findall(doc[first:last]))


def incremented_counters():
    names = set()
    for path in SRC_ROOT.rglob("*.py"):
        names.update(CALL_SITE.findall(path.read_text()))
    return names


def test_src_root_is_the_package_root():
    assert (SRC_ROOT / "noc" / "router.py").exists()


def test_counting_call_sites_use_literal_names():
    """Every counting call passes a string literal, so the catalogue check
    below actually sees all names (a variable name would hide one)."""
    dynamic = re.compile(r"stats\.count(?:_measured)?\(\s*[^\s\")]")
    offenders = []
    for path in SRC_ROOT.rglob("*.py"):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if dynamic.search(line):
                offenders.append(f"{path.relative_to(SRC_ROOT)}:{i}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def test_every_incremented_counter_is_documented():
    missing = incremented_counters() - documented_counters()
    assert not missing, (
        f"counters incremented in src/ but absent from the "
        f"stats/collectors.py catalogue: {sorted(missing)}"
    )


def test_every_documented_counter_is_incremented():
    stale = documented_counters() - incremented_counters()
    assert not stale, (
        f"counters documented in stats/collectors.py but never incremented "
        f"in src/: {sorted(stale)}"
    )
