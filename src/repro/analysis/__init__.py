"""Static analysis and run-time invariant checking — the "NoC linter".

Three passes, all reporting through one diagnostic format
(:mod:`repro.analysis.diagnostics`):

* **CDG pass** (:mod:`repro.analysis.cdg`) — builds the channel-dependency
  graph of a (topology, routing function) pair and proves deadlock freedom
  or produces a concrete witness cycle.  It and the ``repro verify``
  traversal pass (:mod:`repro.analysis.verify`) read one routing walk
  (:func:`~repro.analysis.cdg.routing_walk`), so they ask a routing
  function the same question once and decide its edge cases alike.
* **Config lint pass** (:mod:`repro.analysis.rules`,
  :mod:`repro.analysis.linter`) — the ``NOC0xx`` rule catalogue over
  :class:`~repro.config.SimulationConfig` objects, raw dicts and JSON files;
  wired into ``repro lint`` and campaign startup.
* **Invariant sanitizer** (:mod:`repro.analysis.sanitizer`) — the opt-in
  per-cycle ``SIM1xx`` checks over a live network.
"""

from repro.analysis.cdg import (
    CDGVerdict,
    Channel,
    ChannelDependencyGraph,
    verify_deadlock_freedom,
)
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.analysis.linter import (
    cdg_verdict_for,
    lint_config,
    lint_dict,
    lint_paths,
)
from repro.analysis.rules import LintContext, iter_rules, rule_catalogue
from repro.analysis.sanitizer import InvariantSanitizer, InvariantViolationError

__all__ = [
    "CDGVerdict",
    "Channel",
    "ChannelDependencyGraph",
    "Diagnostic",
    "DiagnosticReport",
    "InvariantSanitizer",
    "InvariantViolationError",
    "LintContext",
    "Severity",
    "cdg_verdict_for",
    "iter_rules",
    "lint_config",
    "lint_dict",
    "lint_paths",
    "rule_catalogue",
    "verify_deadlock_freedom",
]
