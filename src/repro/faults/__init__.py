"""Fault modelling and injection.

The injector introduces single-event upsets at the seven sites of
:class:`repro.types.FaultSite` with independently configurable rates
(Section 2.2: "various soft faults were randomly generated both within the
routers and on the inter-router links").

Injection is *behavioural* — it perturbs decisions and tags flits — and
detection elsewhere in the system uses only information the hardware would
have, never the injector's ground truth.

Permanent (hard) faults live in :mod:`repro.faults.permanent`: a
:class:`PermanentFaultSchedule` of links/routers/VC buffers that die at a
given cycle, applied by the network and rerouted around.

Between the two sits :mod:`repro.faults.intermittent`: bursty per-site
fault processes whose accumulated stress can *escalate* a site into the
permanent machinery (the transient → intermittent → wear-out → permanent
lifecycle, docs/FAULTS.md).
"""

from repro.faults.injector import FaultInjector
from repro.faults.intermittent import (
    IntermittentFault,
    IntermittentFaultSchedule,
    IntermittentLifecycle,
    WearOutConfig,
)
from repro.faults.permanent import PermanentFault, PermanentFaultSchedule

__all__ = [
    "FaultInjector",
    "IntermittentFault",
    "IntermittentFaultSchedule",
    "IntermittentLifecycle",
    "PermanentFault",
    "PermanentFaultSchedule",
    "WearOutConfig",
]
