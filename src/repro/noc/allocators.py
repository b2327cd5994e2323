"""Separable virtual-channel and switch allocators (Figure 1's VA and SA).

Both allocators use the standard two-stage *separable input-first* structure
built from per-resource arbiters:

* **VA**: an input VC requests one output VC out of the candidate set the
  routing function returned; stage 1 selects one candidate per input VC
  (rotating), stage 2 arbitrates each contested output VC among requesters.
  Granted pairings persist in the router's state table until the tail flit
  releases the wormhole.
* **SA**: an active input VC with a buffered flit and downstream credit bids
  for the crossbar; stage 1 picks one VC per input port (one crossbar input
  per cycle), stage 2 picks one input port per output port.

The allocators are *mechanism only*: fault injection perturbs their grants
from the outside and the Allocation Comparator (:mod:`repro.core`) checks
them, exactly as in Figure 12 where the AC observes the VA/SA state tables.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.noc.arbiters import RoundRobinArbiter

#: (port, vc) pair identifying an input or output virtual channel.
VCId = Tuple[int, int]


class VCAllocator:
    """Separable input-first virtual-channel allocator.

    Parameters
    ----------
    num_ports, num_vcs:
        Router geometry; there are ``num_ports * num_vcs`` input VCs and as
        many output VCs.
    """

    def __init__(self, num_ports: int, num_vcs: int):
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self._input_rotation: Dict[VCId, int] = {}
        self._output_arbiters: Dict[VCId, RoundRobinArbiter] = {}
        n = num_ports * num_vcs
        for port in range(num_ports):
            for vc in range(num_vcs):
                self._output_arbiters[(port, vc)] = RoundRobinArbiter(n)

    def _input_choice(self, requester: VCId, candidates: Sequence[VCId]) -> VCId:
        """Stage 1: rotate through the candidate output VCs."""
        rotation = self._input_rotation.get(requester, 0)
        choice = candidates[rotation % len(candidates)]
        self._input_rotation[requester] = rotation + 1
        return choice

    def allocate(
        self,
        requests: Mapping[VCId, Sequence[VCId]],
        available: Mapping[VCId, bool],
    ) -> Dict[VCId, VCId]:
        """Run one allocation cycle.

        Parameters
        ----------
        requests:
            input VC -> non-empty sequence of candidate output VCs.
        available:
            output VC -> True if currently unallocated (and creditable).

        Returns
        -------
        dict mapping each granted input VC to its output VC.  Input VCs that
        lost arbitration simply retry next cycle.
        """
        # Stage 1: each input VC picks one available candidate.
        picks: Dict[VCId, VCId] = {}
        for requester, candidates in requests.items():
            usable = [c for c in candidates if available.get(c, False)]
            if not usable:
                continue
            picks[requester] = self._input_choice(requester, usable)

        # Stage 2: arbitrate contested output VCs.
        grants: Dict[VCId, VCId] = {}
        contested: Dict[VCId, List[VCId]] = {}
        for requester, out_vc in picks.items():
            contested.setdefault(out_vc, []).append(requester)
        V = self.num_vcs
        for out_vc, requesters in contested.items():
            idx = self._output_arbiters[out_vc].grant(
                [port * V + vc for port, vc in requesters]
            )
            assert idx is not None
            grants[(idx // V, idx % V)] = out_vc
        return grants


class SwitchAllocator:
    """Separable input-first switch allocator.

    One crossbar input per input *port* per cycle and one crossbar output
    per output *port* per cycle.
    """

    def __init__(self, num_ports: int, num_vcs: int):
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self._input_arbiters = [RoundRobinArbiter(num_vcs) for _ in range(num_ports)]
        self._output_arbiters = [RoundRobinArbiter(num_ports) for _ in range(num_ports)]

    def allocate(self, requests: Mapping[VCId, int]) -> Dict[VCId, int]:
        """Run one switch-allocation cycle.

        Parameters
        ----------
        requests:
            input VC -> requested output port.

        Returns
        -------
        dict mapping granted input VCs to output ports; at most one grant
        per input port and per output port.
        """
        # Stage 1: per input port, pick one requesting VC.
        requesting_ports: Dict[int, List[int]] = {}
        for port, vc in requests:
            requesting_ports.setdefault(port, []).append(vc)
        stage1: Dict[int, VCId] = {}
        for port, vcs in requesting_ports.items():
            vc = self._input_arbiters[port].grant(vcs)
            assert vc is not None
            stage1[port] = (port, vc)

        # Stage 2: per output port, pick one input port.
        grants: Dict[VCId, int] = {}
        bids: Dict[int, List[int]] = {}
        for in_vc in stage1.values():
            bids.setdefault(requests[in_vc], []).append(in_vc[0])
        for out_port, ports in bids.items():
            winner = self._output_arbiters[out_port].grant(ports)
            assert winner is not None
            grants[stage1[winner]] = out_port
        return grants
