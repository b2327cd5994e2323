"""Text rendering of routing certificates (``repro verify``): the entries
:func:`repro.analysis.verify.certify_config` returns, as PASS/FAIL lines
with their witnesses."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence


def certified(entry: Dict[str, Any]) -> bool:
    """Whether every check in one certificate entry passed."""
    if not entry["routing"]["certified"]:
        return False
    single = entry.get("single_link_kills")
    if single is not None and not single["certified"]:
        return False
    return all(s["certified"] for s in entry.get("multi_link_kills", []))


def _entry_lines(entry: Dict[str, Any]) -> List[str]:
    platform = entry["platform"]
    routing = entry["routing"]
    faults = len(platform["permanent_faults"])
    degraded = f", {faults} permanent faults applied" if faults else ""
    dims = "x".join(str(d) for d in platform["shape"])
    lines = [
        f"{entry.get('name', '<config>')}: {dims} {platform['topology']}, "
        f"{platform['routing']} routing, {platform['num_vcs']} VCs{degraded}"
    ]

    def line(label: str, ok: bool, detail: str) -> None:
        lines.append(f"  {label:<18} {'PASS' if ok else 'FAIL'}  {detail}")

    extra = (
        f" +{routing['extra_pairs']} best-effort" if routing["extra_pairs"] else ""
    )
    line(
        "connectivity",
        routing["connected"],
        f"{routing['delivered_pairs']}/{routing['expected_pairs']} expected "
        f"pairs{extra} (max route {routing['max_route_length']} hops)",
    )
    line(
        "livelock-freedom",
        routing["livelock_free"],
        f"progress metric: {routing['progress_metric']}",
    )
    line(
        "deadlock-freedom",
        routing["deadlock_free"],
        f"{routing['num_channels']} channels, "
        f"{routing['num_dependencies']} dependencies",
    )
    if not routing["connected"]:
        lines += [f"    unroutable: {pair}" for pair in routing["missing_pairs"]]
        lines += [f"    stuck: {state}" for state in routing["stuck_states"]]
    if not routing["livelock_free"]:
        lines += [
            f"    livelock witness: {step}" for step in routing["livelock_witness"]
        ]
    if not routing["deadlock_free"]:
        lines += [f"    deadlock witness: {step}" for step in routing["witness"]]
    single = entry.get("single_link_kills")
    if single is not None:
        line(
            "single-link kills",
            single["certified"],
            f"{single['trials']} exhaustive trials, min delivered fraction "
            f"{single['min_delivered_fraction']:.3f}",
        )
        lines += [f"    {failure}" for failure in single["failures"]]
    for sweep in entry.get("multi_link_kills", []):
        line(
            f"{sweep['kills_per_trial']}-link kills",
            sweep["certified"],
            f"{sweep['trials']} sampled trials (seed {sweep['seed']}), min "
            f"delivered fraction {sweep['min_delivered_fraction']:.3f}",
        )
        lines += [f"    {failure}" for failure in sweep["failures"]]
    return lines


def render_certificates(entries: Sequence[Dict[str, Any]]) -> str:
    """One block per entry, then the overall verdict line."""
    blocks = ["\n".join(_entry_lines(entry)) for entry in entries]
    passing = sum(certified(entry) for entry in entries)
    if passing == len(entries):
        blocks.append(f"{len(entries)} config(s): CERTIFIED")
    else:
        blocks.append(
            f"{passing} of {len(entries)} config(s) certified: NOT CERTIFIED"
        )
    return "\n\n".join(blocks)
