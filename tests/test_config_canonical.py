"""ROADMAP 4(d): semantically equal configs are one config.

However a platform is spelled — legacy ``noc.width``/``noc.height`` dict
keys or ``shape``; ``mesh`` or ``mesh3d`` (``torus``/``torus3d``) on three
axes; an int or a uniform-tuple link latency; with or without an
``activity_driven`` key of either value — it must build equal
:class:`SimulationConfig` objects, serialize to equal bytes and hash to one
cache key, and the serialized form must be a fixed point of
load-then-dump.  A source guard keeps the second spelling from growing
back anywhere but :func:`repro.serialization.upgrade_config_dict`.
"""

import copy
import inspect
import json
import pathlib
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.linter import lint_config
from repro.config import NoCConfig, SimulationConfig, WorkloadConfig
from repro.serialization import (
    config_from_dict,
    config_to_dict,
    upgrade_config_dict,
)
from repro.service import cache_key
from repro.types import RoutingAlgorithm


@st.composite
def platforms(draw) -> SimulationConfig:
    """A lint-clean platform: 2 or 3 axes, mesh or torus, any latency."""
    ndim = draw(st.sampled_from([2, 3]))
    torus = draw(st.booleans())
    shape = tuple(
        draw(st.integers(min_value=3 if torus else 2, max_value=4))
        for _ in range(ndim)
    )
    uniform = draw(st.booleans())
    latency = (
        draw(st.integers(min_value=1, max_value=2))
        if uniform
        else tuple(draw(st.integers(min_value=1, max_value=3)) for _ in shape)
    )
    max_latency = latency if isinstance(latency, int) else max(latency)
    flits = draw(st.integers(min_value=2, max_value=4))
    depth = flits + draw(st.integers(min_value=0, max_value=2))
    config = SimulationConfig(
        noc=NoCConfig(
            shape=shape,
            topology="torus" if torus else "mesh",
            link_latency=latency,
            num_vcs=draw(st.integers(min_value=2, max_value=3)),
            vc_buffer_depth=depth,
            flits_per_packet=flits,
            # Deep enough for NOC002 at this latency and, with recovery
            # on, for NOC001's Eq. 1 bound.
            retx_buffer_depth=max(2 * max_latency + 1, depth + flits),
            # XY on a torus needs recovery to break its wrap cycles
            # (NOC008 is an error without it).
            deadlock_recovery_enabled=torus,
            routing=RoutingAlgorithm.XY
            if torus
            else draw(
                st.sampled_from([RoutingAlgorithm.XY, RoutingAlgorithm.WEST_FIRST])
            ),
        ),
        workload=WorkloadConfig(
            injection_rate=draw(st.sampled_from([0.05, 0.1, 0.2])),
            num_messages=draw(st.integers(min_value=50, max_value=500)),
            warmup_messages=draw(st.integers(min_value=0, max_value=40)),
            seed=draw(st.integers(min_value=0, max_value=2**31)),
        ),
        backend=draw(st.sampled_from(["object", "batched"])),
    )
    assert not lint_config(config, cdg=False).errors
    return config


def spellings(canonical: dict) -> list:
    """Every accepted serialized spelling of ``canonical``."""
    noc = canonical["noc"]
    geometries = [{}]
    if len(noc["shape"]) == 2:
        geometries.append({"shape": None, "width": noc["shape"][0],
                           "height": noc["shape"][1]})
    else:
        geometries.append({"topology": noc["topology"].replace("3d", "")})
    latencies = [{}]
    if isinstance(noc["link_latency"], int):
        latencies.append(
            {"link_latency": [noc["link_latency"]] * len(noc["shape"])}
        )
        if noc["link_latency"] == 1:
            latencies.append({"link_latency": None})  # pre-PR 9: key absent
    out = []
    for geometry in geometries:
        for latency in latencies:
            for flag in ({}, {"activity_driven": True}, {"activity_driven": False}):
                data = copy.deepcopy(canonical)
                data.update(flag)
                data["noc"].update(geometry)
                data["noc"].update(latency)
                data["noc"] = {
                    k: v for k, v in data["noc"].items() if v is not None
                }
                out.append(data)
    return out


def _bytes(config: SimulationConfig) -> str:
    return json.dumps(config_to_dict(config), sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(platforms())
def test_every_spelling_is_one_config(config):
    canonical = config_to_dict(config)
    assert config_from_dict(canonical) == config
    assert config_to_dict(config_from_dict(canonical)) == canonical  # fixed point
    variants = spellings(canonical)
    assert len(variants) >= 6
    for data in variants:
        loaded = config_from_dict(data)
        assert loaded == config
        assert _bytes(loaded) == _bytes(config)
        assert cache_key(config_to_dict(loaded)) == cache_key(canonical)
        assert upgrade_config_dict(upgrade_config_dict(data)) == (
            upgrade_config_dict(data)
        )


def test_constructor_spellings_are_one_object():
    plain = SimulationConfig(noc=NoCConfig(shape=(4, 4, 4)))
    spelled = SimulationConfig(
        noc=NoCConfig(shape=[4, 4, 4], topology="mesh3d", link_latency=(1, 1, 1))
    )
    assert plain == spelled and hash(plain.noc) == hash(spelled.noc)
    assert plain.noc.topology == "mesh3d" and plain.noc.link_latency == 1
    for config in (plain, spelled):
        assert config_from_dict(config_to_dict(config)) == plain
    torus = NoCConfig(shape=(3, 3, 3), topology="torus")
    assert torus == NoCConfig(shape=(3, 3, 3), topology="torus3d")


def test_constructors_take_exactly_their_stored_fields():
    def init_names(cls):
        return [p for p in inspect.signature(cls.__init__).parameters if p != "self"]

    assert len(init_names(SimulationConfig)) == 11
    assert len(init_names(NoCConfig)) == 17
    removed = {"width", "height", "activity_driven"}
    assert not removed & set(init_names(SimulationConfig) + init_names(NoCConfig))
    assert not {"shape", "topology", "link_latency"} & set(init_names(SimulationConfig))


SRC = pathlib.Path(repro.__file__).parent

#: Where a geometry *spelling* decision could hide (the acceptance grep);
#: ``noc/topology.py`` keeps ``width``/``height`` as geometry vocabulary.
SPELLING_MODULES = [
    "config.py", "api.py", "cli", "serialization.py",
    "experiments", "analysis", "telemetry",
]


def test_second_spelling_lives_only_in_the_upgrade():
    """``activity_driven`` anywhere in the package, or ``width``/``height``
    as a config key or keyword in the modules that spell geometry, may
    appear only inside ``upgrade_config_dict``."""
    lines, first = inspect.getsourcelines(upgrade_config_dict)
    home = (SRC / "serialization.py", range(first, first + len(lines)))

    def offenders(paths, pattern):
        found = []
        for path in paths:
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if re.search(pattern, line) and not (
                    path == home[0] and number in home[1]
                ):
                    found.append(f"{path.relative_to(SRC)}:{number}: {line.strip()}")
        return found

    geometry = [
        path
        for name in SPELLING_MODULES
        for path in ([SRC / name] if name.endswith(".py") else (SRC / name).rglob("*.py"))
    ]
    assert offenders(SRC.rglob("*.py"), r"activity_driven") == []
    assert offenders(geometry, r"""["'](width|height)["']|\b(width|height)=""") == []
