"""The batched kernel's one checkpoint packing: ``array('q')`` per table.

``BatchedKernel.__getstate__`` packs every ``ARRAY_NAMES`` table into a
stdlib int64 array and ``__setstate__`` unpacks it to a plain list
(docs/KERNEL.md, "Checkpoint payload").  There is no second packing, so a
checkpoint written anywhere loads on an interpreter that has only the
standard library.
"""

import io
import json
import pickle
from array import array

import pytest

from repro import api
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.noc.kernel import _EJECTION_CREDITS, _SEQ_BITS, BatchedKernel, route_table
from repro.noc.kernel_faults import LinkFaultKernel
from repro.noc.simulator import Simulator
from repro.serialization import result_to_dict

#: Everything a checkpoint payload may name besides ``repro`` itself.
STDLIB_IN_PAYLOAD = {"array", "builtins", "collections", "random"}


def _midrun_sim(link_error_rate):
    sim = Simulator(
        api.load_config(
            backend="batched", shape=(4, 4), rate=0.2, messages=150, warmup=20,
            seed=3, link_error_rate=link_error_rate,
        )
    )
    sim.run_to_cycle(120)
    assert sim.network.kernel is not None
    assert isinstance(sim.network.kernel, LinkFaultKernel) == bool(link_error_rate)
    return sim


@pytest.fixture
def midrun_sim():
    return _midrun_sim(0.0)


@pytest.fixture
def link_fault_sim():
    """A kernel mid-run under link faults: its tables include the rings,
    replay queues and NACK line (docs/KERNEL.md, "Link faults")."""
    return _midrun_sim(0.05)


def test_every_table_round_trips_exactly_as_plain_ints(midrun_sim):
    _assert_tables_round_trip(midrun_sim)


def test_link_fault_tables_round_trip_exactly_as_plain_ints(link_fault_sim):
    _assert_tables_round_trip(link_fault_sim)


def _assert_tables_round_trip(sim):
    kernel = sim.network.kernel
    # A flit token of a run with > 2048 packets in flight: past 2**31.
    big_token = (5000 << _SEQ_BITS) | 3
    kernel.buf[0] = big_token
    held = {v for name in kernel.ARRAY_NAMES for v in getattr(kernel, name)}
    assert {-1, _EJECTION_CREDITS, big_token} <= held and big_token > 2**31

    state = kernel.__getstate__()
    for name in kernel.ARRAY_NAMES:
        assert type(state[name]) is array and state[name].typecode == "q", name
    cls = type(kernel)  # BatchedKernel, or LinkFaultKernel with its tables
    assert issubclass(cls, BatchedKernel)
    restored = cls.__new__(cls)
    restored.__setstate__(state)
    for name in kernel.ARRAY_NAMES:
        table = getattr(restored, name)
        assert table == getattr(kernel, name), name
        assert type(table) is list and all(type(v) is int for v in table), name


def test_checkpoint_payload_names_only_stdlib_and_repro(midrun_sim, tmp_path):
    _assert_payload_names_only_stdlib_and_repro(midrun_sim, tmp_path)


def test_link_fault_payload_names_only_stdlib_and_repro(link_fault_sim, tmp_path):
    _assert_payload_names_only_stdlib_and_repro(link_fault_sim, tmp_path)


def _assert_payload_names_only_stdlib_and_repro(sim, tmp_path):
    path = save_checkpoint(sim, tmp_path / "batched.ckpt")
    named = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            named.add(module.split(".")[0])
            return super().find_class(module, name)

    with open(path, "rb") as fh:
        fh.readline()  # magic
        fh.readline()  # JSON header
        Recorder(io.BytesIO(fh.read())).load()
    assert "array" in named
    assert named <= STDLIB_IN_PAYLOAD | {"repro"}, named

    result = load_checkpoint(path).run()
    json.dumps(result_to_dict(result))  # no foreign scalar type leaked in


def test_checkpoint_payload_carries_no_object_graph(midrun_sim, tmp_path):
    """A kernel-served network has no routers, links or retransmission
    buffers, and the route table is a derived memo: none of them is pickled."""
    _assert_payload_carries_no_object_graph(midrun_sim, tmp_path)


def test_link_fault_payload_carries_no_object_graph(link_fault_sim, tmp_path):
    _assert_payload_carries_no_object_graph(link_fault_sim, tmp_path)


def _assert_payload_carries_no_object_graph(sim, tmp_path):
    path = save_checkpoint(sim, tmp_path / "batched.ckpt")
    modules = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            modules.add(module)
            return super().find_class(module, name)

    with open(path, "rb") as fh:
        fh.readline()  # magic
        fh.readline()  # JSON header
        Recorder(io.BytesIO(fh.read())).load()
    graph = {"repro.noc.router", "repro.noc.link", "repro.core.retransmission"}
    assert not modules & graph, sorted(modules & graph)

    resumed = load_checkpoint(path)
    assert resumed.network.routers == () and resumed.network.links == ()
    assert resumed.network.kernel.route_table is route_table(sim.config.noc)
