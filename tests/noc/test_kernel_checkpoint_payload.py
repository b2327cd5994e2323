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
from repro.noc.kernel import _EJECTION_CREDITS, _SEQ_BITS, BatchedKernel
from repro.noc.simulator import Simulator
from repro.serialization import result_to_dict

#: Everything a checkpoint payload may name besides ``repro`` itself.
STDLIB_IN_PAYLOAD = {"array", "builtins", "collections", "random"}


@pytest.fixture
def midrun_sim():
    sim = Simulator(
        api.load_config(
            backend="batched", shape=(4, 4), rate=0.2, messages=150, warmup=20, seed=3
        )
    )
    sim.run_to_cycle(120)
    assert sim.network.kernel is not None
    return sim


def test_every_table_round_trips_exactly_as_plain_ints(midrun_sim):
    kernel = midrun_sim.network.kernel
    # A flit token of a run with > 2048 packets in flight: past 2**31.
    big_token = (5000 << _SEQ_BITS) | 3
    kernel.buf[0] = big_token
    held = {v for name in kernel.ARRAY_NAMES for v in getattr(kernel, name)}
    assert {-1, _EJECTION_CREDITS, big_token} <= held and big_token > 2**31

    state = kernel.__getstate__()
    for name in kernel.ARRAY_NAMES:
        assert type(state[name]) is array and state[name].typecode == "q", name
    restored = BatchedKernel.__new__(BatchedKernel)
    restored.__setstate__(state)
    for name in kernel.ARRAY_NAMES:
        table = getattr(restored, name)
        assert table == getattr(kernel, name), name
        assert type(table) is list and all(type(v) is int for v in table), name


def test_checkpoint_payload_names_only_stdlib_and_repro(midrun_sim, tmp_path):
    path = save_checkpoint(midrun_sim, tmp_path / "batched.ckpt")
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
