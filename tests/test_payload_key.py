"""The payload key: one int per ``(i, j, version, payload precision)``.

``payload_key`` is what the simulator's tiers, links and residency probes
and the distributed ranks' messages are keyed by, so it must be a pure
function of the payload, invert to it, never give two payloads one key,
and refuse a payload outside its bounds instead of wrapping it onto
another's.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision import Precision
from repro.runtime.task import KEY_FIELD_BITS, TaskInput, key_payload, payload_key

LIMIT = 1 << KEY_FIELD_BITS
FIELD = st.integers(0, LIMIT - 1)
PAYLOADS = st.tuples(FIELD, FIELD, FIELD, st.sampled_from(list(Precision)))


@settings(max_examples=500, deadline=None)
@given(payload=PAYLOADS)
def test_round_trips_to_its_tuple(payload):
    key = payload_key(payload[:3], payload[3])
    assert key_payload(key) == payload
    assert key_payload(key)[3] is payload[3]
    assert 0 <= key < 2**61 - 1 and hash(key) == key


@settings(max_examples=500, deadline=None)
@given(a=PAYLOADS, b=PAYLOADS)
def test_injective_within_bounds(a, b):
    assert (payload_key(a[:3], a[3]) == payload_key(b[:3], b[3])) == (a == b)


def test_injective_on_a_dense_corner():
    """Every payload of the first 70 values of each field (past the six low
    bits each field keeps near the bottom of the key) at two precisions,
    and the largest value of each field."""
    edge = [0, 1, 62, 63, 64, 65, 127, 128, LIMIT - 2, LIMIT - 1]
    values = sorted(set(range(70)) | set(edge))
    keys = {payload_key((i, j, v), p)
            for i in values for j in values for v in edge for p in (Precision.FP16, Precision.FP64)}
    assert len(keys) == len(values) ** 2 * len(edge) * 2


@pytest.mark.parametrize("tile", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (LIMIT, 0, 0),
                                  (0, LIMIT, 0), (0, 0, LIMIT), (2 * LIMIT + 5, 3, 1)])
def test_raises_past_the_field_bounds(tile):
    with pytest.raises(ValueError, match="outside the key's bounds"):
        payload_key(tile, Precision.FP64)
    with pytest.raises(ValueError, match="outside the key's bounds"):
        TaskInput(None, tile, Precision.FP64, Precision.FP64, 4)


@pytest.mark.parametrize("code", [-1, len(Precision), 7, 8])
def test_raises_past_the_precision_codes(code):
    with pytest.raises(ValueError, match="outside the key's bounds"):
        payload_key((1, 1, 1), code)


def test_a_task_input_carries_its_key():
    """Minted in the constructor, re-minted by ``_replace`` and by
    unpickling (spawn and forkserver ranks unpickle the graph), equal for
    equal payloads whatever the other fields are."""
    inp = TaskInput(3, (5, 2, 1), Precision.FP16, Precision.FP32, 64, "inout")
    assert inp.key == payload_key((5, 2, 1), Precision.FP16)
    assert TaskInput(None, (5, 2, 1), Precision.FP16, Precision.FP64, 9).key == inp.key
    again = pickle.loads(pickle.dumps(inp, pickle.HIGHEST_PROTOCOL))
    assert again == inp and type(again) is TaskInput and again.key == inp.key
    moved = inp._replace(tile=(6, 2, 1))
    assert moved.key == payload_key((6, 2, 1), Precision.FP16) and moved.role == "inout"
    with pytest.raises(ValueError, match="derived"):
        inp._replace(key=0)
