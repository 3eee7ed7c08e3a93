"""One hashing rule for partition keys: :func:`repro.network.dht.partition_key`.

A key read out of a column is a NumPy scalar (``np.int64(5)``); the same
key built in Python is ``5``.  Every place that hashes a partition key —
the elastic :class:`~repro.core.elasticity.PartitionRing`, the daemon's
``hash_fraction_predicate`` and the adaptive split router — must send
both to the same side, while Python keys keep hashing exactly as
``repr(key)`` did.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.elasticity import PartitionRing
from repro.core.tuples import StreamTuple
from repro.distributed.adaptive import AdaptiveSplitPredicate
from repro.distributed.policy import hash_fraction_predicate
from repro.network.dht import partition_key

# (Python value, the NumPy scalar holding it).  A text's Python value
# is read back from its scalar: ``np.str_`` drops trailing NULs, so
# ``np.str_("03\x00")`` holds ``"03"``.
value_pairs = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(lambda v: (v, np.int64(v))),
    st.floats(allow_nan=False).map(lambda v: (v, np.float64(v))),
    st.booleans().map(lambda v: (v, np.bool_(v))),
    st.text(max_size=6).map(np.str_).map(lambda s: (str(s), s)),
)
python_values = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.booleans(), st.text(max_size=6),
    st.none(),
)


def ring(slots):
    ring = PartitionRing(("k", "j"))
    for _ in range(slots):
        ring.add()
    return ring


@given(k=value_pairs, j=value_pairs, slots=st.integers(2, 5),
       fraction=st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_numpy_scalars_land_where_their_python_values_do(k, j, slots, fraction):
    python = {"k": k[0], "j": j[0]}
    mixed = {"k": k[1], "j": j[0]}
    numpy = {"k": k[1], "j": j[1]}
    partitions = ring(slots)
    by_hash = hash_fraction_predicate(fraction, ("k", "j"))
    adaptive = AdaptiveSplitPredicate(("k", "j"), fraction)
    for values in (mixed, numpy):
        assert partitions.route(values) == partitions.route(python)
        assert by_hash(StreamTuple(values)) == by_hash(StreamTuple(python))
        assert adaptive(StreamTuple(values)) == adaptive(StreamTuple(python))


@given(key=st.one_of(python_values, st.tuples(python_values),
                     st.tuples(python_values, python_values)))
def test_python_keys_hash_as_their_repr(key):
    assert partition_key(key) == repr(key)
