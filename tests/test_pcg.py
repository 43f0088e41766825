"""The package's PCG64 against numpy's own, draw for draw.

``numpy.random`` is the oracle: a visiting order must equal
``default_rng([seed, level]).permutation(p)`` and a stream's uniforms
successive ``default_rng(seed).random(n)`` calls, bit for bit.
"""

import numpy as np
import pytest

import vecpart as vp
from vecpart._pcg import PCG64, visiting_order

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Seeds of one, two and three 32-bit words, and the edges between them.
seeds = st.one_of(
    st.integers(0, 2**32 + 16),
    st.integers(2**64 - 16, 2**64 + 16),
    st.integers(0, 2**80),
)


@settings(database=None, max_examples=150, deadline=None)
@given(seed=seeds, level=st.integers(0, 70), p=st.integers(0, 2500))
@example(seed=0, level=0, p=0)
@example(seed=0, level=0, p=1)
@example(seed=0, level=0, p=2)
@example(seed=2**32, level=0, p=2500)
@example(seed=2**64, level=3, p=257)
def test_visiting_order_is_numpys_permutation(seed, level, p):
    expected = np.random.default_rng([seed, level]).permutation(p)
    assert np.array_equal(visiting_order(seed, level, p), expected)


@settings(database=None, max_examples=100, deadline=None)
@given(seed=seeds, lengths=st.lists(st.integers(0, 300), min_size=1, max_size=6))
@example(seed=0, lengths=[1000, 1, 7])
def test_a_stream_is_numpys_successive_uniforms(seed, lengths):
    ours, numpys = PCG64(seed), np.random.default_rng(seed)
    for n in lengths:
        assert np.array_equal(ours.random(n), numpys.random(n))


def test_the_cached_order_is_read_only():
    order = visiting_order(5, 0, 10)
    assert visiting_order(5, 0, 10) is order
    with pytest.raises(ValueError, match="read-only"):
        order[0] = 1


@pytest.mark.parametrize("seed, level", [(-1, 0), (0, -1), (-(2**70), 0)])
def test_a_negative_seed_is_an_invalid_parameter(seed, level):
    with pytest.raises(vp.InvalidParameter, match="non-negative"):
        visiting_order(seed, level, 5)
    with pytest.raises(vp.InvalidParameter, match="non-negative"):
        PCG64(min(seed, level))


def test_a_negative_optimiser_seed_is_an_invalid_parameter():
    g = vp.load_edge_list("0 1\n1 2\n0 2\n2 3\n")
    emb = vp.build_embedding(vp.decompose_transition(g), "exponential", 1.0)
    with pytest.raises(vp.InvalidParameter, match="non-negative"):
        vp.partition_vectors(emb, seed=-1)
