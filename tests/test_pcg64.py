"""The pure-Python PCG64 and linspace against numpy, draw for draw.

acceptance draws its economies from openecon._pcg64.PCG64(seed) so that
`check` runs without numpy; these tests hold it to
numpy.random.default_rng(seed) bit for bit, on seeds of one to nine 32-bit
words and on random interleavings of uniform and integers draws.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from openecon._pcg64 import PCG64
from openecon.acceptance import CHECK_RATES, sample_instance
from openecon.model import _linspace

# seeds of five words and more take _seed_words' loop over entropy words
# past the pool's four
SEEDS = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 70),
                  st.integers(2 ** 128, 2 ** 256),
                  st.sampled_from([0, 7, 20260824, 2 ** 32, 2 ** 64 - 1,
                                   2 ** 64, 2 ** 64 + 1, 2 ** 128 - 1, 2 ** 128,
                                   2 ** 130, 2 ** 200 + 12345]))
FINITE = st.floats(-1e6, 1e6)
# ("uniform", lo, span) or ("integers", lo, width): width 1 draws nothing,
# and Lemire's method redraws about half the draws of width 2**31 + 1
DRAWS = st.lists(st.one_of(
    st.tuples(st.just("uniform"), FINITE, st.floats(0.0, 1e6)),
    st.tuples(st.just("integers"), st.integers(-2 ** 31, 2 ** 31),
              st.one_of(st.sampled_from([1, 2, 39, 2 ** 31 + 1]),
                        st.integers(1, 2 ** 32 - 1)))), max_size=60)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, draws=DRAWS)
def test_draws_match_default_rng(seed, draws):
    port, rng = PCG64(seed), np.random.default_rng(seed)
    for kind, lo, extent in draws:
        if kind == "uniform":
            hi = lo + extent
            assert port.uniform(lo, hi) == rng.uniform(lo, hi)
        else:
            assert port.integers(lo, lo + extent) == rng.integers(lo, lo + extent)
    # the generators end in the same state, with the same buffered half
    assert port.integers(0, 39) == rng.integers(0, 39)
    assert port.uniform(0.0, 1.0) == rng.uniform(0.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS)
def test_sample_instance_matches_default_rng(seed):
    port, rng = PCG64(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert sample_instance(port) == sample_instance(rng)


def test_long_interleaved_stream():
    """6000 draws of the acceptance suite's own seed, alternating kinds,
    with widths that Lemire's method rarely and often redraws."""
    port, rng = PCG64(20260824), np.random.default_rng(20260824)
    for j in range(2000):
        assert port.integers(1, 40) == rng.integers(1, 40)
        assert port.uniform(0.5, 3.0 + j) == rng.uniform(0.5, 3.0 + j)
        assert port.integers(-j, 2 ** 31 + 1) == rng.integers(-j, 2 ** 31 + 1)


@given(start=st.floats(-1e3, 1e3), span=st.floats(1e-6, 1e3),
       num=st.integers(2, 200))
def test_linspace_matches_numpy(start, span, num):
    stop = start + span
    assert _linspace(start, stop, num) == tuple(np.linspace(start, stop, num))


def test_check_rates_are_numpys():
    assert CHECK_RATES == tuple(np.linspace(0.1, 1.0, 20))
    assert _linspace(0.3, 0.7, 41) == tuple(np.linspace(0.3, 0.7, 41))
