import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evoforge import rng
from evoforge.errors import ParameterError
from evoforge.rng import (BLOCK, MASK64, derive_seed, mix64,
                          sample_assignments, sample_blocks, uniform_unit,
                          weighted_choice)

seeds = st.integers(0, MASK64)


@given(seeds)
def test_mix64_range(z):
    assert 0 <= mix64(z) <= MASK64


@given(seeds, st.integers(0, 1 << 50), st.integers(0, 1 << 50))
def test_derive_seed_splits_streams(seed, a, b):
    assert derive_seed(seed, a) == derive_seed(seed, a)
    if a != b:
        assert derive_seed(seed, a) != derive_seed(seed, b)
    assert derive_seed(seed, a, b) != derive_seed(seed, a)


@given(seeds)
def test_uniform_unit_in_range(seed):
    u = uniform_unit(seed)
    assert 0.0 <= u < 1.0


def test_uniform_unit_below_one_at_the_top(monkeypatch):
    # MASK64 / 2^64 rounds to 1.0 in double precision
    monkeypatch.setattr(rng, "mix64", lambda z: MASK64)
    assert uniform_unit(0) == math.nextafter(1.0, 0.0)


def test_uniform_unit_spread():
    vals = [uniform_unit(derive_seed(3, i)) for i in range(2000)]
    assert abs(sum(vals) / len(vals) - 0.5) < 0.03


class TestSampleAssignments:
    def test_shape_range_determinism(self):
        xs = sample_assignments(42, 1000, 8)
        assert xs.shape == (1000,)
        assert xs.dtype == np.uint64
        assert int(xs.max()) < 256
        assert np.array_equal(xs, sample_assignments(42, 1000, 8))

    def test_counter_based_prefix_property(self):
        # the first i draws never depend on how many more are requested
        assert np.array_equal(sample_assignments(7, 100, 10),
                              sample_assignments(7, 300, 10)[:100])

    def test_roughly_uniform_bits(self):
        xs = sample_assignments(11, 20000, 6)
        for bit in range(6):
            frac = float(((xs >> np.uint64(bit)) & np.uint64(1)).mean())
            assert abs(frac - 0.5) < 0.02

    def test_blocks_concatenate_to_whole_array(self):
        for seed in (0, 5, MASK64):
            for count in (1, BLOCK, 2 * BLOCK + 3):
                blocks = [b.copy() for b in sample_blocks(seed, count, 10)]
                assert max(len(b) for b in blocks) <= BLOCK
                assert np.array_equal(np.concatenate(blocks),
                                      sample_assignments(seed, count, 10))

    def test_open_streams_do_not_share_buffers(self):
        count = 2 * BLOCK + 3
        blocks = [(a.copy(), b.copy()) for a, b in
                  zip(sample_blocks(1, count, 10), sample_blocks(2, count, 10))]
        for i, seed in enumerate((1, 2)):
            assert np.array_equal(np.concatenate([p[i] for p in blocks]),
                                  sample_assignments(seed, count, 10))
        assert not rng._BUFFERS.busy  # closed streams free the shared pair

    def test_dimension_limits(self):
        with pytest.raises(ParameterError):
            sample_assignments(0, 10, 0)
        with pytest.raises(ParameterError):
            sample_assignments(0, 10, 64)
        sample_assignments(0, 10, 63)


class TestWeightedChoice:
    def test_deterministic(self):
        idx = [3, 7, 9]
        w = [0.2, 0.5, 0.3]
        assert weighted_choice(idx, w, 5) == weighted_choice(idx, w, 5)

    def test_singleton(self):
        assert weighted_choice([4], [1.0], 99) == 4

    def test_returns_member(self):
        idx = [0, 1, 2, 3]
        w = [0.1, 0.2, 0.3, 0.4]
        for i in range(200):
            assert weighted_choice(idx, w, derive_seed(8, i)) in idx

    def test_frequencies(self):
        idx = [0, 1]
        w = [0.75, 0.25]
        hits = sum(weighted_choice(idx, w, derive_seed(123, i)) == 0
                   for i in range(10000))
        assert abs(hits / 10000 - 0.75) < 0.03
