"""Splittable random streams."""

import numpy as np
import pytest

from sievevar import streams
from sievevar.streams import generator, substream


class TestGenerator:
    @pytest.mark.parametrize("seed", [0, 7, np.random.SeedSequence(11), substream(3, 1)])
    def test_seed_sequence_passed_through_draws_same_bits(self, seed):
        for r, attempt in ((0, 0), (5, 0), (2, 3)):
            child = substream(seed, r, attempt)
            got = generator(child).integers(0, 2**63, size=16)
            want = np.random.default_rng(substream(seed, r, attempt)).integers(0, 2**63, size=16)
            np.testing.assert_array_equal(got, want)

    def test_path_and_integer_seed_still_extend_the_stream(self):
        want = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(1, 2))).random(4)
        np.testing.assert_array_equal(generator(substream(4, 1, 2)).random(4), want)
        np.testing.assert_array_equal(generator(substream(substream(4, 1), 2)).random(4), want)
        np.testing.assert_array_equal(
            generator(9).random(4), np.random.default_rng(np.random.SeedSequence(9)).random(4)
        )

    def test_seed_sequence_not_rebuilt(self, monkeypatch):
        child = substream(5, 0, 1)

        def rebuilt(*args):
            raise AssertionError("generator rebuilt its SeedSequence")

        monkeypatch.setattr(streams, "substream", rebuilt)
        assert generator(child).bit_generator.seed_seq is child
