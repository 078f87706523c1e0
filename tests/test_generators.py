"""Instance generators against their per-node oracles."""

import copy

import numpy as np

from doobkit.generators import product_family, random_family, random_martingale, random_space

from .oracles import per_combination_product_family, per_node_random_martingale
from .trees import tree_draw


def _families():
    """Random draws with mixed cell sizes and nodes of 8 or more children,
    then the families of the tree recipe (3^6 atoms k = 2, 9^3 atoms k = 3),
    each with the stream that draws the martingale."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        space = random_space(rng, max_atoms=40, max_periods=3)
        yield random_family(rng, space), rng
    for b, depth, k in ((3, 6, 2), (9, 3, 3)):
        yield tree_draw(b, depth, k, 0)[0], np.random.default_rng(b * depth)


class TestRandomMartingale:
    def test_equals_per_node_oracle_bit_for_bit(self):
        for family, rng in _families():
            oracle_rng = copy.deepcopy(rng)
            got = random_martingale(rng, family.space, family, start=100.0, spread=5.0)
            want = per_node_random_martingale(oracle_rng, family.space, family, 100.0, 5.0)
            assert len(got.per_time) == len(want)
            for level, expected in zip(got.per_time, want):
                assert np.array_equal(level, expected)
            # both drew the same number of normals
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestProductFamily:
    def test_equals_per_combination_oracle_bit_for_bit(self):
        for seed in range(100):
            for cap in (1, 2, 4, 8):
                rng = np.random.default_rng([seed, cap])
                space = random_space(rng, max_atoms=12 if seed % 2 else 30, max_periods=4)
                oracle_rng = copy.deepcopy(rng)
                got = product_family(rng, space, max_extremes=cap)
                want = per_combination_product_family(oracle_rng, space, max_extremes=cap)
                assert np.array_equal(got.probs, want)
                # both drew the same variates
                assert rng.bit_generator.state == oracle_rng.bit_generator.state
