"""Instance generators against their per-node oracles."""

import copy

import numpy as np

from doobkit.generators import product_family, random_family, random_martingale, random_space

from .oracles import per_combination_product_family, per_node_random_martingale
from .trees import tree_draw, tree_space


def _families():
    """Random draws with mixed cell sizes and nodes of 8 or more children,
    the families of the tree recipe (3^6 atoms k = 2, 9^3 and 9^4 atoms
    k = 3, 5^3 atoms k = 3, 2^6 atoms k = 1), and pasting-stable families,
    each with the stream that draws the martingale."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        space = random_space(rng, max_atoms=40, max_periods=3)
        yield random_family(rng, space), rng
    for b, depth, k in ((3, 6, 2), (9, 3, 3), (9, 4, 3), (5, 3, 3), (2, 6, 1)):
        yield tree_draw(b, depth, k, 0)[0], np.random.default_rng(b * depth)
    yield from _shared_law_families()


def _shared_law_families():
    """``product_family`` draws: a node with one law choice gives every
    extreme the same conditional row (rank 1 < k), and a binary node with
    two choices has full rank and draws nothing."""
    for seed in range(20):
        rng = np.random.default_rng([seed, 15])
        space = tree_space(2, 5) if seed % 2 else random_space(rng, max_atoms=20, max_periods=4)
        yield product_family(rng, space, max_extremes=8), rng


def _ranks(family, m):
    """``(child count, rank)`` of the conditional rows of each time-``m - 1`` cell."""
    space = family.space
    out = []
    for b in range(space.n_cells(m - 1)):
        rows = np.array([[p.probs[list(space.cells(m)[j])].sum() for j in space.children(m, b)] for p in family])
        out.append((rows.shape[1], int(np.linalg.matrix_rank(rows))))
    return out


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

    def test_shared_laws_mix_ranks_within_a_child_count(self):
        # the oracle comparison above covers nodes that draw and nodes that
        # do not under one child count, at one level
        mixed = 0
        for family, _ in _shared_law_families():
            for m in range(1, family.space.horizon + 1):
                ranks = _ranks(family, m)
                for c in {c for c, _ in ranks if c > 1}:
                    found = {r for cc, r in ranks if cc == c}
                    mixed += c in found and len(found) > 1
        assert mixed > 0


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
