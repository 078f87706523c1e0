"""Seeded markets on complete b-ary trees, for the size regressions.

The recipe, drawn from one ``numpy.random.default_rng(seed)`` stream in
this order: k extremes, each Dirichlet(2) over the atoms floored at 0.1/n;
``random_supermartingale`` as f; ``random_martingale(start=100, spread=5)``
as the price S; the claim ``(S_N - 100)+``.  The time-m cells are runs of
b**(N-m) consecutive atoms, so the terminal partition is atom-fine.
"""

import numpy as np

from doobkit import MarketModel, Measure, MeasureFamily, build_space
from doobkit.generators import random_martingale, random_supermartingale


def tree_space(b, depth):
    """The b-ary tree of depth N: time-m cells are runs of b**(N-m) atoms."""
    return build_space(
        b**depth,
        [
            [list(range(c * b ** (depth - m), (c + 1) * b ** (depth - m))) for c in range(b**m)]
            for m in range(depth + 1)
        ],
    )


def tree_draw(b, depth, k, seed):
    """(family, f, market, claim) of the recipe on the b-ary tree of depth N."""
    rng = np.random.default_rng(seed)
    space = tree_space(b, depth)
    n = space.n_atoms
    extremes = []
    for _ in range(k):
        p = 0.9 * rng.dirichlet(np.full(n, 2.0)) + 0.1 / n
        extremes.append(Measure(p / p.sum()))
    family = MeasureFamily(space=space, extremes=tuple(extremes))
    f, _, _ = random_supermartingale(rng, space, family)
    s = random_martingale(rng, space, family, start=100.0, spread=5.0)
    claim = np.maximum(s.at_atoms(depth) - 100.0, 0.0)
    return family, f, MarketModel(S=s), claim


def tree_market(b, depth, k, seed):
    """(family, market, claim) of the recipe on the b-ary tree of depth N."""
    family, _, market, claim = tree_draw(b, depth, k, seed)
    return family, market, claim
