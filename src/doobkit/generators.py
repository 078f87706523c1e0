"""Random instance generators for property suites and counterexample search.

The supermartingale generator is sound by construction: it samples a true
family-martingale by solving the per-node zero-drift system (one equality
per extreme, cell by cell, sampled from the nullspace), subtracts a random
non-decreasing process, and shifts everything up to nonnegativity.  Every
instance it emits therefore admits a decomposition, which is what the
round-trip suites rely on.
"""

from __future__ import annotations

import numpy as np

from .space import AdaptedProcess, FilteredSpace, Measure, MeasureFamily, build_space
from .space import compose_laws, node_laws

__all__ = [
    "random_space",
    "random_family",
    "random_martingale",
    "random_nondecreasing",
    "random_supermartingale",
    "product_family",
]


def random_space(
    rng: np.random.Generator, max_atoms: int = 8, max_periods: int = 3
) -> FilteredSpace:
    """A space with 2..max_atoms atoms and 1..max_periods refining splits."""
    n_atoms = int(rng.integers(2, max_atoms + 1))
    horizon = int(rng.integers(1, max_periods + 1))
    atoms = list(range(n_atoms))
    partitions: list[list[list[int]]] = [[atoms]]
    for m in range(1, horizon + 1):
        prev = partitions[-1]
        level: list[list[int]] = []
        for cell in prev:
            # the first level must split so the filtration is not all-trivial
            must_split = m == 1 and len(prev) == 1
            if len(cell) >= 2 and (must_split or rng.random() < 0.7):
                n_parts = int(rng.integers(2, len(cell) + 1))
                labels = rng.integers(0, n_parts, size=len(cell))
                # guarantee every part is hit
                labels[rng.permutation(len(cell))[:n_parts]] = np.arange(n_parts)
                for part in range(n_parts):
                    level.append([cell[i] for i in range(len(cell)) if labels[i] == part])
            else:
                level.append(list(cell))
        partitions.append(level)
    return build_space(n_atoms, partitions)


def _floored_dirichlet(rng: np.random.Generator, size: int) -> np.ndarray:
    """A Dirichlet(2) draw floored at 0.1 / size on every entry, renormalized."""
    v = rng.dirichlet(np.full(size, 2.0))
    v = 0.9 * v + 0.1 / size
    return v / v.sum()


def random_family(
    rng: np.random.Generator, space: FilteredSpace, max_extremes: int = 3
) -> MeasureFamily:
    """1..max_extremes strictly positive measures, kept well away from zero."""
    k = int(rng.integers(1, max_extremes + 1))
    extremes = tuple(Measure(_floored_dirichlet(rng, space.n_atoms)) for _ in range(k))
    return MeasureFamily(space=space, extremes=extremes)


def product_family(
    rng: np.random.Generator,
    space: FilteredSpace,
    max_extremes: int = 8,
) -> MeasureFamily:
    """A family stable under pasting of conditional pieces.

    Every node (cell of one partition looking at its children in the next)
    gets its own small set of conditional laws, drawn independently; the
    extremes are all combinations of one choice per node.  Atoms inside a
    terminal cell share a single conditional law across the whole family.
    Combining the conditional pieces of two members again lands in the
    family, which is the structural hypothesis under which the envelope
    identities hold.
    """
    from itertools import product as iter_product

    nodes: list[tuple[int, np.ndarray, list[np.ndarray]]] = []
    total = 1
    for m in range(1, space.horizon + 1):
        for b in range(space.n_cells(m - 1)):
            children = space.children(m, b)
            if children.shape[0] == 1:
                continue  # its one child carries the parent's whole mass
            n_choices = 2 if total * 2 <= max_extremes and rng.random() < 0.8 else 1
            laws = [_floored_dirichlet(rng, children.shape[0]) for _ in range(n_choices)]
            total *= n_choices
            nodes.append((m, children, laws))
    terminal = space.atom_to_cell(space.horizon)
    terminal_laws = [_floored_dirichlet(rng, size) for size in np.bincount(terminal).tolist()]
    # a stable sort lists the atoms cell by cell, each cell's in ascending order
    within = np.empty(space.n_atoms)
    within[np.argsort(terminal, kind="stable")] = np.concatenate(terminal_laws)

    extremes = []
    for picks in iter_product(*[range(len(laws)) for *_, laws in nodes]):
        steps = [np.ones(space.n_cells(m)) for m in range(1, space.horizon + 1)]
        for (m, children, laws), pick in zip(nodes, picks):
            steps[m - 1][children] = laws[pick]
        atom_probs = compose_laws(space, steps, within)
        p = Measure(atom_probs / atom_probs.sum())
        # duplicate extremes can only arise from degenerate draws; keep the first
        if not any(np.array_equal(p.probs, q.probs) for q in extremes):
            extremes.append(p)
    return MeasureFamily(space=space, extremes=tuple(extremes))


def random_martingale(
    rng: np.random.Generator,
    space: FilteredSpace,
    family: MeasureFamily,
    start: float = 1.0,
    spread: float = 0.5,
) -> AdaptedProcess:
    """A process with zero one-step drift under every extreme.

    Per node the child values must satisfy one linear equation per extreme;
    a random nullspace direction is added to the constant continuation.  The
    nullspaces come from one SVD per child count and level.  Each level takes
    one normal draw, split node by node in ascending order, and adds the
    directions with one batched product per child count and rank.
    """
    levels = [np.array([float(start)])]
    for m in range(1, space.horizon + 1):
        # (parents, children, nullspace rows, their count) per child count and rank
        draws = []
        for parents, children, law in node_laws(family, m):
            # nullspace of the conditional-probability rows
            _, s, vt = np.linalg.svd(law, full_matrices=True)
            rank = (s > 1e-12).sum(axis=1)
            c = children.shape[1]
            ranks = set(rank.tolist())
            for r in ranks - {c}:
                # a group of one rank, the usual case, is taken whole
                at = slice(None) if len(ranks) == 1 else (rank == r).nonzero()[0]
                draws.append((parents[at], children[at], vt[at, r:], c - r))
        vals = levels[-1][space.parent_cell(m)]
        if draws:
            # row b takes node b's coefficients, so the draw fills them in node order
            drawn = np.zeros((space.n_cells(m - 1), max(d for *_, d in draws)), dtype=bool)
            for parents, _, _, d in draws:
                drawn[parents, :d] = True
            coeffs = np.zeros(drawn.shape)
            coeffs[drawn] = rng.normal(scale=spread, size=np.count_nonzero(drawn))
            for parents, children, null, d in draws:
                vals[children] += (null.transpose(0, 2, 1) @ coeffs[parents, :d, None])[..., 0]
        levels.append(vals)
    return AdaptedProcess(space=space, per_time=tuple(levels))


def random_nondecreasing(
    rng: np.random.Generator, space: FilteredSpace, max_step: float = 0.5
) -> AdaptedProcess:
    """Adapted, non-decreasing, starting at zero."""
    levels = [np.zeros(1)]
    for m in range(1, space.horizon + 1):
        parent = space.parent_cell(m)
        inc = rng.uniform(0.0, max_step, size=space.n_cells(m))
        levels.append(levels[-1][parent] + inc)
    return AdaptedProcess(space=space, per_time=tuple(levels))


def random_supermartingale(
    rng: np.random.Generator,
    space: FilteredSpace,
    family: MeasureFamily,
    margin: float = 0.1,
) -> tuple[AdaptedProcess, AdaptedProcess, AdaptedProcess]:
    """A nonnegative family-supermartingale built as martingale minus
    non-decreasing compensator, shifted up by ``margin``.

    Returns (f, martingale, compensator) with f = martingale - compensator.
    """
    mart = random_martingale(rng, space, family)
    comp = random_nondecreasing(rng, space)
    f_levels = [mart.at_cells(m) - comp.at_cells(m) for m in range(space.horizon + 1)]
    lowest = min(float(lvl.min()) for lvl in f_levels)
    shift = margin - lowest if lowest < margin else 0.0
    mart_shifted = tuple(mart.at_cells(m) + shift for m in range(space.horizon + 1))
    f = tuple(lvl + shift for lvl in f_levels)
    return (
        AdaptedProcess(space=space, per_time=f),
        AdaptedProcess(space=space, per_time=mart_shifted),
        comp,
    )
