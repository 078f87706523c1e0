"""Finite filtered probability spaces and the conditional-expectation calculus.

Everything lives on a finite set of atoms (elementary events).  Information
is a refining sequence of partitions: partition ``m`` lists the cells of the
time-``m`` algebra, partition 0 is the trivial one-cell partition, and every
cell at time ``m`` splits into cells at time ``m+1``.  Probability measures
are strictly positive vectors over atoms (strict positivity is what
"equivalent" means on a finite space), and a family of measures is a finite
list of extreme points whose convex hull is the uncertainty set.

Random variables are plain float arrays with one entry per atom.  Adapted
processes store one value per cell per time and are expanded to atoms on
demand, so measurability cannot silently break; a per-atom array becomes
per-cell values only through :meth:`FilteredSpace.restrict`, which asks
every atom to equal its cell's first atom exactly, with no tolerance.

Every module reads the filtration's nodes from one table per space: for
each time, the cell of each atom, the first atom of each cell, the parent
of each cell, the children of each parent, and the children of each parent
grouped by count.  :func:`build_space` seeds the
cell of each atom at every time, from the owner lists it checks the
partitions with; every other array is built on first use.  All are cached
read-only on the space.

No other module sums probability mass over cells, and this one sums it one
way.  ``MeasureFamily.masses`` is the family's one cell-mass table, built
per time on first use and cached read-only like the node table: at the
horizon the per-cell totals of one ``np.bincount`` over the atoms for every
extreme, and below it the per-parent totals of the level above.  The
``np.bincount`` bin index and totals of each level are cached beside them
for the conditional expectations, and :func:`node_laws` (inverted by
:func:`compose_laws`) divides each child's mass by its parent's.

Conditional expectations follow one rule: a variable given per atom (a
density, a claim, an envelope's payoff) is conditioned on atoms once, at
the horizon, by :func:`cond_exp_cells` (``np.bincount`` sums over the
atom→cell map for every measure of a family in one call), and every lower
level is one step back from the level above.  By the tower property under
each measure, :func:`cond_exp_step` takes time-``m`` cell values to time
``m - 1`` from cell masses, such as the family's, and never
visits an atom; ``_cond_exp_back`` chains it from a time down to time 0.
Given the family itself instead of its masses or ``probs``, either function
takes the bins and totals from the family's cache and does one weighted
``np.bincount`` and one division, the same kernel and the same bits as the
call given ``MeasureFamily.masses`` or ``probs``.
The envelope process, the ``lemma-q5``/``lemma-lkq4`` tower and the
``thm-fmars5`` and ``thm-mmars1`` density martingales take that chain, as
``classify``, the certificate checks and ``verify_decomposition`` take the
one step.  A chained level and an atom pass at the same time agree to
round-off, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "SpaceError",
    "TrivialRootMissing",
    "BadCover",
    "NonRefining",
    "ShapeMismatch",
    "FilteredSpace",
    "Measure",
    "MeasureFamily",
    "AdaptedProcess",
    "build_space",
    "node_laws",
    "compose_laws",
    "cond_exp_cells",
    "cond_exp_step",
    "ess_sup_cond_exp_cells",
]

#: default tolerance for soft equality checks across the package
DEFAULT_TOL = 1e-9
#: tolerance for identities that must hold to near machine precision
STRICT_TOL = 1e-12
#: smallest admissible atom probability
MIN_PROB = 1e-15


class SpaceError(ValueError):
    """Invalid filtered-space data."""


class TrivialRootMissing(SpaceError):
    """partition 0 is not the single cell containing every atom."""


class BadCover(SpaceError):
    """A partition has gaps, overlaps, or out-of-range atoms."""


class NonRefining(SpaceError):
    """A cell at time m+1 straddles two cells of time m."""


class ShapeMismatch(ValueError):
    """A process or random variable does not fit the space."""


Cell = tuple[int, ...]
Partition = tuple[Cell, ...]


def _canonical_partition(cells: Iterable[Iterable[int]]) -> Partition:
    # cells sorted by least atom so cell indices are stable across runs (disjoint
    # cells compare by their least atom; others fail the cover check)
    return tuple(sorted([tuple(sorted(map(int, cell))) for cell in cells]))


class _Levels:
    """A per-time cache of read-only arrays, built on first use."""

    @cached_property
    def _table(self) -> dict:
        # not a dataclass field, so ==, hash and repr see only the data
        return {}

    def _level(self, build: Callable[[Any, int], Any], m: int) -> Any:
        """The entry ``build`` makes for time ``m``, built once."""
        key = (build, m)
        entry = self._table.get(key)
        if entry is None:
            entry = build(self, m)
            # an entry is an array, a tuple of arrays or a tuple of array pairs
            for part in entry if isinstance(entry, tuple) else (entry,):
                for arr in part if isinstance(part, tuple) else (part,):
                    arr.setflags(write=False)
            self._table[key] = entry
        return entry


@dataclass(frozen=True)
class FilteredSpace(_Levels):
    """A finite atom set with a refining sequence of partitions."""

    n_atoms: int
    partitions: tuple[Partition, ...]

    @property
    def horizon(self) -> int:
        return len(self.partitions) - 1

    def cells(self, m: int) -> Partition:
        return self.partitions[m]

    def n_cells(self, m: int) -> int:
        return len(self.partitions[m])

    def atom_to_cell(self, m: int) -> np.ndarray:
        """Index of the time-``m`` cell containing each atom (read-only)."""
        return self._level(_atom_cell, m)

    def parent_cell(self, m: int) -> np.ndarray:
        """For each cell of time ``m`` >= 1, the index of its time ``m-1``
        parent (read-only)."""
        if m < 1:
            raise ValueError("parent_cell needs m >= 1")
        return self._level(_parent, m)

    def children_table(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """``(order, starts)``: the time-``m`` cells grouped by parent, so the
        children of cell ``b`` of time ``m-1`` are ``order[starts[b]:starts[b + 1]]``,
        ascending (read-only)."""
        return self._level(_children, m)

    def children(self, m: int, parent: int) -> np.ndarray:
        """Cells of time ``m`` contained in cell ``parent`` of time ``m-1``,
        ascending (read-only)."""
        order, starts = self.children_table(m)
        return order[starts[parent] : starts[parent + 1]]

    def expand(self, m: int, cell_values: np.ndarray) -> np.ndarray:
        """Lift per-cell values at time ``m`` to a per-atom array."""
        cell_values = np.asarray(cell_values, dtype=float)
        if cell_values.shape != (self.n_cells(m),):
            raise ShapeMismatch(
                f"expected {self.n_cells(m)} cell values at time {m}, got {cell_values.shape}"
            )
        return cell_values[self.atom_to_cell(m)]

    def restrict(self, m: int, atom_values: np.ndarray) -> np.ndarray:
        """Collapse a per-atom array that is constant on time-``m`` cells: each
        atom must equal its cell's first exactly, so a NaN is refused anywhere."""
        atom_values = np.asarray(atom_values, dtype=float)
        if atom_values.shape != (self.n_atoms,):
            raise ShapeMismatch(f"expected {self.n_atoms} atom values, got {atom_values.shape}")
        cell = self.atom_to_cell(m)
        values = atom_values[self._level(_first_atom, m)]
        bad = atom_values != values[cell]
        if bad.any():
            j = int(cell[bad].min())
            span = atom_values[list(self.partitions[m][j])]
            raise ShapeMismatch(
                f"values are not measurable at time {m}: cell {j} spans [{span.min()}, {span.max()}]"
            )
        return values


# node-table builders: one time level each, called once per space and level


def _owners(part: Partition, n_atoms: int, m: int) -> list[int]:
    """The cell of each atom in the time-``m`` partition ``part``; raises
    :class:`BadCover` unless its cells hold each of the atoms exactly once."""
    if not all(part):
        raise BadCover(f"time {m}: empty cell")
    owner = [-1] * n_atoms
    # n in-range atoms leave no -1 behind iff none is listed twice
    if (
        sum(map(len, part)) == n_atoms
        and part[0][0] >= 0
        and max(map(itemgetter(-1), part)) < n_atoms
    ):
        for j, cell in enumerate(part):
            for a in cell:
                owner[a] = j
    if -1 in owner:
        raise BadCover(f"time {m}: cells do not partition the {n_atoms} atoms exactly once")
    return owner


def _atom_cell(space: FilteredSpace, m: int) -> np.ndarray:
    # build_space seeds this entry; a space made without it builds it here
    return np.array(_owners(space.partitions[m], space.n_atoms, m), dtype=np.intp)


def _first_atom(space: FilteredSpace, m: int) -> np.ndarray:
    return np.array([cell[0] for cell in space.partitions[m]], dtype=np.intp)


def _parent(space: FilteredSpace, m: int) -> np.ndarray:
    return space.atom_to_cell(m - 1)[space._level(_first_atom, m)]


def _grouped(owner: np.ndarray, n_owners: int) -> tuple[np.ndarray, np.ndarray]:
    # a stable sort keeps each owner's members ascending
    order = np.argsort(owner, kind="stable")
    return order, np.searchsorted(owner[order], np.arange(n_owners + 1))


def _by_count(order: np.ndarray, starts: np.ndarray) -> tuple:
    """``(owners, members (owners, c))`` per member count ``c``, ascending."""
    counts = starts[1:] - starts[:-1]  # np.diff costs a visible share on small levels
    out = []
    # np.unique would import numpy.ma, a visible share of a CLI call's start-up
    for c in np.flatnonzero(np.bincount(counts)).tolist():
        owners = np.flatnonzero(counts == c)
        out.append((owners, order[starts[owners][:, None] + np.arange(c)]))
    return tuple(out)


def _children(space: FilteredSpace, m: int) -> tuple[np.ndarray, np.ndarray]:
    return _grouped(space.parent_cell(m), space.n_cells(m - 1))


def _node_children(space: FilteredSpace, m: int) -> tuple:
    return _by_count(*space.children_table(m))


def build_space(n_atoms: int, partitions: Sequence[Iterable[Iterable[int]]]) -> FilteredSpace:
    """Validate raw partition data and return a canonical :class:`FilteredSpace`.

    Atom indices are 0-based here; the file format uses 1-based indices and
    is shifted during parsing.  Raises :class:`TrivialRootMissing`,
    :class:`BadCover` or :class:`NonRefining` on invalid input.
    """
    if n_atoms < 1:
        raise SpaceError("need at least one atom")
    if len(partitions) < 2:
        raise SpaceError("need partitions for times 0..N with N >= 1")
    canon = tuple(_canonical_partition(p) for p in partitions)
    owners = [_owners(part, n_atoms, m) for m, part in enumerate(canon)]

    if len(canon[0]) != 1:
        raise TrivialRootMissing("partition 0 must be the single cell of all atoms")

    for m in range(1, len(canon)):
        coarse = owners[m - 1]
        # each atom of a refining cell has the owner of the cell's first atom
        parent = [coarse[cell[0]] for cell in canon[m]]
        if list(map(parent.__getitem__, owners[m])) != coarse:
            for cell in canon[m]:
                straddled = {coarse[a] for a in cell}
                if len(straddled) > 1:
                    raise NonRefining(
                        f"time {m}: cell {cell} straddles time-{m - 1} cells {sorted(straddled)}"
                    )

    space = FilteredSpace(n_atoms=n_atoms, partitions=canon)
    for m, owner in enumerate(owners):
        seeded = np.array(owner, dtype=np.intp)
        seeded.setflags(write=False)
        space._table[_atom_cell, m] = seeded
    return space


@dataclass(frozen=True, eq=False)
class Measure:
    """A strictly positive probability vector over atoms."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        # copy before freezing so the caller's array is left alone
        probs = np.array(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1:
            raise ValueError("probs must be one-dimensional")
        if not np.isfinite(probs).all():
            raise ValueError("probs must be finite")
        if probs.min(initial=np.inf) <= MIN_PROB:
            raise ValueError(f"measure must be strictly positive (min entry > {MIN_PROB})")
        if abs(float(probs.sum()) - 1.0) > STRICT_TOL:
            raise ValueError(f"probs sum to {probs.sum()}, not 1")

    def __len__(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True, eq=False)
class MeasureFamily(_Levels):
    """Finitely many extreme measures; their convex hull is the prior set."""

    space: FilteredSpace
    extremes: tuple[Measure, ...]

    def __post_init__(self) -> None:
        extremes = tuple(self.extremes)
        object.__setattr__(self, "extremes", extremes)
        if not extremes:
            raise ValueError("family needs at least one measure")
        for p in extremes:
            if len(p) != self.space.n_atoms:
                raise ShapeMismatch("measure length does not match the space")
        for i in range(len(extremes)):
            for j in range(i + 1, len(extremes)):
                if np.array_equal(extremes[i].probs, extremes[j].probs):
                    raise ValueError(f"duplicate extreme measures at positions {i} and {j}")

    def __len__(self) -> int:
        return len(self.extremes)

    def __iter__(self):
        return iter(self.extremes)

    @cached_property
    def probs(self) -> np.ndarray:
        """The extremes stacked as a read-only ``(k, n_atoms)`` array."""
        # not a dataclass field, so repr and the constructor see only the extremes
        probs = np.vstack([p.probs for p in self.extremes])
        probs.setflags(write=False)
        return probs

    def masses(self, m: int) -> np.ndarray:
        """The extremes' time-``m`` cell masses as a read-only ``(k, n_cells(m))``
        array, built on first use: at the horizon the per-cell totals of the
        family's one atom pass, below it the per-parent totals of the level
        above.  Every reader of cell masses (conditional expectations, node
        laws, LP data, draws) reads this one table."""
        # past the horizon the atom pass raises IndexError instead of recursing
        if m >= self.space.horizon:
            return self._level(_cell_bins, m)[1]
        return self._level(_step_bins, m + 1)[2]


# family-table builders: one time level each, called once per family and level


def _step_bins(family: MeasureFamily, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    space = family.space
    masses = family.masses(m)
    return (masses, *_binned(masses, space.parent_cell(m), space.n_cells(m - 1)))


def _cell_bins(family: MeasureFamily, m: int) -> tuple[np.ndarray, np.ndarray]:
    space = family.space
    return _binned(family.probs, space.atom_to_cell(m), space.n_cells(m))


@dataclass(frozen=True, eq=False)
class AdaptedProcess:
    """One value per cell per time; the process cannot peek into the future."""

    space: FilteredSpace
    per_time: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        vals = []
        if len(self.per_time) != self.space.horizon + 1:
            raise ShapeMismatch(
                f"process has {len(self.per_time)} levels, space horizon is {self.space.horizon}"
            )
        for m, level in enumerate(self.per_time):
            arr = np.array(level, dtype=float)  # copy before freezing
            if arr.shape != (self.space.n_cells(m),):
                raise ShapeMismatch(
                    f"time {m}: got {arr.shape[0] if arr.ndim == 1 else arr.shape} values, "
                    f"partition has {self.space.n_cells(m)} cells"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"time {m}: non-finite process values")
            arr.setflags(write=False)
            vals.append(arr)
        object.__setattr__(self, "per_time", tuple(vals))

    @property
    def horizon(self) -> int:
        return self.space.horizon

    def at_cells(self, m: int) -> np.ndarray:
        return self.per_time[m]

    def at_atoms(self, m: int) -> np.ndarray:
        return self.space.expand(m, self.per_time[m])


# ---------------------------------------------------------------------------
# node laws


def node_laws(family: MeasureFamily, m: int) -> Iterator[tuple]:
    """``(parents, children, law)`` per child count ``c``, ascending: the
    time-``m - 1`` cells with ``c`` children, those children ``(nodes, c)``,
    and their conditional laws under the extremes, ``(nodes, k, c)``, each
    child's ``MeasureFamily.masses(m)`` over its parent's ``masses(m - 1)``."""
    mass, parent_mass = family.masses(m), family.masses(m - 1)
    for parents, children in family.space._level(_node_children, m):
        law = mass[:, children] / parent_mass[:, parents, None]
        yield parents, children, law.transpose(1, 0, 2)


def compose_laws(space: FilteredSpace, steps: Sequence[np.ndarray], within: np.ndarray) -> np.ndarray:
    """Atom probabilities from one-step laws, the inverse of :func:`node_laws`:
    the product, from the root down, of each time-``m`` cell's conditional
    probability given its parent (``steps[m - 1]``), times ``within``, each
    atom's share of its terminal cell."""
    probs = np.ones(space.n_atoms)
    for m in range(1, space.horizon + 1):
        probs *= steps[m - 1][space.atom_to_cell(m)]
    return probs * within


# ---------------------------------------------------------------------------
# conditional expectations


def _as_rv(space: FilteredSpace, xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (space.n_atoms,):
        raise ShapeMismatch(f"random variable has shape {xi.shape}, space has {space.n_atoms} atoms")
    if not np.isfinite(xi).all():
        raise ValueError("random variable must be finite")
    return xi


def _binned(weights: np.ndarray, owner: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """``(bins, totals)``: row ``i``'s entry ``j`` goes to bin ``i * c +
    owner[j]``, and ``totals`` sums ``weights`` per bin, as ``(r, c)``."""
    r = weights.shape[0]
    bins = (np.arange(r)[:, None] * c + owner).ravel()
    return bins, np.bincount(bins, weights=weights.ravel(), minlength=r * c).reshape(r, c)


def _bin_means(bins: np.ndarray, totals: np.ndarray, weights: np.ndarray,
               values: np.ndarray) -> np.ndarray:
    """Per bin, the sum of ``weights * values`` over the bin's total, shaped
    like ``totals``; the one kernel behind both conditional expectations."""
    num = np.bincount(bins, weights=(weights * values).ravel(), minlength=totals.size)
    return num.reshape(totals.shape) / totals


def _family_on(space: FilteredSpace, family: MeasureFamily) -> MeasureFamily:
    if family.space is not space and family.space != space:
        raise ShapeMismatch("family and values live on different spaces")
    return family


def cond_exp_cells(
    space: FilteredSpace, xi: np.ndarray, p: Measure | MeasureFamily | np.ndarray, m: int
) -> np.ndarray:
    """Conditional expectation of ``xi`` given time ``m``, one value per cell.

    ``p`` is a measure, or a family or a ``(k, n)`` array of probability rows
    (such as ``MeasureFamily.probs``) giving ``(k, n_cells)``; ``xi`` may
    then also be ``(k, n)``, paired row by row.  Sums run in ascending atom
    order.  A family reads its bins and per-cell totals from its own cache,
    and returns the same bits as its ``probs``.
    """
    single = isinstance(p, Measure)
    xi = _as_rv(space, xi) if single or np.ndim(xi) != 2 else xi
    if isinstance(p, MeasureFamily):
        probs = _family_on(space, p).probs
        bins, totals = p._level(_cell_bins, m)
    else:
        probs = p.probs[None, :] if single else p
        bins, totals = _binned(probs, space.atom_to_cell(m), space.n_cells(m))
    out = _bin_means(bins, totals, probs, xi)
    return out[0] if single else out


def cond_exp_step(
    space: FilteredSpace, masses: MeasureFamily | np.ndarray, values: np.ndarray, m: int
) -> np.ndarray:
    """One-step conditional expectation of values on the time-``m`` cells.

    ``masses`` is ``(r, n_cells(m))``, one row of time-``m`` cell masses per
    measure, or a family, which stands for ``MeasureFamily.masses(m)`` and
    reads its bins and per-parent totals from its cache, with the same bits.
    ``values`` is one ``(n_cells(m),)`` row shared by every measure or ``(r,
    n_cells(m))`` paired row by row.  Returns ``(r, n_cells(m - 1))``: over
    each parent's children, the sum of ``mass * value`` over the sum of
    ``mass``, both in ascending child order, so the unit row comes back
    exactly (another constant only to round-off).
    """
    if isinstance(masses, MeasureFamily):
        masses, bins, totals = _family_on(space, masses)._level(_step_bins, m)
    else:
        bins, totals = _binned(masses, space.parent_cell(m), space.n_cells(m - 1))
    return _bin_means(bins, totals, masses, values)


def _cond_exp_back(family: MeasureFamily, values: np.ndarray, n: int) -> list[np.ndarray]:
    """The conditional expectations at times ``0..n`` of time-``n`` cell
    values (one shared row or one row per extreme) under each extreme:
    ``(k, n_cells(m))`` per time ``m < n``, each one :func:`cond_exp_step`
    back from the next under the extremes' masses (the tower property), and
    ``values`` itself at ``n``."""
    levels = [values]
    for m in range(n, 0, -1):
        levels.append(cond_exp_step(family.space, family, levels[-1], m))
    return levels[::-1]


def ess_sup_cond_exp_cells(
    space: FilteredSpace, xi: np.ndarray, family: MeasureFamily, m: int
) -> np.ndarray:
    """Cellwise upper envelope of conditional expectations over the family.

    On a finite hull the essential supremum over every mixture equals the
    pointwise maximum over the extremes.
    """
    return cond_exp_cells(space, xi, family, m).max(axis=0)
