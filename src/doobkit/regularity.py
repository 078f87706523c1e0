"""Supermartingale classification and the uniform Doob decomposition.

A process is a supermartingale for a whole family of measures when its
one-step conditional drift is nonpositive under every extreme; convexity
of conditional expectations in the measure extends that to every mixture.
Such a process decomposes as ``f = M - g`` with ``M`` a martingale under
every measure of the family and ``g`` non-decreasing from zero exactly
when each step admits a unit-conditional-expectation certificate: an
F_m-measurable ``xi0 >= f_m / f_{m-1}`` whose conditional expectation given
F_{m-1} equals one under every extreme.

Two certificate constructions are provided.  The LP path takes, per
predecessor cell, the least-sum values that dominate the one-step ratio
with conditional expectation one; it finds them by basis enumeration per
level, with the cellwise LP for the nodes it cannot settle, and always
finds a certificate when one exists.  Equal least sums go to the first
basis in lexicographic order.  The alpha path is the closed-form recipe,
``xi0 = 1 + alpha * (increment of a density martingale)``, seeded with
the constant density: its increments are zero, so it offers ``xi0 = 1``
and certifies only the steps whose one-step ratio is at most one and
constant on each predecessor cell's children.  A general seed's density
martingale need not be driftless under every extreme (see
:mod:`doobkit.claims`), and seeded with density vertices on 729- and
6561-atom trees the path certified no step that the LP path's own
ratio-at-most-one shortcut misses; so the library certifies by LP and
keeps the constant seed as a cheap first try.

Membership of the density set A0 is decided only by :func:`a0_membership`,
for one density or a stack of them, from one product with the extremes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Union

import numpy as np

from .lp import LinearProgram, NumericalBreakdown, solve
from .space import (
    DEFAULT_TOL,
    MIN_PROB,
    STRICT_TOL,
    AdaptedProcess,
    FilteredSpace,
    MeasureFamily,
    ShapeMismatch,
    cell_sums,
    cond_exp_cells,
    ess_sup_cond_exp_cells,
    node_laws,
)

__all__ = [
    "A0Element",
    "Classification",
    "MartingaleDelta",
    "Xi0Step",
    "StepFailure",
    "OptionalDecomposition",
    "CheckResult",
    "DecompositionReport",
    "CompletenessReport",
    "NotInA0",
    "NotSupermartingale",
    "NotLocallyRegular",
    "classify",
    "a0_membership",
    "make_a0_element",
    "find_a0_element",
    "martingale_increments",
    "xi0_step_alpha",
    "xi0_step_lp",
    "one_step_ratio_cells",
    "optional_decompose",
    "verify_decomposition",
    "completeness_check",
]


class NotInA0(ValueError):
    """The random variable is not a unit-expectation density for the family."""


class NotSupermartingale(ValueError):
    """Decomposition was requested for a process that is not a nonnegative
    supermartingale for the family."""


class NotLocallyRegular(ValueError):
    """No unit-conditional certificate exists at some step."""

    def __init__(self, failure: "StepFailure") -> None:
        super().__init__(f"step {failure.m}: {failure.reason}")
        self.failure = failure


@dataclass(frozen=True, eq=False)
class A0Element:
    """Nonnegative random variable with expectation one under every extreme."""

    xi: np.ndarray

    def __post_init__(self) -> None:
        xi = np.array(self.xi, dtype=float)  # copy before freezing
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        if np.any(xi < -STRICT_TOL) or not np.all(np.isfinite(xi)):
            raise NotInA0("element must be nonnegative and finite")


@dataclass(frozen=True)
class Classification:
    """Verdict of the one-step supermartingale test over all extremes."""

    kind: str  # "martingale" | "supermartingale-strict" | "not-supermartingale"
    worst_violation: tuple[int, int, int, float]  # (time, cell, extreme, E - f_prev)

    @property
    def is_supermartingale(self) -> bool:
        return self.kind != "not-supermartingale"


@dataclass(frozen=True, eq=False)
class MartingaleDelta:
    """One-step increment of a conditional-expectation process of a density.

    ``increments[j]`` is the time-``m`` cell value minus its parent's
    time-``m-1`` value, computed under one explicit base measure.  The
    split records which cells move down (``neg_cells``, increment <= 0)
    and up (``pos_cells``, increment > 0); together they cover every cell.
    The increments have zero conditional mean under the base measure; the
    same under *other* extremes is exactly the contested invariance and is
    never assumed here.
    """

    m: int
    increments: np.ndarray
    neg_cells: tuple[int, ...]
    pos_cells: tuple[int, ...]
    base_index: int


@dataclass(frozen=True, eq=False)
class Xi0Step:
    """Per-step certificate: F_m-measurable, unit conditional expectation
    under every extreme, dominates the one-step ratio."""

    m: int
    xi0: np.ndarray  # per atom, constant on time-m cells
    method: str  # "alpha-path" | "lp-path"
    alpha: Optional[float] = None


@dataclass(frozen=True, eq=False)
class StepFailure:
    """Why a certificate could not be produced at one step."""

    m: int
    reason: str
    cell: Optional[int] = None
    certificate: Optional[float] = None


@dataclass(frozen=True, eq=False)
class OptionalDecomposition:
    """f = martingale - compensator, with the per-step certificates used."""

    martingale: AdaptedProcess
    compensator: AdaptedProcess
    steps: tuple[Xi0Step, ...]


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_violation: float
    passed: bool


@dataclass(frozen=True)
class DecompositionReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class CompletenessReport:
    """Diagnostic: how close the two-point contracted measures come to the
    hull of the family's contractions.

    Finitely generated strictly positive families contract to strictly
    positive vectors, so a two-point measure can at best sit within
    tolerance of the hull boundary; the fraction is a diagnostic, not a
    certificate.
    """

    level: int
    fraction_inside: float
    pairs: tuple[tuple[int, int, float], ...]  # (neg cell, pos cell, hull distance)
    vacuous: bool


# ---------------------------------------------------------------------------
# classification and the density set


def classify(f: AdaptedProcess, family: MeasureFamily, tol: float = DEFAULT_TOL) -> Classification:
    """One-step drift test under every extreme.

    Testing extremes suffices: the conditional expectation under a mixture
    is a cellwise convex combination of the extremes' conditional
    expectations, so no mixture can violate where no extreme does.
    """
    space = family.space
    if f.space is not space and f.space != space:
        raise ShapeMismatch("process and family live on different spaces")
    worst = (-np.inf, 0, 0, 0)
    max_abs = 0.0
    for m in range(1, space.horizon + 1):
        defect = cond_exp_cells(space, f.at_atoms(m), family.probs, m - 1) - f.at_cells(m - 1)
        # the first worst in (extreme, cell) order; a later time must beat it
        i, j = np.unravel_index(np.argmax(defect), defect.shape)
        if defect[i, j] > worst[0]:
            worst = (defect[i, j], m, int(j), int(i))
        max_abs = max(max_abs, float(np.abs(defect).max()))
    violation = (worst[1], worst[2], worst[3], float(worst[0]))
    if worst[0] > tol:
        kind = "not-supermartingale"
    elif max_abs <= tol:
        kind = "martingale"
    else:
        kind = "supermartingale-strict"
    return Classification(kind=kind, worst_violation=violation)


def a0_membership(family: MeasureFamily, xi: np.ndarray, tol: float = STRICT_TOL) -> bool:
    """True iff ``xi``, one row or a ``(G, n)`` stack of rows, is finite, at
    least ``-tol``, and of expectation within ``tol`` of one under every
    extreme (and then, by linearity, under every mixture); the expectations
    of every row come from one ``family.probs @ rows.T`` product."""
    rows = np.asarray(xi, dtype=float)
    if rows.ndim not in (1, 2) or rows.shape[-1] != family.space.n_atoms:
        return False
    ok = np.isfinite(rows).all() and np.all(rows >= -tol)
    return bool(ok and np.all(np.abs(family.probs @ rows.T - 1.0) <= tol))


def make_a0_element(family: MeasureFamily, xi: np.ndarray) -> A0Element:
    """Validated construction; raises :class:`NotInA0` on failure."""
    if np.ndim(xi) != 1 or not a0_membership(family, xi):
        raise NotInA0("expectation is not one under every extreme")
    return A0Element(xi=np.asarray(xi, dtype=float))


def find_a0_element(
    family: MeasureFamily, objective: Optional[np.ndarray] = None
) -> A0Element:
    """An element of the unit-expectation density set.

    With an objective, maximizes its inner product over the set by linear
    programming (a vertex).  Without one, returns the element with the
    largest smallest entry, which is exactly the constant 1: every element
    has ``min(xi) <= E_p[xi] = 1``, with equality only at ``xi == 1``
    because ``p > 0``.
    """
    n = family.space.n_atoms
    if objective is None:
        return A0Element(xi=np.ones(n))
    obj = np.asarray(objective, dtype=float)
    if obj.shape != (n,):
        raise ShapeMismatch("objective must have one entry per atom")
    a_eq = family.probs
    b_eq = np.ones(len(family))
    out = solve(LinearProgram(-obj, a_eq=a_eq, b_eq=b_eq))
    if out.status != "optimal":  # xi == 1 is feasible, so only round-off gets here
        raise NumericalBreakdown(f"density search unexpectedly {out.status}")
    xi = np.maximum(out.x[:n], 0.0)
    resid = a_eq @ xi - b_eq
    if np.abs(resid).max() > 1e-13:
        # one least-squares polish step keeps the unit-expectation identity tight
        xi = xi - np.linalg.lstsq(a_eq, resid, rcond=None)[0]
        xi = np.maximum(xi, 0.0)
    return make_a0_element(family, xi)


# ---------------------------------------------------------------------------
# certificates


def martingale_increments(
    xi0: A0Element, family: MeasureFamily, base_index: int, n: int
) -> MartingaleDelta:
    """Cellwise increments of the conditional expectations of ``xi0`` under
    an explicitly chosen extreme, with the down/up cell split."""
    if n < 1:
        raise ValueError("increments need n >= 1")
    space = family.space
    base = family.extremes[base_index]
    now = cond_exp_cells(space, xi0.xi, base, n)
    prev = cond_exp_cells(space, xi0.xi, base, n - 1)
    d = now - prev[space.parent_cell(n)]
    neg = tuple(int(j) for j in range(d.shape[0]) if d[j] <= 0.0)
    pos = tuple(int(j) for j in range(d.shape[0]) if d[j] > 0.0)
    return MartingaleDelta(
        m=n, increments=d, neg_cells=neg, pos_cells=pos, base_index=base_index
    )


def one_step_ratio_cells(f: AdaptedProcess, m: int) -> np.ndarray:
    """f_m / f_{m-1} per time-``m`` cell.

    On cells whose parent value is zero a nonnegative supermartingale is
    forced to stay at zero, and the ratio is defined as 1 there so the
    certificate inequalities stay meaningful.
    """
    space = f.space
    prev = f.at_cells(m - 1)[space.parent_cell(m)]
    now = f.at_cells(m)
    out = np.ones_like(now)
    nz = prev != 0.0
    out[nz] = now[nz] / prev[nz]
    return out


def _check_unit_conditional(
    space: FilteredSpace,
    family: MeasureFamily,
    xi0_atoms: np.ndarray,
    m: int,
    tol: float,
) -> tuple[bool, int, float]:
    """Worst deviation of E{xi0 | F_{m-1}} from one, and the first extreme with it."""
    dev = np.abs(cond_exp_cells(space, xi0_atoms, family.probs, m - 1) - 1.0).max(axis=1)
    worst_i = int(np.argmax(dev))
    return dev[worst_i] <= tol, worst_i, float(dev[worst_i])


def xi0_step_alpha(
    f: AdaptedProcess,
    family: MeasureFamily,
    m: int,
    tol: float = DEFAULT_TOL,
) -> Union[Xi0Step, StepFailure]:
    """Closed-form certificate at step ``m``, seeded with the constant density.

    The recipe dominates the normalized one-step ratio by ``1 + alpha *
    (increment of a density martingale)``.  The library seeds it with the
    constant 1, whose increments are zero, so ``alpha = 0`` and ``xi0 = 1``.
    That candidate is offered exactly when the ratio, normalized per
    predecessor cell by the largest conditional expectation over the
    extremes, is at most one everywhere, and is then re-checked for unit
    conditional expectation and for dominance of the raw ratio.
    """
    space = family.space
    ratio = one_step_ratio_cells(f, m)
    sup_cells = ess_sup_cond_exp_cells(space, space.expand(m, ratio), family, m - 1)
    sup = sup_cells[space.parent_cell(m)]
    norm = np.divide(ratio, sup, out=np.zeros_like(ratio), where=sup > 0.0)
    if np.any(norm > 1.0 + STRICT_TOL):
        return StepFailure(m=m, reason="empty alpha interval")

    xi0_atoms = np.ones(space.n_atoms)
    ok, bad_i, dev = _check_unit_conditional(space, family, xi0_atoms, m, tol)
    if not ok:
        return StepFailure(
            m=m,
            reason=f"conditional expectation is {1 + dev:.12g}-ish under extreme {bad_i}, not 1",
            certificate=dev,
        )
    if np.any(xi0_atoms < space.expand(m, ratio) - tol):
        return StepFailure(m=m, reason="candidate does not dominate the one-step ratio")
    return Xi0Step(m=m, xi0=xi0_atoms, method="alpha-path", alpha=0.0)


@lru_cache(maxsize=None)
def _bases(c: int, k: int) -> np.ndarray:
    """Every ``k``-subset of ``range(c)`` as a row, in lexicographic order
    (read-only: one array serves every caller)."""
    bases = np.array(list(combinations(range(c), k)), dtype=np.intp)
    bases.setflags(write=False)
    return bases


#: most k x k systems one stacked solve takes on, so memory stays flat in
#: the number of bases while tiny levels still take a single call
_STACK = 4096


def _cheapest_bases(law: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the least-sum basic solution ``g >= 0`` of ``law @ g = rhs``.

    ``law`` is ``(nodes, k, c)`` and ``rhs`` is ``(nodes, k)``.  Every basis
    of ``k`` columns is solved for all nodes at once, a run of bases per
    stacked solve; a basis counts at a node when it is invertible,
    ``g_B >= 0`` and its residual is at most 1e-12.  Only a strictly smaller
    sum replaces the kept basis, so ties go to the first basis in
    lexicographic order.  A node whose rows of ``law`` are dependent up to
    round-off counts no basis.  Returns ``g`` (``(nodes, c)``, zero off the
    basis) and a mask of the nodes where some basis counted.
    """
    nodes, k, c = law.shape
    best = np.full(nodes, np.inf)
    if k > 1:
        # rows of C equal up to round-off (extremes sharing a node law) make
        # every basis near-singular and its least sum meaningless: a NaN
        # best is never beaten, so such a node is never found
        gram = law @ law.transpose(0, 2, 1)
        scale = np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
        best[np.linalg.det(gram) <= 1e-12 * scale] = np.nan
    bases = _bases(c, k)
    run = max(1, _STACK // nodes)
    pick = np.zeros(nodes, dtype=np.intp)
    g_pick = np.zeros((nodes, k))
    for lo in range(0, bases.shape[0], run):
        a = law[:, :, bases[lo : lo + run]].transpose(0, 2, 1, 3)  # (nodes, run, k, k)
        try:
            g = np.linalg.solve(a, rhs[:, None, :, None])[..., 0]
        except np.linalg.LinAlgError:
            # exactly singular somewhere: solve the others only
            ok = np.linalg.det(a) != 0.0
            b = np.broadcast_to(rhs[:, None, :, None], a.shape[:3] + (1,))
            g = np.full(a.shape[:3], np.nan)
            g[ok] = np.linalg.solve(a[ok], b[ok])[..., 0]
        resid = np.abs((a @ g[..., None])[..., 0] - rhs[:, None, :]).max(axis=2)
        total = np.where((g >= 0.0).all(axis=2) & (resid <= 1e-12), g.sum(axis=2), np.inf)
        low = total.min(axis=1)
        rows = np.flatnonzero(low < best)
        if rows.size:
            j = total[rows].argmin(axis=1)  # the first of equal sums
            best[rows] = low[rows]
            pick[rows] = lo + j
            g_pick[rows] = g[rows, j]
    found = np.isfinite(best)
    out = np.zeros((nodes, c))
    rows = np.flatnonzero(found)
    out[rows[:, None], bases[pick[rows]]] = g_pick[rows]
    return out, found


def xi0_step_lp(
    f: AdaptedProcess,
    family: MeasureFamily,
    m: int,
    tol: float = DEFAULT_TOL,
) -> Union[Xi0Step, StepFailure]:
    """Certificate at step ``m``: per predecessor cell, the least-sum values
    on the child cells, at least the one-step ratio, whose conditional
    expectation is one under every extreme.

    Feasibility at every cell of every step is equivalent to the existence
    of the decomposition.  A cell whose children's ratio is at most one gets
    the constant 1 outright.  Every other cell solves
    ``min sum(g)`` subject to ``C g = 1 - C r``, ``g >= 0``, for
    ``x = r + g``, where ``C`` holds the children's conditional laws under
    the ``k`` extremes.  An optimum sits on a basis of ``k`` children, so
    the cells are settled by basis enumeration per level: every basis is
    solved for all cells with the same number of children at once, and the
    least sum wins, the first basis in lexicographic order on ties.  The
    cells it cannot settle (fewer children than extremes, singular or
    degenerate ``C``, infeasible) go to the cellwise LP in ascending cell
    order, whose first failure is reported with its infeasibility
    certificate.  Either way the step is returned only after its conditional
    expectations are checked against one.
    """
    space = family.space
    ratio = one_step_ratio_cells(f, m)
    need = np.zeros(space.n_cells(m - 1), dtype=bool)
    need[space.parent_cell(m)[ratio > 1.0 + 1e-13]] = True
    values = np.ones_like(ratio)
    if need.any():
        k = len(family)
        rest = []  # (cell, children, law) of the nodes left for the LP
        for parents, children, law in node_laws(space, family.probs, m):
            nodes = np.flatnonzero(need[parents])
            # a cell with fewer children than extremes has no basis: it stays for the LP
            if nodes.size and children.shape[1] >= k:
                r = ratio[children[nodes]]
                rhs = 1.0 - (law[nodes] @ r[:, :, None])[:, :, 0]
                # C >= 0, so a negative right-hand side leaves no g >= 0
                hopeful = np.flatnonzero(rhs.min(axis=1) >= -1e-12)
                if hopeful.size:
                    g, found = _cheapest_bases(law[nodes[hopeful]], rhs[hopeful])
                    done = hopeful[found]
                    values[children[nodes[done]]] = r[done] + g[found]
                    nodes = np.delete(nodes, done)
            rest += [(int(parents[j]), children[j], law[j]) for j in nodes]
        for b, children, cond in sorted(rest, key=lambda node: node[0]):
            c, r = children.shape[0], ratio[children]
            lp = LinearProgram(np.ones(c), a_eq=cond, b_eq=np.ones(k), a_ge=np.eye(c), b_ge=r)
            out = solve(lp)
            if out.status != "optimal":
                return StepFailure(
                    m=m,
                    reason=f"no unit-conditional dominator over cell {b} at time {m - 1}",
                    cell=b,
                    certificate=out.infeasibility if out.status == "infeasible" else None,
                )
            values[children] = out.x
    xi0_atoms = space.expand(m, values)
    ok, bad_i, dev = _check_unit_conditional(space, family, xi0_atoms, m, tol)
    if not ok:  # the LP enforces these rows only up to its own tolerance
        return StepFailure(m=m, reason=f"LP residual {dev} under extreme {bad_i}", certificate=dev)
    return Xi0Step(m=m, xi0=xi0_atoms, method="lp-path", alpha=None)


# ---------------------------------------------------------------------------
# decomposition


def optional_decompose(
    f: AdaptedProcess,
    family: MeasureFamily,
    strategy: str = "auto",
    tol: float = DEFAULT_TOL,
) -> OptionalDecomposition:
    """Split a nonnegative family-supermartingale into martingale minus
    non-decreasing compensator.

    Strategies: ``"lp"`` uses :func:`xi0_step_lp` at every step; ``"auto"``
    tries :func:`xi0_step_alpha` and falls back to :func:`xi0_step_lp` per
    step.  The closed form certifies (``alpha = 0``, ``xi0 = 1``) exactly
    the steps whose one-step ratio is at most one and constant on each
    predecessor cell's children.
    Raises :class:`NotSupermartingale` or :class:`NotLocallyRegular`.
    """
    if strategy not in ("lp", "auto"):
        raise ValueError(f"unknown strategy {strategy!r}")
    space = family.space
    lowest = min(float(f.at_cells(m).min()) for m in range(space.horizon + 1))
    cls = classify(f, family, tol=tol)
    if lowest < -tol or not cls.is_supermartingale:
        raise NotSupermartingale(
            f"classify: {cls.kind}, min value {lowest}; decomposition needs a "
            "nonnegative supermartingale"
        )

    steps: list[Xi0Step] = []
    for m in range(1, space.horizon + 1):
        step = xi0_step_alpha(f, family, m, tol=tol) if strategy == "auto" else None
        if not isinstance(step, Xi0Step):
            step = xi0_step_lp(f, family, m, tol=tol)
        if isinstance(step, StepFailure):
            raise NotLocallyRegular(step)
        steps.append(step)

    mart_levels = [f.at_atoms(0)]
    for step in steps:
        prev_f = f.at_atoms(step.m - 1)
        mart_levels.append(mart_levels[-1] + prev_f * (step.xi0 - 1.0))
    comp_levels = [mart_levels[m] - f.at_atoms(m) for m in range(space.horizon + 1)]
    martingale = AdaptedProcess.from_atom_values(space, mart_levels)
    compensator = AdaptedProcess.from_atom_values(space, comp_levels)
    return OptionalDecomposition(
        martingale=martingale, compensator=compensator, steps=tuple(steps)
    )


def verify_decomposition(
    f: AdaptedProcess,
    decomposition: OptionalDecomposition,
    family: MeasureFamily,
    tol: float = DEFAULT_TOL,
    n_mixtures: int = 20,
    seed: int = 0,
) -> DecompositionReport:
    """Re-derive every property the decomposition promises; never raises.

    Checks reconstruction, the compensator's start and monotonicity, the
    martingale property under the extremes and sampled mixtures, the match
    between one-step drift and expected compensator growth, and that the
    compensator increments recenter to zero under each extreme.  The
    mixtures are one seeded Dirichlet draw of ``n_mixtures`` weight rows,
    checked in the same conditional expectation per level as the extremes.
    """
    space = family.space
    mart, comp = decomposition.martingale, decomposition.compensator
    checks: list[CheckResult] = []

    def add(name: str, violation: float, bound: float = tol) -> None:
        checks.append(CheckResult(name=name, max_violation=float(violation), passed=violation <= bound))

    elsewhere = [
        name
        for name, proc in (("f", f), ("martingale", mart), ("compensator", comp))
        if proc.space is not space and proc.space != space
    ]
    if elsewhere:
        name = f"shapes (not on the family's space: {', '.join(elsewhere)})"
        return DecompositionReport(checks=(CheckResult(name=name, max_violation=np.inf, passed=False),))
    recon = max(
        float(np.abs(f.at_atoms(m) - (mart.at_atoms(m) - comp.at_atoms(m))).max())
        for m in range(space.horizon + 1)
    )
    add("reconstruction", recon)
    add("compensator-starts-at-zero", float(np.abs(comp.at_cells(0)).max()))
    # extremes first; each mixture row summed in mixture()'s order, then normalized
    probs, k = family.probs, len(family)
    weights = np.random.default_rng(seed).dirichlet(np.ones(k), size=n_mixtures)
    rows = np.zeros((k + n_mixtures, space.n_atoms))
    rows[:k] = probs
    mixes = rows[k:]
    for i in range(k):
        mixes += weights[:, i : i + 1] * probs[i]
    mixes /= mixes.sum(axis=1, keepdims=True)
    sums_ok = (np.abs(mixes.sum(axis=1) - 1.0) <= STRICT_TOL).all()
    if not (np.isfinite(mixes).all() and mixes.min(initial=np.inf) > MIN_PROB and sums_ok):
        raise ValueError(f"mixtures must be finite, above {MIN_PROB} and sum to 1")
    growth = mart_ext = mart_mix = drift = centered = 0.0
    for m in range(1, space.horizon + 1):
        dg = comp.at_atoms(m) - comp.at_atoms(m - 1)
        growth = max(growth, float((-dg).max()))
        gap = np.abs(cond_exp_cells(space, mart.at_atoms(m), rows, m - 1) - mart.at_cells(m - 1))
        mart_ext = max(mart_ext, float(gap[:k].max(initial=0.0)))
        mart_mix = max(mart_mix, float(gap[k:].max(initial=0.0)))
        lhs = cond_exp_cells(space, f.at_atoms(m - 1) - f.at_atoms(m), probs, m - 1)
        rhs = cond_exp_cells(space, dg, probs, m - 1)
        drift = max(drift, float(np.abs(lhs - rhs).max()))
        psi = dg - rhs[:, space.atom_to_cell(m - 1)]
        centered = max(centered, float(np.abs(cond_exp_cells(space, psi, probs, m - 1)).max()))
    add("compensator-monotone", max(growth, 0.0))
    add("martingale-extremes", mart_ext)
    add("martingale-mixtures", mart_mix)
    add("drift-matches-compensator-growth", drift)
    add("centered-compensator-residuals", centered, bound=STRICT_TOL)
    return DecompositionReport(checks=tuple(checks))


def completeness_check(
    family: MeasureFamily,
    delta: MartingaleDelta,
    n: int,
    tol: float = DEFAULT_TOL,
) -> CompletenessReport:
    """Distance of each two-point contracted measure from the contraction hull.

    For each (down cell i, up cell j) pair the two-point measure puts mass
    ``d_j / (d_j - d_i)`` on cell i and the rest on cell j.  Membership is
    an LP: minimize the sup-norm deviation between the target and a convex
    combination of the contracted extremes.
    """
    d = delta.increments
    if not delta.pos_cells:
        return CompletenessReport(level=n, fraction_inside=1.0, pairs=(), vacuous=True)
    # variables: (lambda_1..lambda_k, deviation); only the target moves per pair
    cmat = cell_sums(family.space, family.probs, n).T  # cells x k
    n_cells, k = cmat.shape
    a_ge = np.hstack([np.vstack([-cmat, cmat]), np.ones((2 * n_cells, 1))])
    a_eq = np.concatenate([np.ones(k), [0.0]])[None, :]
    obj = np.zeros(k + 1)
    obj[-1] = 1.0
    pairs: list[tuple[int, int, float]] = []
    inside = 0
    for i in delta.neg_cells:
        for j in delta.pos_cells:
            denom = d[j] - d[i]
            target = np.zeros(n_cells)
            target[i] = d[j] / denom
            target[j] = -d[i] / denom
            b_ge = np.concatenate([-target, target])
            out = solve(LinearProgram(obj, a_eq=a_eq, b_eq=np.ones(1), a_ge=a_ge, b_ge=b_ge))
            dev = float(out.value) if out.status == "optimal" else np.inf
            pairs.append((int(i), int(j), dev))
            if dev <= tol:
                inside += 1
    return CompletenessReport(
        level=n,
        fraction_inside=inside / len(pairs),
        pairs=tuple(pairs),
        vacuous=False,
    )
