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
with conditional expectation one, and always finds a certificate when one
exists: one batched simplex on the cells' duals settles every cell with the
same number of children, and a cell without one is reported with a Farkas
ray of its dual.  The alpha path is the closed-form recipe,
``xi0 = 1 + alpha * (increment of a density martingale)``, seeded with
the constant density: its increments are zero, so it offers ``xi0 = 1``
and certifies only the steps whose one-step ratio is at most one and
constant on each predecessor cell's children.  A general seed's density
martingale need not be driftless under every extreme (see
:mod:`doobkit.claims`), and seeded with density vertices on 729- and
6561-atom trees the path certified no step that the LP path's own
ratio-at-most-one shortcut misses; so the library certifies by LP and
keeps the constant seed as a cheap first try.

A density is a plain float array, one entry per atom.  Its membership of
the density set A0 depends on the family, so only :func:`a0_membership`
decides it, for one density or a stack of them, from one product with the
extremes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .lp import LinearProgram, NumericalBreakdown, solve, solve_batch
from .space import (
    DEFAULT_TOL,
    STRICT_TOL,
    AdaptedProcess,
    FilteredSpace,
    MeasureFamily,
    ShapeMismatch,
    cond_exp_step,
    node_laws,
)

__all__ = [
    "Classification",
    "Xi0Step",
    "StepFailure",
    "OptionalDecomposition",
    "CheckResult",
    "DecompositionReport",
    "NotSupermartingale",
    "NotLocallyRegular",
    "classify",
    "a0_membership",
    "find_a0_element",
    "xi0_step_alpha",
    "xi0_step_lp",
    "one_step_ratio_cells",
    "optional_decompose",
    "verify_decomposition",
]


class NotSupermartingale(ValueError):
    """Decomposition was requested for a process that is not a nonnegative
    supermartingale for the family."""


class NotLocallyRegular(ValueError):
    """No unit-conditional certificate exists at some step."""

    def __init__(self, failure: "StepFailure") -> None:
        super().__init__(f"step {failure.m}: {failure.reason}")
        self.failure = failure


@dataclass(frozen=True)
class Classification:
    """Verdict of the one-step supermartingale test over all extremes."""

    kind: str  # "martingale" | "supermartingale-strict" | "not-supermartingale"
    worst_violation: tuple[int, int, int, float]  # (time, cell, extreme, E - f_prev)

    @property
    def is_supermartingale(self) -> bool:
        return self.kind != "not-supermartingale"


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
    """Why a certificate could not be produced at one step: ``certificate``
    is the Farkas value of a cell without a dominator (see
    :func:`xi0_step_lp`) or the residual that refused an LP answer."""

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
        defect = cond_exp_step(space, family, f.at_cells(m), m) - f.at_cells(m - 1)
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
    finite_and_above = np.isfinite(rows).all() and (rows >= -tol).all()
    return bool(finite_and_above and (np.abs(family.probs @ rows.T - 1.0) <= tol).all())


def _unit_density_vertex(masses: np.ndarray, objective: np.ndarray) -> Optional[np.ndarray]:
    """A vertex of ``{x >= 0 : masses @ x = 1}`` maximizing ``objective . x``,
    clipped at 0, or None if the kernel finds the set empty.

    The kernel takes nonnegative costs, so the program posed minimizes
    ``(lam * masses[0] - objective) . x``, ``lam`` the largest ratio
    ``objective / masses[0]`` and at least 0.  On the set, where
    ``masses[0] . x = 1``, that cost is ``lam - objective . x``, so the
    optimal vertices are the same.  The cost is clipped at 0 against
    round-off, and so is the vertex.  Its entries at or below ``STRICT_TOL``
    times the largest are the kernel's zeros (4.8e-14 next to 2.14) and
    are set to 0, so no cell's conditional expectation is dust, whose
    ratios are noise.
    """
    lam = max(0.0, float((objective / masses[0]).max()))
    cost = np.maximum(lam * masses[0] - objective, 0.0)
    out = solve(LinearProgram(cost, a_eq=masses, b_eq=np.ones(masses.shape[0])))
    if out.status != "optimal":
        return None
    x = np.maximum(out.x, 0.0)
    x[x <= STRICT_TOL * x.max()] = 0.0
    return x


def find_a0_element(
    family: MeasureFamily, objective: Optional[np.ndarray] = None
) -> np.ndarray:
    """An element of the unit-expectation density set, one entry per atom.

    With an objective, maximizes its inner product over the set by linear
    programming (a vertex).  Without one, returns the element with the
    largest smallest entry, which is exactly the constant 1: every element
    has ``min(xi) <= E_p[xi] = 1``, with equality only at ``xi == 1``
    because ``p > 0``.  Raises :class:`~doobkit.lp.NumericalBreakdown` when
    round-off leaves the vertex found outside the set.
    """
    n = family.space.n_atoms
    if objective is None:
        return np.ones(n)
    obj = np.asarray(objective, dtype=float)
    if obj.shape != (n,):
        raise ShapeMismatch("objective must have one entry per atom")
    a_eq = family.probs
    b_eq = np.ones(len(family))
    xi = _unit_density_vertex(a_eq, obj)
    if xi is None:  # xi == 1 is feasible, so only round-off gets here
        raise NumericalBreakdown("density search unexpectedly infeasible")
    resid = a_eq @ xi - b_eq
    if np.abs(resid).max() > 1e-13:
        # one least-squares polish step keeps the unit-expectation identity tight
        xi = xi - np.linalg.lstsq(a_eq, resid, rcond=None)[0]
        xi = np.maximum(xi, 0.0)
    if not a0_membership(family, xi):
        raise NumericalBreakdown("density search left the unit-expectation set")
    return xi


# ---------------------------------------------------------------------------
# certificates


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
    values: np.ndarray,
    m: int,
    tol: float,
) -> tuple[bool, int, float]:
    """Worst deviation of E{xi0 | F_{m-1}} from one, and the first extreme
    with it, for ``xi0`` taking ``values`` on the time-``m`` cells."""
    dev = np.abs(cond_exp_step(space, family, values, m) - 1.0).max(axis=1)
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
    sup = cond_exp_step(space, family, ratio, m).max(axis=0)[space.parent_cell(m)]
    norm = np.divide(ratio, sup, out=np.zeros_like(ratio), where=sup > 0.0)
    if (norm > 1.0 + STRICT_TOL).any():
        return StepFailure(m=m, reason="empty alpha interval")

    values = np.ones_like(ratio)
    ok, bad_i, dev = _check_unit_conditional(space, family, values, m, tol)
    if not ok:
        return StepFailure(
            m=m,
            reason=f"conditional expectation is {1 + dev:.12g}-ish under extreme {bad_i}, not 1",
            certificate=dev,
        )
    if (values < ratio - tol).any():
        return StepFailure(m=m, reason="candidate does not dominate the one-step ratio")
    return Xi0Step(m=m, xi0=space.expand(m, values), method="alpha-path", alpha=0.0)


def _least_dominators(
    f: AdaptedProcess, family: MeasureFamily, steps: Sequence[int]
) -> list[Union[np.ndarray, StepFailure]]:
    """Per listed step, the least-sum dominator's values on the time-``m``
    cells, or the :class:`StepFailure` of its lowest cell without one: the
    cells of every step whose children's ratio exceeds one go to
    :func:`~doobkit.lp.solve_batch`, one call per child count."""
    ratios = [one_step_ratio_cells(f, m) for m in steps]
    values: list = [np.ones_like(ratio) for ratio in ratios]
    groups: dict[int, list] = {}  # child count -> (step index, cells, children, law)
    for s, m in enumerate(steps):
        if not (ratios[s] > 1.0 + 1e-13).any():
            continue
        for parents, children, law in node_laws(family, m):
            nodes = np.flatnonzero(ratios[s][children].max(axis=1) > 1.0 + 1e-13)
            if nodes.size:
                part = (s, parents[nodes], children[nodes], law[nodes])
                groups.setdefault(children.shape[1], []).append(part)
    failed = []  # (step index, cell, certificate) of every cell without a dominator
    for parts in groups.values():
        law = np.concatenate([part[3] for part in parts])
        r = np.concatenate([ratios[s][children] for s, _, children, _ in parts])
        rhs = 1.0 - (law @ r[:, :, None])[:, :, 0]
        g, _, ray = solve_batch(law, rhs, np.ones((law.shape[0], law.shape[2])), law.shape[1])
        lo = 0
        for s, cells, children, _ in parts:
            hi = lo + cells.shape[0]
            values[s][children] = r[lo:hi] + g[lo:hi]
            for j in lo + np.flatnonzero(np.isnan(g[lo:hi, 0])):
                certificate = float(rhs[j] @ ray[j] / np.abs(ray[j]).max())
                failed.append((s, int(cells[j - lo]), certificate))
            lo = hi
    for s, cell, certificate in sorted(failed, reverse=True):  # each step's lowest cell last
        reason = f"no unit-conditional dominator over cell {cell} at time {steps[s] - 1}"
        values[s] = StepFailure(m=steps[s], reason=reason, cell=cell, certificate=certificate)
    return values


def _lp_step(
    family: MeasureFamily, m: int, values: np.ndarray, tol: float
) -> Union[Xi0Step, StepFailure]:
    """The step with ``values`` on its cells, if they pass the unit-conditional check."""
    ok, bad_i, dev = _check_unit_conditional(family.space, family, values, m, tol)
    if not ok:  # the kernel meets these rows only up to its pivot tolerance
        return StepFailure(m=m, reason=f"LP residual {dev} under extreme {bad_i}", certificate=dev)
    return Xi0Step(m=m, xi0=family.space.expand(m, values), method="lp-path", alpha=None)


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
    the constant 1; every other cell solves ``min sum(g)`` subject to
    ``C g = 1 - C r``, ``g >= 0``, for ``x = r + g`` (``C`` the children's
    laws under the extremes) by :func:`~doobkit.lp.solve_batch`, whose
    pivots pick ``xi0`` among tied least sums.  The lowest cell without a
    dominator is reported with the certificate ``(1 - C r) . d / max|d|``
    of its dual's Farkas ray ``d``.  A step is returned only after its
    conditional expectations are checked against one.
    """
    found = _least_dominators(f, family, [m])[0]
    return found if isinstance(found, StepFailure) else _lp_step(family, m, found, tol)


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

    Strategies: ``"lp"`` takes the certificate of :func:`xi0_step_lp` at
    every step; ``"auto"`` tries :func:`xi0_step_alpha` first.  The closed
    form certifies (``alpha = 0``, ``xi0 = 1``) exactly the steps whose
    one-step ratio is at most one and constant on each predecessor cell's
    children.  The LP steps are settled by one kernel call per child count.
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

    steps: dict[int, Xi0Step] = {}
    values: dict[int, np.ndarray] = {}  # each step's xi0 on its time-m cells
    if strategy == "auto":
        for m in range(1, space.horizon + 1):
            step = xi0_step_alpha(f, family, m, tol=tol)
            if isinstance(step, Xi0Step):
                steps[m], values[m] = step, np.ones(space.n_cells(m))
    rest = [m for m in range(1, space.horizon + 1) if m not in steps]
    # ascending, so the first failure raised is the first failing step
    for m, found in zip(rest, _least_dominators(f, family, rest)):
        step = found if isinstance(found, StepFailure) else _lp_step(family, m, found, tol)
        if isinstance(step, StepFailure):
            raise NotLocallyRegular(step)
        steps[m], values[m] = step, found

    # M_m = M_{m-1} + f_{m-1} (xi0_m - 1) and g_m = M_m - f_m, per cell
    mart = [f.at_cells(0)]
    for m in range(1, space.horizon + 1):
        parent = space.parent_cell(m)
        mart.append(mart[-1][parent] + f.at_cells(m - 1)[parent] * (values[m] - 1.0))
    comp = [mart[m] - f.at_cells(m) for m in range(space.horizon + 1)]
    return OptionalDecomposition(
        martingale=AdaptedProcess(space=space, per_time=tuple(mart)),
        compensator=AdaptedProcess(space=space, per_time=tuple(comp)),
        steps=tuple(steps[m] for m in range(1, space.horizon + 1)),
    )


def verify_decomposition(
    f: AdaptedProcess,
    decomposition: OptionalDecomposition,
    family: MeasureFamily,
    tol: float = DEFAULT_TOL,
) -> DecompositionReport:
    """Check the four properties that define the decomposition; never raises.

    ``f = M - g`` (``reconstruction``), ``g_0 = 0``
    (``compensator-starts-at-zero``), ``g`` non-decreasing
    (``compensator-monotone``) and ``M`` a one-step martingale under every
    extreme (``martingale-extremes``), each within ``tol``.  Nothing these
    imply is checked again: under a mixture of the extremes a cell's
    one-step conditional expectation is a mass-weighted average of the
    extremes', so its martingale gap is at most the extremes' gap; the
    one-step drift of ``f`` less the expected compensator growth is
    ``-E_i[M_m - M_{m-1} | F_{m-1}]`` up to the reconstruction error, so it
    is at most the extremes' gap plus twice ``reconstruction``; and the
    compensator increments recentred under an extreme have conditional
    expectation zero under it by construction.
    """
    space = family.space
    mart, comp = decomposition.martingale, decomposition.compensator
    checks: list[CheckResult] = []

    def add(name: str, violation: float) -> None:
        checks.append(CheckResult(name=name, max_violation=float(violation), passed=violation <= tol))

    elsewhere = [
        name
        for name, proc in (("f", f), ("martingale", mart), ("compensator", comp))
        if proc.space is not space and proc.space != space
    ]
    if elsewhere:
        name = f"shapes (not on the family's space: {', '.join(elsewhere)})"
        return DecompositionReport(checks=(CheckResult(name=name, max_violation=np.inf, passed=False),))
    recon = max(
        float(np.abs(f.at_cells(m) - (mart.at_cells(m) - comp.at_cells(m))).max())
        for m in range(space.horizon + 1)
    )
    add("reconstruction", recon)
    add("compensator-starts-at-zero", float(np.abs(comp.at_cells(0)).max()))
    growth = mart_ext = 0.0
    for m in range(1, space.horizon + 1):
        parent = space.parent_cell(m)
        growth = max(growth, float((comp.at_cells(m - 1)[parent] - comp.at_cells(m)).max()))
        gap = cond_exp_step(space, family, mart.at_cells(m), m) - mart.at_cells(m - 1)
        mart_ext = max(mart_ext, float(np.abs(gap).max()))
    add("compensator-monotone", growth)
    add("martingale-extremes", mart_ext)
    return DecompositionReport(checks=tuple(checks))
