"""The one simplex kernel of the library, and the single-program entry point.

Every program the library poses is ``min cost . x`` subject to equality and
``>=`` rows with ``x >= 0`` and a nonnegative cost.  Its dual, ``max rhs . y``
subject to ``law.T @ y <= cost``, is then feasible at ``y = 0``, so the
simplex method on the dual starts from the slack basis with no phase 1, and
the primal is never unbounded.  :func:`solve_batch` runs that method on a
stack of programs of one shape in lockstep; :func:`solve` poses one
:class:`LinearProgram` to it and checks the answer's residuals before it
leaves.  Pivots follow Bland's smallest-label rule, so the method terminates
on degenerate programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LinearProgram", "LpOutcome", "NumericalBreakdown", "solve", "solve_batch"]

PIVOT_TOL = 1e-12
#: a residual of :func:`solve` above this times the data's scale is refused
CERTIFY_TOL = 1e-9
_MAX_ITERS = 50_000


class NumericalBreakdown(RuntimeError):
    """The kernel could not reach an answer whose residuals certify it."""


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  s.t.  a_eq x = b_eq,  a_ge x >= b_ge,  x >= 0."""

    objective: np.ndarray
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    a_ge: Optional[np.ndarray] = None
    b_ge: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "objective", c)
        n = c.shape[0]
        for name in ("a_eq", "a_ge"):
            mat = getattr(self, name)
            if mat is not None:
                mat = np.atleast_2d(np.asarray(mat, dtype=float))
                if mat.shape[1] != n:
                    raise ValueError(f"{name} has {mat.shape[1]} columns for {n} variables")
                object.__setattr__(self, name, mat)
        for mname, vname in (("a_eq", "b_eq"), ("a_ge", "b_ge")):
            mat, vec = getattr(self, mname), getattr(self, vname)
            if (mat is None) != (vec is None):
                raise ValueError(f"{mname} and {vname} must be given together")
            if vec is not None:
                vec = np.atleast_1d(np.asarray(vec, dtype=float))
                if vec.shape[0] != mat.shape[0]:
                    raise ValueError(f"{vname} length does not match {mname}")
                object.__setattr__(self, vname, vec)
        pieces = [c] + [m for m in (self.a_eq, self.b_eq, self.a_ge, self.b_ge) if m is not None]
        if not all(np.isfinite(p).all() for p in pieces):
            raise ValueError("LP data must be finite")

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible"
    x: Optional[np.ndarray]
    value: Optional[float]
    y_eq: Optional[np.ndarray] = None
    y_ge: Optional[np.ndarray] = None
    primal_residual: float = 0.0
    duality_gap: float = 0.0
    comp_slackness: float = 0.0
    ray: Optional[np.ndarray] = None  # Farkas ray over the rows when status == "infeasible"


def solve(lp: LinearProgram) -> LpOutcome:
    """``lp`` by :func:`solve_batch` on its dual, the equality rows' duals free.

    An optimal outcome carries the primal point, the duals and three
    residuals: the primal one (rows and ``x >= 0``), the duality gap and
    complementary slackness.  Those three, and then dual feasibility
    (``y @ law <= cost`` and ``y >= 0`` off the equality rows), must each be
    at most ``CERTIFY_TOL`` times the largest absolute coefficient of the
    program (at least 1), or :class:`NumericalBreakdown` names the check
    that failed.  An infeasible program comes back with a ray ``d`` over its
    rows, nonnegative on the ``>=`` rows, with ``A.T @ d <= 0`` and
    ``b . d > 0``.  Raises ``ValueError`` on a negative objective entry.
    """
    cost = lp.objective
    if cost.min(initial=0.0) < 0.0:
        raise ValueError("the simplex kernel takes nonnegative objectives only")
    n_eq = 0 if lp.a_eq is None else lp.a_eq.shape[0]
    pairs = [(a, b) for a, b in ((lp.a_eq, lp.b_eq), (lp.a_ge, lp.b_ge)) if a is not None]
    if not pairs:  # x = 0 is optimal
        empty = np.zeros(0)
        return LpOutcome("optimal", np.zeros(lp.n_vars), 0.0, y_eq=empty, y_ge=empty)
    law = np.vstack([a for a, _ in pairs])
    rhs = np.concatenate([b for _, b in pairs])
    x, y, ray = solve_batch(law[None], rhs[None], cost[None], n_eq)
    x, y, ray = x[0], y[0], ray[0]
    if np.count_nonzero(ray):
        return LpOutcome("infeasible", None, None, ray=ray)
    value = float(cost @ x)
    resid = law @ x - rhs
    slack = resid[n_eq:]
    reduced = cost - y @ law
    residuals = {
        "primal residual": float(
            np.concatenate([np.abs(resid[:n_eq]), -slack, -x]).max(initial=0.0)
        ),
        "gap": value - float(rhs @ y),
        "complementary slackness": float(
            np.abs(np.concatenate([y[n_eq:] * slack, x * reduced])).max()
        ),
        "dual feasibility": float(np.concatenate([-reduced, -y[n_eq:]]).max(initial=0.0)),
    }
    bound = CERTIFY_TOL * max(1.0, cost.max(), np.abs(law).max(), np.abs(rhs).max())
    for check, residual in residuals.items():
        if not abs(residual) <= bound:  # a NaN residual fails too
            raise NumericalBreakdown(f"LP failed its {check} check: "
                                     f"residual {abs(residual):.3e} above {bound:.3e}")
    return LpOutcome(
        "optimal", x, value, y_eq=y[:n_eq], y_ge=y[n_eq:],
        primal_residual=residuals["primal residual"],
        duality_gap=residuals["gap"],
        comp_slackness=residuals["complementary slackness"],
    )


def solve_batch(
    law: np.ndarray, rhs: np.ndarray, cost: np.ndarray, n_free: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per node, ``max rhs . y`` subject to ``law.T @ y <= cost``, the first
    ``n_free`` duals free and the rest ``>= 0``, for ``(nodes, k, c)`` laws,
    ``(nodes, k)`` right-hand sides and ``(nodes, c)`` costs ``>= 0``; its
    primal is ``min cost . x`` over ``x >= 0`` with ``law @ x = rhs`` on the
    free rows and ``>=`` on the others.

    The nodes pivot in lockstep from the slack basis, each free dual split
    as ``y+ - y-``.  The tableau is condensed (Tucker): one row per basic
    variable and one column per nonbasic one, ``(c + 1) x (k + n_free + 1)``
    per node with the reduced costs in the last row.  Variables are labelled
    ``y+`` (or ``y``), then the free ``y-``, then the slacks; the entering
    column is the one of least label with reduced cost below ``-PIVOT_TOL``
    (Bland), the leaving row has the least ratio, ties going to the least
    label.  At an optimum ``x`` is the slacks' reduced costs.  A node whose
    entering column has no entry above ``PIVOT_TOL`` is primal infeasible:
    the column's ray ``d`` has ``law.T @ d <= 0``, ``rhs . d > 0`` and
    ``d >= 0`` off the free rows, a Farkas certificate.  Returns ``(x, y,
    ray)``: ``x`` and ``y`` NaN where there is no optimum, ``ray`` zero where
    there is one.
    """
    nodes, k, c = law.shape
    m = k + n_free  # nonbasic columns; column m is the right-hand side
    labels = m + c
    tab = np.zeros((nodes, c + 1, m + 1))
    tab[:, :c, :k] = law.transpose(0, 2, 1)
    tab[:, :c, k:m] = -tab[:, :c, :n_free]
    tab[:, :c, m] = cost
    tab[:, c, :k] = -rhs  # the reduced costs of min -rhs . y
    tab[:, c, k:m] = rhs[:, :n_free]
    nonbasic = np.arange(m)[None].repeat(nodes, axis=0)
    basic = np.arange(m, labels)[None].repeat(nodes, axis=0)
    live = np.arange(nodes)
    x, y, ray = np.full((nodes, c), np.nan), np.full((nodes, k), np.nan), np.zeros((nodes, k))

    def by_label(at, values):
        out = np.zeros((at.shape[0], labels))
        out[np.arange(at.shape[0])[:, None], at] = values
        return out

    def duals(v):
        v[:, :n_free] -= v[:, k:m]
        return v[:, :k]

    for _ in range(_MAX_ITERS):
        if not live.size:
            return x, y, ray
        rows = np.arange(live.size)
        entering = tab[:, c, :m] < -PIVOT_TOL
        col = np.where(entering, nonbasic, labels).argmin(axis=1)
        column = tab[rows, :, col]
        colvals = column[:, :c]
        done, can = ~entering[rows, col], colvals > PIVOT_TOL
        finished = done | ~can.any(axis=1)
        if np.count_nonzero(finished):  # the cheapest any() on a short mask
            stuck = finished & ~done
            if np.count_nonzero(done):
                x[live[done]] = by_label(nonbasic[done], tab[done, c, :m])[:, m:]
                y[live[done]] = duals(by_label(basic[done], tab[done, :c, m]))
            if np.count_nonzero(stuck):
                # along the ray the entering variable rises by one, the basic ones by -colvals
                step = by_label(basic[stuck], -colvals[stuck])
                step[np.arange(step.shape[0]), nonbasic[stuck, col[stuck]]] = 1.0
                ray[live[stuck]] = duals(step)
            keep = ~finished
            tab, basic, nonbasic, live = tab[keep], basic[keep], nonbasic[keep], live[keep]
            continue
        ratio = np.divide(tab[:, :c, m], colvals, out=np.full(colvals.shape, np.inf), where=can)
        row = np.where(ratio <= ratio.min(1, keepdims=True) + PIVOT_TOL, basic, labels).argmin(1)
        p = colvals[rows, row]
        inv = 1.0 / p
        pivot = tab[rows, row] / p[:, None]
        tab -= column[:, :, None] * pivot[:, None, :]
        # the leaving variable takes the entering one's column
        tab[rows, :, col] = -column * inv[:, None]
        tab[rows, row] = pivot
        tab[rows, row, col] = inv
        basic[rows, row], nonbasic[rows, col] = nonbasic[rows, col], basic[rows, row]
    raise NumericalBreakdown("batched simplex failed to terminate")
