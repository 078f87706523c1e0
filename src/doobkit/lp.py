"""Dense two-phase simplex kernel, and a batched one for many small programs.

:func:`solve` minimizes a linear objective over equality and >= constraints
with variables bounded below by 0.  Pivots follow Bland's smallest-index
rule, so the method terminates on degenerate desk-scale problems.

The tableau keeps the artificial columns through both phases, which makes
the dual vector readable off the final tableau: the artificial block holds
the running basis inverse.  Every optimal outcome carries its recovered
duals and the residuals of the primal, weak-duality and complementary
slackness checks.  :func:`solve_least_sums` settles a stack of one shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LinearProgram", "LpOutcome", "NumericalBreakdown", "solve", "solve_least_sums"]

PIVOT_TOL = 1e-12
FEAS_TOL = 1e-9
_MAX_ITERS = 50_000


class NumericalBreakdown(RuntimeError):
    """No admissible pivot above the stability threshold."""


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
        if any(not np.all(np.isfinite(p)) for p in pieces):
            raise ValueError("LP data must be finite")

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    value: Optional[float]
    y_eq: Optional[np.ndarray] = None
    y_ge: Optional[np.ndarray] = None
    primal_residual: float = 0.0
    duality_gap: float = 0.0
    comp_slackness: float = 0.0
    infeasibility: float = 0.0  # phase-1 objective when status == "infeasible"


class _Tableau:
    """Simplex state: rows of [A | b] in basis-canonical form."""

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        m, n = a.shape
        # flip rows to make rhs nonnegative before adding artificials
        flip = b < 0
        a = np.where(flip[:, None], -a, a)
        b = np.where(flip, -b, b)
        self.row_sign = np.where(flip, -1.0, 1.0)
        self.n_real = n
        self.n_rows = m
        self.art = list(range(n, n + m))
        self.tab = np.hstack([a, np.eye(m), b[:, None]])
        self.basis = list(self.art)

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        cb = cost[self.basis]
        return cost - cb @ self.tab[:, :-1]

    def _pivot(self, row: int, col: int) -> None:
        self.tab[row] /= self.tab[row, col]
        for i in range(self.n_rows):
            if i != row and self.tab[i, col] != 0.0:
                self.tab[i] -= self.tab[i, col] * self.tab[row]
        self.basis[row] = col

    def _choose_row(self, col: int) -> int:
        rhs = self.tab[:, -1]
        colvals = self.tab[:, col]
        candidates = np.where(colvals > PIVOT_TOL)[0]
        if candidates.size == 0:
            if np.any(colvals > 0):
                raise NumericalBreakdown(
                    f"all candidate pivots in column {col} are below {PIVOT_TOL}"
                )
            return -1  # unbounded direction
        ratios = rhs[candidates] / colvals[candidates]
        best = ratios.min()
        ties = candidates[ratios <= best + PIVOT_TOL]
        # Bland tie-break: leave the smallest basis index
        return int(min(ties, key=lambda i: self.basis[i]))

    def run(self, cost: np.ndarray, eligible: np.ndarray) -> str:
        """Iterate to optimality of ``cost``; returns "optimal" or "unbounded"."""
        for _ in range(_MAX_ITERS):
            red = self._reduced_costs(cost)
            red[~eligible] = 0.0
            neg = np.where(red < -PIVOT_TOL)[0]
            if neg.size == 0:
                return "optimal"
            col = int(neg[0])
            row = self._choose_row(col)
            if row < 0:
                return "unbounded"
            self._pivot(row, col)
        raise NumericalBreakdown("simplex failed to terminate")

    def solution(self) -> np.ndarray:
        x = np.zeros(self.tab.shape[1] - 1)
        for i, j in enumerate(self.basis):
            x[j] = self.tab[i, -1]
        return x

    def duals(self, cost: np.ndarray) -> np.ndarray:
        # artificial columns started as the identity, so they now hold B^{-1}
        cb = cost[self.basis]
        y = cb @ self.tab[:, self.art]
        return y * self.row_sign


def _standardize(lp: LinearProgram):
    """Assemble the standard-form matrix: equality rows, then >= rows with
    one surplus column each."""
    n = lp.n_vars
    n_eq = 0 if lp.a_eq is None else lp.a_eq.shape[0]
    n_ge = 0 if lp.a_ge is None else lp.a_ge.shape[0]
    a_std = np.zeros((n_eq + n_ge, n + n_ge))
    b_std = np.zeros(n_eq + n_ge)
    if n_eq:
        a_std[:n_eq, :n] = lp.a_eq
        b_std[:n_eq] = lp.b_eq
    if n_ge:
        a_std[n_eq:, :n] = lp.a_ge
        b_std[n_eq:] = lp.b_ge
        # one entry per surplus: an identity block would write -0.0 off the diagonal
        k = np.arange(n_ge)
        a_std[n_eq + k, n + k] = -1.0
    c_std = np.zeros(n + n_ge)
    c_std[:n] = lp.objective
    return a_std, b_std, c_std, n_ge, n_eq


def solve(lp: LinearProgram) -> LpOutcome:
    """Two-phase simplex solve of ``lp``.

    Raises :class:`NumericalBreakdown` when no numerically safe pivot
    exists; all other failure modes come back in the outcome status.
    """
    a_std, b_std, c_std, n_ge, n_eq = _standardize(lp)
    n = lp.n_vars

    if a_std.shape[0] == 0:
        # no constraints: x = 0 is optimal unless the objective points downhill
        if np.any(lp.objective < 0):
            return LpOutcome(status="unbounded", x=None, value=None)
        return LpOutcome(status="optimal", x=np.zeros(n), value=0.0)

    t = _Tableau(a_std, b_std)
    width = a_std.shape[1]
    total = width + t.n_rows

    phase1_cost = np.zeros(total)
    phase1_cost[width:] = 1.0
    eligible1 = np.ones(total, dtype=bool)
    status = t.run(phase1_cost, eligible1)
    infeas = float(phase1_cost[t.basis] @ t.tab[:, -1])
    if status != "optimal" or infeas > FEAS_TOL:
        return LpOutcome(status="infeasible", x=None, value=None, infeasibility=max(infeas, 0.0))

    # drive leftover artificials out of the basis with degenerate pivots so
    # they cannot drift positive in phase 2; an all-zero row over the real
    # columns is a redundant constraint and its artificial can never move
    for i in range(t.n_rows):
        if t.basis[i] >= width:
            cols = np.where(np.abs(t.tab[i, :width]) > PIVOT_TOL)[0]
            if cols.size:
                t._pivot(i, int(cols[0]))

    phase2_cost = np.zeros(total)
    phase2_cost[:width] = c_std
    eligible2 = np.ones(total, dtype=bool)
    eligible2[width:] = False  # artificials may leave but never re-enter
    status = t.run(phase2_cost, eligible2)
    if status == "unbounded":
        return LpOutcome(status="unbounded", x=None, value=None)

    x = t.solution()[:n]
    value = float(lp.objective @ x)

    y = t.duals(phase2_cost)
    y_eq = y[:n_eq] if n_eq else np.zeros(0)
    y_ge = y[n_eq:] if n_ge else np.zeros(0)

    primal_residual = 0.0
    dual_obj = 0.0
    comp = 0.0
    reduced = lp.objective.copy()
    if n_eq:
        r = lp.a_eq @ x - lp.b_eq
        primal_residual = max(primal_residual, float(np.abs(r).max()))
        dual_obj += float(lp.b_eq @ y_eq)
        reduced -= lp.a_eq.T @ y_eq
    if n_ge:
        slack = lp.a_ge @ x - lp.b_ge
        primal_residual = max(primal_residual, float(max(0.0, -slack.min(initial=0.0))))
        dual_obj += float(lp.b_ge @ y_ge)
        reduced -= lp.a_ge.T @ y_ge
        comp = max(comp, float(np.abs(y_ge * slack).max(initial=0.0)))
    primal_residual = max(primal_residual, float(max(0.0, -x.min(initial=0.0))))
    comp = max(comp, float(np.abs(x * reduced).max(initial=0.0)))

    return LpOutcome(
        status="optimal",
        x=x,
        value=value,
        y_eq=y_eq,
        y_ge=y_ge,
        primal_residual=primal_residual,
        duality_gap=float(value - dual_obj),
        comp_slackness=comp,
    )


def solve_least_sums(law: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the least-sum ``g >= 0`` with ``law @ g = rhs``, for
    ``(nodes, k, c)`` laws and ``(nodes, k)`` right-hand sides.

    The nodes run the simplex on their duals in lockstep: ``max rhs . y``
    subject to ``law.T @ y <= 1``, ``y = y+ - y-``, from the slack basis, so
    with no phase 1.  The entering column is the first with reduced cost
    below ``-PIVOT_TOL`` (Bland), the leaving row has the least ratio, ties
    going to the smallest basic index.  At an optimum ``g`` is the slacks'
    reduced costs.  A node whose entering column has no entry above
    ``PIVOT_TOL`` has no ``g``; the column's ray ``d`` has ``law.T @ d <= 0``
    and ``rhs . d > 0``, a Farkas certificate.  Returns ``(g, ray)``, with
    ``g`` NaN and ``ray`` zero on the rows where they do not exist.
    """
    nodes, k, c = law.shape
    w = 2 * k + c  # columns y+, y-, slacks; column w is the right-hand side
    tab = np.zeros((nodes, c + 1, w + 1))
    tab[:, :c, : 2 * k] = np.concatenate([law, -law], axis=1).transpose(0, 2, 1)
    tab[:, :c, 2 * k : w] = np.eye(c)
    tab[:, :c, w] = 1.0
    tab[:, c, : 2 * k] = np.hstack([-rhs, rhs])  # the reduced costs of min -rhs . y
    basis = np.tile(np.arange(2 * k, w), (nodes, 1))
    live = np.arange(nodes)
    g, ray = np.full((nodes, c), np.nan), np.zeros((nodes, k))
    for _ in range(_MAX_ITERS):
        if not live.size:
            return g, ray
        entering = tab[:, c, :w] < -PIVOT_TOL
        col = entering.argmax(axis=1)
        colvals = tab[np.arange(live.size), :c, col]
        done, can = ~entering.any(axis=1), colvals > PIVOT_TOL
        stuck = ~done & ~can.any(axis=1)
        if done.any() or stuck.any():
            g[live[done]] = tab[done, c, 2 * k : w]
            # along the ray the entering variable rises by one, the basic ones by -colvals
            step = np.zeros((int(stuck.sum()), w))
            step[np.arange(step.shape[0]), col[stuck]] = 1.0
            np.put_along_axis(step, basis[stuck], -colvals[stuck], axis=1)
            ray[live[stuck]] = step[:, :k] - step[:, k : 2 * k]
            keep = ~(done | stuck)
            tab, basis, live = tab[keep], basis[keep], live[keep]
            continue
        rows = np.arange(live.size)
        ratio = np.divide(tab[:, :c, w], colvals, out=np.full(colvals.shape, np.inf), where=can)
        row = np.where(ratio <= ratio.min(1, keepdims=True) + PIVOT_TOL, basis, w).argmin(1)
        pivot = tab[rows, row] / colvals[rows, row][:, None]
        tab -= tab[rows, :, col][:, :, None] * pivot[:, None, :]
        tab[rows, row] = pivot
        basis[rows, row] = col
    raise NumericalBreakdown("batched simplex failed to terminate")
