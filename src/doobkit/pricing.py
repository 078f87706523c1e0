"""Fair pricing of terminal claims by superhedging, and hedge extraction.

The fair price of a claim is the smallest initial capital ``a`` such that
``a * E{xi | F_N}`` dominates the claim pathwise for some nonnegative
``xi`` with unit expectation under every measure of the family.  On a
finite space that infimum is attained by a linear program, so no limiting
sequences appear here.  Because conditional expectations of such densities
need not agree across measures (see :mod:`doobkit.claims`), the domination
constraint is imposed under every extreme separately; when the terminal
partition separates atoms the readings coincide.

Two modes: the free mode optimizes over the whole density set, the
generator mode over the simplex spanned by finitely many given densities,
its price certified by its own primal-dual pair.  A density is a plain
float array, one entry per atom; the generators are such rows, checked
once as a stack by :func:`~doobkit.regularity.a0_membership`.  When the
family's extremes are martingale measures for a price process and the
generators are the normalized price slices, the optimal dominator is
itself a tradable martingale, a buy-and-hold portfolio of the slices, and
the self-financed strategy superhedging the claim holds one position per
level read off the generator weights, with no solve.

Each program is posed in its small form, rows x columns, for n atoms, k
extremes, M terminal cells (M' of them holding more than one atom) and G
generators:

- free price: ``(k - 1 + k * M') x n``; the domination of a one-atom
  terminal cell is a lower bound on that atom, taken in by a shift;
- generator price: a working set W of its ``k * M`` rows, ``|W| x G``,
  grown by row generation;
- martingale measure: none, a product of closed-form one-step laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lp import LinearProgram, NumericalBreakdown, solve
from .regularity import a0_membership
from .space import (
    DEFAULT_TOL,
    MIN_PROB,
    STRICT_TOL,
    AdaptedProcess,
    FilteredSpace,
    Measure,
    MeasureFamily,
    ShapeMismatch,
    compose_laws,
    cond_exp_cells,
    cond_exp_step,
)

__all__ = [
    "BadBounds",
    "NotMeasurable",
    "GeneratorNotInA0",
    "FamilyNotEmm",
    "NotRepresentable",
    "PricingInfeasible",
    "MarketModel",
    "PricingResult",
    "EmmResult",
    "EmmReport",
    "TradingStrategy",
    "fair_price_a0",
    "fair_price_generators",
    "closed_form_call",
    "closed_form_put",
    "find_emm",
    "verify_emm",
    "martingale_representation",
    "price_slice_generators",
    "superhedge_strategy",
]


class BadBounds(ValueError):
    """Nonpositive price or bound inputs."""


class NotMeasurable(ValueError):
    """The claim is not measurable at the terminal time."""


class GeneratorNotInA0(ValueError):
    """A generator fails the unit-expectation density conditions."""


class FamilyNotEmm(ValueError):
    """An extreme of the family is not a martingale measure for the asset."""


class PricingInfeasible(ValueError):
    """No combination of the given generators dominates the claim."""


class NotRepresentable(ValueError):
    """The martingale's increments leave the span of the asset increments."""

    def __init__(self, m: int, cell: int, residual: float) -> None:
        super().__init__(
            f"increment at time {m}, predecessor cell {cell} is not an asset "
            f"combination (residual {residual:.3e})"
        )
        self.m = m
        self.cell = cell
        self.residual = residual


@dataclass(frozen=True, eq=False)
class MarketModel:
    """One risky asset with the riskless asset pinned at 1.

    Optional per-time bounds (low, high) must bracket the price pathwise,
    with lows non-increasing and highs non-decreasing in time.
    """

    S: AdaptedProcess
    bounds: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        for m in range(self.S.horizon + 1):
            if (self.S.at_cells(m) <= 0.0).any():
                raise BadBounds(f"price must be strictly positive (time {m})")
        if self.bounds is not None:
            bounds = tuple((float(a), float(b)) for a, b in self.bounds)
            object.__setattr__(self, "bounds", bounds)
            if len(bounds) != self.S.horizon + 1:
                raise BadBounds("need one (low, high) pair per time")
            for m, (lo, hi) in enumerate(bounds):
                if lo <= 0.0 or hi < lo:
                    raise BadBounds(f"time {m}: bad bracket ({lo}, {hi})")
                s = self.S.at_cells(m)
                if (s < lo - STRICT_TOL).any() or (s > hi + STRICT_TOL).any():
                    raise BadBounds(f"time {m}: price leaves [{lo}, {hi}]")
                if m:
                    if lo > bounds[m - 1][0] + STRICT_TOL:
                        raise BadBounds("lower bounds must be non-increasing")
                    if hi < bounds[m - 1][1] - STRICT_TOL:
                        raise BadBounds("upper bounds must be non-decreasing")

    @property
    def space(self) -> FilteredSpace:
        return self.S.space

    @property
    def s0(self) -> float:
        return float(self.S.at_cells(0)[0])


@dataclass(frozen=True, eq=False)
class PricingResult:
    fair_price: float
    dominator: np.ndarray  # per atom, >= claim
    mode: str  # "a0" | "generators"
    gamma: Optional[np.ndarray] = None  # simplex weights, generator mode
    lower_bound: float = 0.0  # max over extremes of the claim's expectation
    density: Optional[np.ndarray] = None  # optimal density (free mode, price > 0)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "fair_price": self.fair_price,
            "gamma": None if self.gamma is None else [float(g) for g in self.gamma],
            "dominator": [float(v) for v in self.dominator],
            "lower_bound": self.lower_bound,
        }


#: a node floor at or below this gives no martingale measure
EMM_MIN_SLACK = 1e-10


@dataclass(frozen=True, eq=False)
class EmmResult:
    measure: Optional[Measure]
    min_slack: float  # smallest one-step conditional probability over the nodes


@dataclass(frozen=True)
class EmmReport:
    max_residual: float
    passed: bool


@dataclass(frozen=True, eq=False)
class TradingStrategy:
    """Predictable positions and the capital they carry.

    ``cash[m]`` and ``risky[m]`` for m >= 1 hold one value per cell of the
    time ``m-1`` partition (announced one step ahead); index 0 holds the
    initial positions, one per time-0 cell.  Capital is ``cash + risky *
    price`` and the rebalancing is self-financed.
    """

    cash: tuple[np.ndarray, ...]
    risky: tuple[np.ndarray, ...]
    capital: AdaptedProcess
    pricing: PricingResult

    def initial_capital(self) -> float:
        return float(self.capital.at_cells(0)[0])

    def self_financing_residual(self, market: MarketModel) -> float:
        """Max |change of cash + change of risky * previous price| over the
        nodes, one value per cell."""
        space = self.capital.space
        worst = 0.0
        for m in range(1, space.horizon + 1):
            # the positions held into time m - 1 sit on its parent cells, the initial ones at 0
            pp = space.parent_cell(m - 1) if m > 1 else 0
            cash_change = self.cash[m] - self.cash[m - 1][pp]
            resid = cash_change + (self.risky[m] - self.risky[m - 1][pp]) * market.S.at_cells(m - 1)
            worst = max(worst, float(np.abs(resid).max()))
        return worst

    def capital_residual(self, market: MarketModel) -> float:
        """Max |capital - (cash + risky * price)|, one value per cell."""
        space = self.capital.space
        worst = 0.0
        for m in range(space.horizon + 1):
            prev = space.parent_cell(m) if m else 0
            held = self.cash[m][prev] + self.risky[m][prev] * market.S.at_cells(m)
            worst = max(worst, float(np.abs(self.capital.at_cells(m) - held).max()))
        return worst


# ---------------------------------------------------------------------------
# pricing LPs


def _claim_cells(space: FilteredSpace, claim: np.ndarray) -> np.ndarray:
    claim = np.asarray(claim, dtype=float)
    if claim.shape != (space.n_atoms,):
        raise NotMeasurable(f"claim has shape {claim.shape}, space has {space.n_atoms} atoms")
    if (claim < -STRICT_TOL).any():
        raise ValueError("claim must be nonnegative")
    if not np.isfinite(claim).all():
        raise ValueError("claim must be finite")
    try:
        return space.restrict(space.horizon, claim)
    except ShapeMismatch as exc:
        raise NotMeasurable(str(exc)) from exc


def _domination_rows(space: FilteredSpace, family: MeasureFamily, keep: np.ndarray) -> np.ndarray:
    """Rows mapping an atom vector h to E{h | F_N}(cell), per extreme per
    terminal cell where the boolean ``keep`` holds: the free price's
    multi-atom terminal cells, where the LP needs the rows themselves."""
    horizon, probs = space.horizon, family.probs
    cell = space.atom_to_cell(horizon)
    atoms = np.flatnonzero(keep[cell])
    rows = np.zeros((len(family), np.count_nonzero(keep), space.n_atoms))
    cond = probs[:, atoms] / family.masses(horizon)[:, cell[atoms]]
    rows[:, (np.cumsum(keep) - 1)[cell[atoms]], atoms] = cond
    return rows.reshape(-1, space.n_atoms)


def _generator_stack(generators: Sequence[np.ndarray], family: MeasureFamily) -> np.ndarray:
    """The generators as ``(G, n)`` rows, checked in one
    :func:`~doobkit.regularity.a0_membership` pass."""
    n = family.space.n_atoms
    xis = [np.asarray(g, dtype=float) for g in generators]
    if not xis:
        raise ValueError("need at least one generator")
    # a row of the wrong length is NaN and fails
    stack = np.vstack([xi if xi.shape == (n,) else np.full(n, np.nan) for xi in xis])
    if not a0_membership(family, stack):
        raise GeneratorNotInA0("expectation is not one under every extreme")
    return stack


def fair_price_a0(
    claim: np.ndarray, family: MeasureFamily, tol: float = DEFAULT_TOL
) -> PricingResult:
    """Smallest capital whose scaled density conditional dominates the claim.

    Minimizes t over nonnegative h with expectation t under every extreme
    and terminal conditional expectation at least the claim under every
    extreme.  On a terminal cell holding one atom that domination reads
    ``h_i >= claim_i`` under every extreme alike, so it is a lower bound
    and enters by the shift ``h = shift + g``, ``g >= 0``, with ``shift``
    the claim on such atoms and 0 elsewhere.  ``t`` is the first extreme's
    expectation ``p_1 . h``, the program minimizes ``p_1 . g`` with
    ``(p_i - p_1) . g = -(p_i - p_1) . shift`` for the other extremes, and
    the price is ``p_1 . h``.  The program posed is then
    ``(k - 1 + k * M') x n`` for k extremes, n atoms and M' terminal cells
    of more than one atom: ``1 x 243`` for two extremes on 243 atoms with an
    atom-fine terminal partition.  Always feasible (a large constant
    works).  The optimal h / price is the realizing density when the price
    is positive.
    """
    space = family.space
    claim_cells = _claim_cells(space, claim)
    k = len(family)
    cell = space.atom_to_cell(space.horizon)
    multi = np.bincount(cell) > 1  # terminal cells of more than one atom
    shift = np.where(multi[cell], 0.0, np.maximum(claim_cells[cell], 0.0))
    # t = E_1[h]; the other extremes' expectations equal it
    probs = family.probs
    a_eq = b_eq = a_ge = b_ge = None
    if k > 1:
        a_eq = probs[1:] - probs[0]
        b_eq = -a_eq @ shift
    if multi.any():
        # shift vanishes on multi-atom cells, so their bounds stay the claim
        a_ge = _domination_rows(space, family, multi)
        b_ge = np.tile(claim_cells[multi], k)
    out = solve(LinearProgram(probs[0], a_eq=a_eq, b_eq=b_eq, a_ge=a_ge, b_ge=b_ge))
    if out.status != "optimal":  # always feasible, so only round-off gets here
        raise NumericalBreakdown(f"free-mode pricing LP came back {out.status}")
    h = shift + out.x
    price = float(probs[0] @ h)
    dominator = space.expand(
        space.horizon, cond_exp_cells(space, h, family.extremes[0], space.horizon)
    )
    lower = float((family.probs @ claim).max())
    if price < lower - 1e-8:  # would contradict the LP constraints
        raise NumericalBreakdown(f"price {price} fell below the expectation bound {lower}")
    density = h / price if price > tol else None
    return PricingResult(
        fair_price=price,
        dominator=dominator,
        mode="a0",
        gamma=None,
        lower_bound=lower,
        density=density,
    )


def _largest(values: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` entries of the ascending ``rows`` with the largest
    ``values``, ties to the lower row, in ascending order."""
    if rows.size <= count:
        return rows
    v = values[rows]
    cut = np.partition(v, -count)[-count]
    above = rows[v > cut]
    return np.sort(np.concatenate([above, rows[v == cut][: count - above.size]]))


def fair_price_generators(
    claim: np.ndarray,
    generators: Sequence[np.ndarray],
    family: MeasureFamily,
    tol: float = DEFAULT_TOL,
) -> PricingResult:
    """Fair price over the simplex spanned by the given densities.

    Minimizes the total weight of a nonnegative combination of the
    generators whose terminal conditional expectation dominates the claim
    under every extreme: minimize ``sum(w)`` over ``w >= 0`` with
    ``C w >= b``, where C maps weights to conditional expectations and b is
    the claim per extreme and cell.  Column g of C is the terminal
    conditional expectation of generator g under each extreme in turn, from
    one :func:`~doobkit.space.cond_exp_cells` call over every (generator,
    extreme) pair.  The kernel solves it through its dual, maximize
    ``b . y`` over ``y >= 0`` with ``C^T y <= 1``; the weights are the
    primal point and the price is ``b . y``.

    That program has ``k * M`` rows for G columns (k extremes, M terminal
    cells, G generators), but a basic optimum needs at most G of them, so
    it is posed over a working set W of rows, ``|W| x G``, grown by row
    generation.  W starts as the G rows of largest claim (ties to the lower
    row) and is kept in ascending row order, so when it holds every row
    the program is the whole one.  After each solve, ``C w`` is checked on
    every row; the rows outside W short of the claim by more than the
    certificate's tolerance join it, largest shortfall first and at most 4G
    per round, until none does.  Each round adds a row, so the loop ends.
    The price is the optimum of the whole program up to round-off; where
    the optimal weights are not unique, the working set may pick another.

    The price is certified by its own primal-dual pair over all the rows,
    ``y`` being the last dual solution with zeros outside W, each residual
    at most ``1e-9 * max(1, |b|, |C|)``: ``C w >= b``, ``C^T y <= 1`` with
    ``y >= 0``, and ``sum(w)`` and ``b . y`` both equal to the price, which
    weak duality then makes optimal.  A failed check raises
    :class:`~doobkit.lp.NumericalBreakdown` naming it.
    """
    space = family.space
    claim_cells = _claim_cells(space, claim)
    stack = _generator_stack(generators, family)
    k, n_gens = len(family), stack.shape[0]
    # row g * k + j is generator g under extreme j, so columns run extreme-major
    xis = np.repeat(stack, k, axis=0)
    cond = cond_exp_cells(space, xis, np.tile(family.probs, (n_gens, 1)), space.horizon)
    cols = cond.reshape(n_gens, -1).T
    b_ge = np.tile(claim_cells, k)
    scale = 1e-9 * max(1.0, np.abs(b_ge).max(), np.abs(cols).max())
    work = _largest(b_ge, np.arange(b_ge.size), n_gens)
    while True:
        out = solve(LinearProgram(np.ones(n_gens), a_ge=cols[work], b_ge=b_ge[work]))
        if out.status == "infeasible":  # the working rows are rows of the whole program
            raise PricingInfeasible(
                "no nonnegative combination of the generators dominates the claim"
            )
        weights = np.maximum(out.x, 0.0)
        dominated = cols @ weights
        short = b_ge - dominated
        short[work] = -np.inf
        join = _largest(short, np.flatnonzero(short > scale), 4 * n_gens)
        if not join.size:
            break
        work = np.sort(np.concatenate([work, join]))  # join lies outside work
    y = np.zeros(b_ge.size)
    y[work] = out.y_ge
    price = float(b_ge[work] @ out.y_ge)
    residuals = {
        "domination": np.max(b_ge - dominated, initial=0.0),
        "dual feasibility": max(np.max(cols.T @ y - 1.0, initial=0.0), -y.min(initial=0.0)),
        # both objectives against the price reported, so it is the one certified
        "gap": max(abs(weights.sum() - price), abs(b_ge @ y - price)),
    }
    for check, residual in residuals.items():
        if not residual <= scale:  # a NaN residual fails too
            raise NumericalBreakdown(f"generator price failed its {check} check: "
                                     f"residual {residual:.3e} above {scale:.3e}")
    dominator = space.expand(space.horizon, dominated[: space.n_cells(space.horizon)])
    gamma = weights / weights.sum() if price > tol else None
    return PricingResult(fair_price=price, dominator=dominator, mode="generators",
                         gamma=gamma, lower_bound=float((family.probs @ claim).max()))


def closed_form_call(s0: float, strike: float, terminal_high: float) -> float:
    """Price of ``(S_N - K)+`` on a band-bounded market: ``S0 (1 - K / high)``
    when the strike is inside the band, zero past it."""
    if s0 <= 0.0 or terminal_high <= 0.0 or strike < 0.0:
        raise BadBounds("need s0 > 0, terminal_high > 0, strike >= 0")
    if strike >= terminal_high:
        return 0.0
    return s0 * (1.0 - strike / terminal_high)


def closed_form_put(strike: float, terminal_low: float) -> float:
    """Price of ``(K - S_N)+`` on a band-bounded market: ``K - low`` when the
    strike is above the floor, zero below it."""
    if terminal_low <= 0.0 or strike < 0.0:
        raise BadBounds("need terminal_low > 0, strike >= 0")
    if strike <= terminal_low:
        return 0.0
    return strike - terminal_low


# ---------------------------------------------------------------------------
# martingale measures


def find_emm(market: MarketModel) -> EmmResult:
    """Strictly positive martingale measure with maximal smallest one-step
    conditional probability at every node.

    It is a product of zero-drift one-step laws, one per node.  At a node
    whose c children move the price by d, with sum ``tot`` and ``far`` the
    move furthest against it, the largest floor is ``far / (c * far - tot)``
    (``1 / c`` when ``tot = 0``, 0 when no move goes strictly against it);
    every child gets it and the children at ``far`` split the rest evenly.
    A terminal cell of several atoms splits its mass evenly.  ``min_slack``
    is the smallest node floor; no measure when it is at most
    ``EMM_MIN_SLACK``, or when the product leaves an atom at or below
    ``MIN_PROB`` (a measure exists then, but a :class:`Measure` cannot hold
    it).
    """
    space = market.space
    steps = []
    floor = 1.0
    for m in range(1, space.horizon + 1):
        parent = space.parent_cell(m)
        d = market.S.at_cells(m) - market.S.at_cells(m - 1)[parent]
        c = np.bincount(parent)  # every node has a child, so one entry per node
        tot = np.bincount(parent, weights=d)
        # moves signed against the drift: the least is the far move, below 0 iff a floor exists
        against = d * np.sign(tot)[parent]
        order, starts = space.children_table(m)
        least = np.minimum.reduceat(against[order], starts[:-1])
        den = c * least - np.abs(tot)
        eps = np.divide(least, den, out=np.where(tot == 0.0, 1.0 / c, 0.0), where=least < 0.0)
        left = np.divide(-np.abs(tot), den, out=np.zeros(c.shape), where=least < 0.0)  # 1 - c eps
        floor = min(floor, float(eps.min()))
        takes = against == least[parent]
        share = left / np.bincount(parent, weights=takes)
        steps.append(eps[parent] + np.where(takes, share[parent], 0.0))
    terminal = space.atom_to_cell(space.horizon)
    q = compose_laws(space, steps, 1.0 / np.bincount(terminal)[terminal])
    found = floor > EMM_MIN_SLACK and q.min() > MIN_PROB
    return EmmResult(measure=Measure(q) if found else None, min_slack=floor)


def _drift_residuals(family: MeasureFamily, market: MarketModel) -> np.ndarray:
    """Per extreme, the largest cellwise one-step drift of the price; one
    stacked one-step conditional expectation per level serves every extreme."""
    space = market.space
    worst = np.zeros(len(family))
    for m in range(1, space.horizon + 1):
        e = cond_exp_step(space, family, market.S.at_cells(m), m)
        worst = np.maximum(worst, np.abs(e - market.S.at_cells(m - 1)).max(axis=1))
    return worst


def verify_emm(q: Measure, market: MarketModel, tol: float = DEFAULT_TOL) -> EmmReport:
    """Largest cellwise one-step drift of the price under ``q``."""
    worst = float(_drift_residuals(MeasureFamily(space=market.space, extremes=(q,)), market)[0])
    return EmmReport(max_residual=worst, passed=worst <= tol)


# ---------------------------------------------------------------------------
# representation and hedging


def martingale_representation(
    mproc: AdaptedProcess,
    market: MarketModel,
    tol: float = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Predictable positions whose gains replicate the martingale increments.

    Per predecessor cell, the least-norm least-squares solution of ``H *
    ds = dm`` over the child cells is ``<ds, dm> / <ds, ds>``, or 0 where
    the price does not move; a level's cells are settled at once.  Raises
    :class:`NotRepresentable` at the first (time, cell), ascending, whose
    children's largest residual exceeds ``tol``; on success the gains
    process telescopes back to the martingale up to those residuals.
    """
    space = market.space
    if mproc.space != space:
        raise ShapeMismatch("martingale lives on a different space")
    positions: list[np.ndarray] = []
    for m in range(1, space.horizon + 1):
        parent = space.parent_cell(m)
        n_prev = space.n_cells(m - 1)
        ds = market.S.at_cells(m) - market.S.at_cells(m - 1)[parent]
        dm = mproc.at_cells(m) - mproc.at_cells(m - 1)[parent]
        num = np.bincount(parent, weights=ds * dm, minlength=n_prev)
        den = np.bincount(parent, weights=ds * ds, minlength=n_prev)
        h = np.divide(num, den, out=np.zeros(n_prev), where=den > 0.0)
        resid = np.abs(h[parent] * ds - dm)
        bad = resid > tol
        if bad.any():
            b = int(parent[bad].min())
            raise NotRepresentable(m=m, cell=b, residual=float(resid[parent == b].max()))
        positions.append(h)
    return positions


def price_slice_generators(market: MarketModel) -> np.ndarray:
    """The normalized price slices S_m / S_0 for m = 0..N as ``(N + 1, n)``
    rows (so row 0 is the constant 1); each is a unit-expectation density
    when every extreme is a martingale measure, which
    :func:`fair_price_generators` checks."""
    return np.vstack([market.S.at_atoms(m) / market.s0 for m in range(market.space.horizon + 1)])


def superhedge_strategy(
    claim: np.ndarray,
    market: MarketModel,
    family: MeasureFamily,
    tol: float = DEFAULT_TOL,
) -> TradingStrategy:
    """Self-financed strategy superhedging the claim from its fair price.

    Requires every extreme to be a martingale measure for the asset.  The
    claim is priced over the normalized price slices, generator i being the
    slice of time i, so the optimal dominator is ``price * sum_i gamma_i *
    S_{min(i, m)} / S_0``: a buy-and-hold portfolio of the slices, the same
    under every martingale measure.  Its position over step m is ``price /
    S_0 * sum_{i >= m} gamma_i`` units of the asset, zero when ``gamma`` is
    None, held at every node whose children move the price (a node whose
    children all sit at its price holds nothing).  Capital starts at the
    fair price and follows the self-financing recursion ``X_m =
    X_{m-1} + h * (S_m - S_{m-1})``, ending at or above the claim; cash is
    ``X_{m-1} - h * S_{m-1}``.
    """
    space = market.space
    drift = _drift_residuals(family, market)
    bad = np.flatnonzero(~(drift <= tol))  # a NaN drift fails too
    if bad.size:
        raise FamilyNotEmm(f"extreme {bad[0]} has price drift {drift[bad[0]]:.3e}")
    pricing = fair_price_generators(claim, price_slice_generators(market), family, tol=tol)
    price = pricing.fair_price
    held = np.zeros(space.horizon + 1)
    if pricing.gamma is not None:  # held[m] is the weight of the slices of time m and later
        held = price / market.s0 * np.cumsum(pricing.gamma[::-1])[::-1]
    capital = [np.array([price])]
    cash = [np.array([price])]
    risky = [np.array([0.0])]
    for m in range(1, space.horizon + 1):
        parent = space.parent_cell(m)
        s_prev = market.S.at_cells(m - 1)
        ds = market.S.at_cells(m) - s_prev[parent]
        moves = np.bincount(parent, weights=ds * ds, minlength=space.n_cells(m - 1)) > 0.0
        h = np.where(moves, held[m], 0.0)
        risky.append(h)
        cash.append(capital[-1] - h * s_prev)
        capital.append(capital[-1][parent] + h[parent] * ds)
    return TradingStrategy(
        cash=tuple(cash),
        risky=tuple(risky),
        capital=AdaptedProcess(space=space, per_time=tuple(capital)),
        pricing=pricing,
    )
