"""Answer checks that share no code with the library path under test.

Conditional expectations are recomputed with ``np.bincount`` over
atom->cell arrays the benchmark builds itself; optimality of prices is
checked against ``scipy.optimize.linprog(method="highs")`` when scipy is
importable (it is not a dependency of the library).  Every check returns
``None`` when the answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

try:  # optional oracle
    from scipy import sparse as _sparse
    from scipy.optimize import linprog as _linprog
except ImportError:  # pragma: no cover - depends on the environment
    _linprog = None

HAVE_HIGHS = _linprog is not None
#: relative tolerance of a price against the HiGHS optimum
PRICE_RTOL = 1e-7
#: absolute tolerance of identities, scaled by the data's magnitude
TOL = 1e-8


def _scale(*arrays) -> float:
    return max([1.0] + [float(np.max(np.abs(a))) for a in arrays if np.size(a)])


class Cells:
    """Per-level atom->cell index arrays, and conditional expectations over them."""

    def __init__(self, maps: Sequence[np.ndarray]) -> None:
        self.maps = [np.asarray(a, dtype=np.intp) for a in maps]
        self.counts = [int(a.max()) + 1 for a in self.maps]
        # parent of each time-m cell: the time-(m-1) cell of its first atom
        self.parents = [np.zeros(1, dtype=np.intp)]
        for m in range(1, len(self.maps)):
            _, first = np.unique(self.maps[m], return_index=True)
            self.parents.append(self.maps[m - 1][first])

    @classmethod
    def of(cls, space) -> "Cells":
        """Maps read off the space's partition data (cells are atom lists)."""
        maps = []
        for part in space.partitions:
            a = np.empty(space.n_atoms, dtype=np.intp)
            for c, cell in enumerate(part):
                a[list(cell)] = c
            maps.append(a)
        return cls(maps)

    @property
    def horizon(self) -> int:
        return len(self.maps) - 1

    def n_cells(self, m: int) -> int:
        return self.counts[m]

    def cond(self, x: np.ndarray, p: np.ndarray, m: int) -> np.ndarray:
        """E_p[x | F_m], one value per time-m cell."""
        idx, n = self.maps[m], self.counts[m]
        return np.bincount(idx, weights=p * x, minlength=n) / np.bincount(
            idx, weights=p, minlength=n
        )

    def atoms(self, m: int, per_cell: np.ndarray) -> np.ndarray:
        return np.asarray(per_cell, dtype=float)[self.maps[m]]


# ---------------------------------------------------------------------------
# certification side


def max_drift(cells: Cells, levels: Sequence[np.ndarray], probs) -> float:
    """Largest E_p[X_m | F_{m-1}] - X_{m-1} over m, extremes and cells."""
    worst = -np.inf
    for m in range(1, cells.horizon + 1):
        xm = cells.atoms(m, levels[m])
        for p in probs:
            worst = max(worst, float((cells.cond(xm, p, m - 1) - levels[m - 1]).max()))
    return worst


def check_classify(cls, cells: Cells, f, probs, tol: float = 1e-9) -> Optional[str]:
    levels = [f.at_cells(m) for m in range(cells.horizon + 1)]
    worst = max_drift(cells, levels, probs)
    gap = abs(worst - cls.worst_violation[3])
    if gap > TOL * _scale(*levels):
        return f"worst drift {cls.worst_violation[3]!r}, recomputed {worst!r}"
    if abs(worst - tol) > 1e-12 and (worst > tol) != (cls.kind == "not-supermartingale"):
        return f"verdict {cls.kind!r} with recomputed worst drift {worst!r}"
    return None


def check_decomposition(
    cells: Cells, f_levels: Sequence[np.ndarray], mart: Sequence[np.ndarray],
    comp: Sequence[np.ndarray], probs,
) -> Optional[str]:
    """f = M - A, A non-decreasing from zero, M driftless under every extreme."""
    n = cells.horizon
    if len(mart) != n + 1 or len(comp) != n + 1:
        return "decomposition has the wrong number of levels"
    mart = [np.asarray(v, dtype=float) for v in mart]
    comp = [np.asarray(v, dtype=float) for v in comp]
    tol = TOL * _scale(*f_levels, *mart)
    recon = max(
        float(np.abs(np.asarray(f_levels[m]) - (mart[m] - comp[m])).max()) for m in range(n + 1)
    )
    if recon > tol:
        return f"reconstruction residual {recon:.3e}"
    if abs(float(comp[0][0])) > tol:
        return f"compensator starts at {float(comp[0][0])!r}"
    for m in range(1, n + 1):
        drop = float((comp[m - 1][cells.parents[m]] - comp[m]).max())
        if drop > tol:
            return f"compensator decreases by {drop:.3e} at time {m}"
    for m in range(1, n + 1):
        xm = cells.atoms(m, mart[m])
        for i, p in enumerate(probs):
            drift = float(np.abs(cells.cond(xm, p, m - 1) - mart[m - 1]).max())
            if drift > tol:
                return f"martingale drift {drift:.3e} at time {m} under extreme {i}"
    return None


def envelope(cells: Cells, xi: np.ndarray, probs) -> list[np.ndarray]:
    return [
        np.max([cells.cond(xi, p, m) for p in probs], axis=0) for m in range(cells.horizon + 1)
    ]


def envelope_violation(claim: str, cells: Cells, xi: np.ndarray, probs) -> Optional[float]:
    """The audited quantity of the envelope claims, or None for other claims.

    ``lemma-tmars5``: the envelope's largest upward drift.  ``lemma-q5`` and
    ``lemma-lkq4``: the largest excess of E_i[env_n | F_m] over env_m, m < n.
    """
    env = envelope(cells, xi, probs)
    if claim == "lemma-tmars5":
        return max(0.0, max_drift(cells, env, probs))
    if claim in ("lemma-q5", "lemma-lkq4"):
        worst = 0.0
        for n in range(1, cells.horizon + 1):
            phi = cells.atoms(n, env[n])
            for m in range(n):
                for p in probs:
                    worst = max(worst, float((cells.cond(phi, p, m) - env[m]).max()))
        return worst
    return None


def check_audit(result, claim: str, cells: Cells, xi, probs, expect: Optional[str],
                tol: float = 1e-9) -> Optional[str]:
    if expect is not None and result.verdict != expect:
        return f"verdict {result.verdict!r}, expected {expect!r} (violation {result.violation!r})"
    own = envelope_violation(claim, cells, np.asarray(xi, dtype=float), probs)
    if own is not None:
        if abs(own - result.violation) > 1e-9 * max(1.0, own):
            return f"violation {result.violation!r}, recomputed {own!r}"
        if abs(own - tol) > 1e-12 and (own > tol) != (result.verdict == "counterexample"):
            return f"verdict {result.verdict!r} with recomputed violation {own!r}"
    return None


def parse_witness(doc: dict) -> tuple[Cells, list[np.ndarray], np.ndarray]:
    """Cells, extremes and payoff of a witness document (1-based atoms)."""
    n = int(doc["atoms"])
    maps = []
    for level in doc["filtration"]:
        a = np.full(n, -1, dtype=np.intp)
        for c, cell in enumerate(sorted(level, key=min)):
            a[np.asarray(cell, dtype=np.intp) - 1] = c
        if np.any(a < 0):
            raise ValueError("witness filtration does not cover the atoms")
        maps.append(a)
    cells = Cells(maps)
    probs = [np.asarray(v, dtype=float) for v in doc["measures"].values()]
    if "xi" in doc.get("claims", {}):
        entry = doc["claims"]["xi"]
        xi = cells.atoms(int(entry["time"]), entry["values"])
    else:
        xi = np.asarray(doc["xi_atoms"], dtype=float)
    return cells, probs, xi


# ---------------------------------------------------------------------------
# pricing side


def _dominance_matrix(cells: Cells, probs) -> np.ndarray:
    """Rows h -> E_p[h | F_N](c), one per extreme and terminal cell."""
    n_atoms = cells.maps[-1].shape[0]
    rows = []
    for p in probs:
        w = p / np.bincount(cells.maps[-1], weights=p)[cells.maps[-1]]
        m = np.zeros((cells.n_cells(-1), n_atoms))
        m[cells.maps[-1], np.arange(n_atoms)] = w
        rows.append(m)
    return np.vstack(rows)


def _terminal_claim(cells: Cells, claim: np.ndarray) -> np.ndarray:
    return np.bincount(cells.maps[-1], weights=claim) / np.bincount(cells.maps[-1])


def highs_price_a0(cells: Cells, probs, claim: np.ndarray) -> Optional[float]:
    """min t over h >= 0 with E_p[h] = t and E_p[h | F_N] >= claim for every p."""
    if not HAVE_HIGHS:
        return None
    n, k = claim.shape[0], len(probs)
    dom = _dominance_matrix(cells, probs)
    a_ub = _sparse.hstack([_sparse.csr_matrix(-dom), _sparse.csr_matrix((dom.shape[0], 1))])
    a_eq = np.hstack([np.vstack(probs), -np.ones((k, 1))])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    out = _linprog(c, A_ub=a_ub.tocsr(), b_ub=-np.tile(_terminal_claim(cells, claim), k),
                   A_eq=a_eq, b_eq=np.zeros(k), bounds=(0, None), method="highs")
    if out.status != 0:
        raise RuntimeError(f"HiGHS a0 oracle failed: {out.message}")
    return float(out.fun)


def slice_generators(cells: Cells, s_levels: Sequence[np.ndarray]) -> list[np.ndarray]:
    """S_m / S_0 at the atoms, m = 0..N."""
    s0 = float(s_levels[0][0])
    return [cells.atoms(m, s_levels[m]) / s0 for m in range(cells.horizon + 1)]


def highs_price_generators(cells: Cells, probs, claim: np.ndarray, gens) -> Optional[float]:
    """min sum(w) over w >= 0 with sum_j w_j E_p[g_j | F_N] >= claim for every p."""
    if not HAVE_HIGHS:
        return None
    cols = _dominance_matrix(cells, probs) @ np.column_stack(gens)
    out = _linprog(np.ones(len(gens)), A_ub=-cols,
                   b_ub=-np.tile(_terminal_claim(cells, claim), len(probs)),
                   bounds=(0, None), method="highs")
    if out.status != 0:
        raise RuntimeError(f"HiGHS generator oracle failed: {out.message}")
    return float(out.fun)


def check_optimal(price: float, oracle: Optional[float]) -> Optional[str]:
    if oracle is None:
        return None
    if abs(price - oracle) > PRICE_RTOL * max(1.0, abs(oracle)):
        return f"price {price!r}, HiGHS {oracle!r} (gap {price - oracle:.3e})"
    return None


def check_price_a0(result, cells: Cells, probs, claim: np.ndarray,
                   oracle: Optional[float]) -> Optional[str]:
    """Dominator covers the claim; the density has unit expectation and its
    scaled terminal conditional expectation covers the claim under every p."""
    price = float(result.fair_price)
    tol = TOL * _scale(claim, price)
    short = float((claim - np.asarray(result.dominator)).max(initial=0.0))
    if short > tol:
        return f"dominator falls {short:.3e} below the claim"
    if result.density is not None:
        density = np.asarray(result.density, dtype=float)
        for i, p in enumerate(probs):
            if abs(float(p @ density) - 1.0) > TOL:
                return f"density has expectation {float(p @ density)!r} under extreme {i}"
            cover = price * cells.cond(density, p, cells.horizon)
            gap = float((_terminal_claim(cells, claim) - cover).max())
            if gap > tol:
                return f"scaled density misses the claim by {gap:.3e} under extreme {i}"
    elif float(claim.max()) > tol:
        return f"zero price {price!r} for a nonzero claim"
    return check_optimal(price, oracle)


def check_price_generators(result, cells: Cells, probs, claim: np.ndarray, gens,
                           oracle: Optional[float]) -> Optional[str]:
    price = float(result.fair_price)
    tol = TOL * _scale(claim, price)
    short = float((claim - np.asarray(result.dominator)).max(initial=0.0))
    if short > tol:
        return f"dominator falls {short:.3e} below the claim"
    if result.gamma is not None:
        gamma = np.asarray(result.gamma, dtype=float)
        if gamma.min() < -TOL or abs(gamma.sum() - 1.0) > TOL:
            return f"generator weights {gamma.tolist()} are not a probability vector"
        mix = price * (np.column_stack(gens) @ gamma)
        for i, p in enumerate(probs):
            gap = float((_terminal_claim(cells, claim) - cells.cond(mix, p, cells.horizon)).max())
            if gap > tol:
                return f"weighted generators miss the claim by {gap:.3e} under extreme {i}"
    return check_optimal(price, oracle)


def check_hedge(strategy, cells: Cells, s_levels, claim: np.ndarray,
                oracle: Optional[float]) -> Optional[str]:
    """Capital starts at the price, ends above the claim, and every
    rebalancing is self-financed: X_{m-1} = cash_m + risky_m S_{m-1} and
    X_m = cash_m + risky_m S_m on the children."""
    n = cells.horizon
    x = [np.asarray(strategy.capital.at_cells(m), dtype=float) for m in range(n + 1)]
    price = float(strategy.pricing.fair_price)
    tol = TOL * _scale(*s_levels, *x)
    if abs(float(x[0][0]) - price) > tol:
        return f"initial capital {float(x[0][0])!r} differs from the price {price!r}"
    short = float((claim - cells.atoms(n, x[n])).max())
    if short > tol:
        return f"terminal capital falls {short:.3e} below the claim"
    worst = 0.0
    for m in range(1, n + 1):
        cash = np.asarray(strategy.cash[m], dtype=float)
        risky = np.asarray(strategy.risky[m], dtype=float)
        par = cells.parents[m]
        worst = max(
            worst,
            float(np.abs(x[m - 1] - (cash + risky * s_levels[m - 1])).max()),
            float(np.abs(x[m] - (cash[par] + risky[par] * s_levels[m])).max()),
        )
    if worst > tol:
        return f"self-financing residual {worst:.3e}"
    return check_optimal(price, oracle)


def check_emm(result, cells: Cells, s_levels) -> Optional[str]:
    """A strictly positive measure under which S has zero drift.  Every
    market the benchmark builds in-process has one: its extremes are."""
    if result.measure is None:
        return f"no martingale measure reported (min_slack {result.min_slack!r}) but one exists"
    q = np.asarray(result.measure.probs, dtype=float)
    if q.min() <= 0.0 or abs(q.sum() - 1.0) > 1e-12:
        return f"measure is not strictly positive and normalized (min {q.min()!r})"
    for m in range(1, cells.horizon + 1):
        drift = float(np.abs(cells.cond(cells.atoms(m, s_levels[m]), q, m - 1)
                             - s_levels[m - 1]).max())
        if drift > TOL * _scale(*s_levels):
            return f"price drifts by {drift:.3e} at time {m} under the measure"
    return None
