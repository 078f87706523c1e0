"""Independent oracles the tests check the library against.

Nothing here reuses the code paths under test: conditional expectations are
recomputed from raw sums, LP optima come from exhaustive active-set
enumeration and from :func:`dense_solve`, a dense two-phase simplex that
reads its duals off the artificial block, the free-mode price comes from
the one-parameter family of signed two-measure mixtures evaluated at its
endpoints and on a grid, the
filtration's nodes come from scans of the partition tuples, the
closed-form alpha comes from one interval per predecessor cell, the
unit-conditional dominator comes from one simplex LP per predecessor cell
and, node by node, from enumerating every basis of the node's children,
the martingale measure from one dense floor LP over every atom, and the
one kind of cell mass the library has, chained up from the atoms, from one
``np.bincount`` per extreme per level (:func:`chained_masses`;
:func:`brute_cell_masses`, one ``.sum()`` per cell, matches them to
round-off).  Node laws, nullspace draws and pricing rows divide those
chained masses entry by entry, with one SVD per node.  The hedge's
capital is checked against the stopped-slice dominator, one ``restrict``
per time and price slice, and its positions against one least-squares
representation solve per node of that capital; the library reads the
positions off the generator weights and carries capital by the
self-financing recursion, so they agree to round-off (capital within
1e-13 relative), not bit for bit.  Pasting-stable families come from
one dict of cell probabilities per combination of node laws.  The
decomposition report comes from one atom-level conditional-expectation
pass over the extremes; the library conditions on cell masses instead, so
the two agree to round-off (the same check names and verdicts, violations
within 1e-12, relative above 1), not bit for bit.  The same atom pass
gives the martingale gap under :func:`mixture` draws and the drift gap,
which the library no longer checks because its four checks bound them.
Mixtures and expectations are this module's own (:func:`mixture`,
:func:`expect`): the library conditions each level one step back from the
level above, with one atom pass at the horizon.  Both
the one step and the chain from the horizon are checked against
:func:`brute_cond_exp` of the values laid out on atoms, at every level.
The counterexample search re-audits every shrink candidate.
Measurability is held to one comparison per atom with its cell's first,
generator pricing's stacked density check to one atom-by-atom
expectation per generator and extreme, and its working-set program to
one dense solve of the dual over every (extreme, terminal cell) row, with
columns from one ``np.bincount`` pair per generator and extreme.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

import numpy as np

from doobkit.claims import AuditResult, ClaimPreconditionUnmet, _sample_instance, _smaller, audit
from doobkit.lp import LinearProgram, NumericalBreakdown
from doobkit.pricing import NotRepresentable
from doobkit.regularity import (
    A0Element,
    StepFailure,
    Xi0Step,
    _check_unit_conditional,
    one_step_ratio_cells,
)
from doobkit.space import STRICT_TOL, Measure, ShapeMismatch, cond_exp_cells


def brute_cond_exp(space, xi, probs, m):
    """Per-atom conditional expectation from raw sums (no library calls)."""
    xi = np.asarray(xi, dtype=float)
    probs = np.asarray(probs, dtype=float)
    out = np.empty(space.n_atoms)
    for cell in space.cells(m):
        idx = list(cell)
        val = sum(xi[a] * probs[a] for a in idx) / sum(probs[a] for a in idx)
        for a in idx:
            out[a] = val
    return out


def mixture(family, weights):
    """The convex combination of the family's extremes with ``weights``,
    added extreme by extreme and renormalized."""
    probs = np.zeros(family.space.n_atoms)
    for w, p in zip(weights, family):
        probs = probs + w * p.probs
    return Measure(probs / probs.sum())


def expect(p, xi):
    """The expectation of ``xi`` under the measure ``p``, as one dot product."""
    return float(np.dot(p.probs, np.asarray(xi, dtype=float)))


def brute_atom_to_cell(space, m):
    """Cell of each atom, by searching the partition tuples."""
    return [
        next(j for j, cell in enumerate(space.partitions[m]) if a in cell)
        for a in range(space.n_atoms)
    ]


def brute_children(space, m, b):
    """Time-``m`` cells inside cell ``b`` of time ``m-1``, by subset tests."""
    coarse = set(space.partitions[m - 1][b])
    return [j for j, cell in enumerate(space.partitions[m]) if set(cell) <= coarse]


def brute_parent_cell(space, m):
    """Time-``m-1`` cell holding each time-``m`` cell, by subset tests."""
    return [
        next(b for b, coarse in enumerate(space.partitions[m - 1]) if set(cell) <= set(coarse))
        for cell in space.partitions[m]
    ]


def brute_restrict(space, m, atom_values):
    """(value at each cell's smallest atom, None), or (None, first cell whose
    values are not all equal)."""
    out = []
    for j, cell in enumerate(space.partitions[m]):
        vals = [atom_values[a] for a in cell]
        if any(v != vals[0] for v in vals):  # a NaN differs from itself
            return None, j
        out.append(atom_values[min(cell)])
    return out, None


def brute_cell_masses(space, family, m):
    """``(k, n_cells)`` cell masses, one ``.sum()`` per extreme per cell."""
    return np.array([[p.probs[list(cell)].sum() for cell in space.cells(m)] for p in family])


def chained_masses(space, family):
    """``(k, n_cells(m))`` cell masses per time ``m``, chained up from the
    atoms: one ``np.bincount`` per extreme over the atoms' horizon cells,
    then one per extreme over each level's parents, with the cells of atoms
    and parents found by scanning the partition tuples."""
    n = space.horizon
    owner = brute_atom_to_cell(space, n)
    levels = [np.array([np.bincount(owner, weights=p.probs, minlength=space.n_cells(n))
                        for p in family])]
    for m in range(n, 0, -1):
        parent = brute_parent_cell(space, m)
        levels.append(np.array([np.bincount(parent, weights=row, minlength=space.n_cells(m - 1))
                                for row in levels[-1]]))
    return levels[::-1]


def per_node_domination_rows(space, family, cells):
    """Rows mapping an atom vector h to E{h | F_N}(cell), per extreme per
    cell in the list of atom tuples ``cells``, filled entry by entry: each
    atom's mass over its cell's chained mass."""
    masses = chained_masses(space, family)[space.horizon]
    terminal = space.cells(space.horizon)
    rows = np.zeros((len(family) * len(cells), space.n_atoms))
    for j, p in enumerate(family):
        for c, cell in enumerate(cells):
            idx = list(cell)
            rows[j * len(cells) + c, idx] = p.probs[idx] / masses[j, terminal.index(cell)]
    return rows


def per_node_representation(mproc, market, tol=1e-9):
    """``martingale_representation`` with one ``np.linalg.lstsq`` per
    predecessor cell, ascending, raising at the first cell whose residual
    exceeds ``tol``."""
    space = market.space
    positions = []
    for m in range(1, space.horizon + 1):
        parent = space.parent_cell(m)
        ds = market.S.at_cells(m) - market.S.at_cells(m - 1)[parent]
        dm = mproc.at_cells(m) - mproc.at_cells(m - 1)[parent]
        h = np.zeros(space.n_cells(m - 1))
        for b in range(space.n_cells(m - 1)):
            children = space.children(m, b)
            a = ds[children][:, None]
            sol, *_ = np.linalg.lstsq(a, dm[children], rcond=None)
            resid = float(np.abs(a @ sol - dm[children]).max())
            if resid > tol:
                raise NotRepresentable(m=m, cell=b, residual=resid)
            h[b] = float(sol[0])
        positions.append(h)
    return positions


def global_floor_emm(market):
    """Martingale measure with maximal smallest atom, from one dense LP.

    Maximizes the floor ``eps`` of the probability vector subject to unit
    mass and one zero-drift row per non-terminal cell, with the floor taken
    in by the shift ``q = r + eps``: ``(1 + D) x (n + 1)`` for n atoms and D
    non-terminal cells.  Returns ``(measure probabilities or None, floor)``,
    no measure when the floor cannot be pushed above 1e-10.
    """
    space = market.space
    n = space.n_atoms
    rows = [np.concatenate([np.ones(n), [float(n)]])]
    for m in range(1, space.horizon + 1):
        ds = market.S.at_atoms(m) - market.S.at_atoms(m - 1)
        for cell in space.cells(m - 1):
            row = np.zeros(n + 1)
            idx = list(cell)
            row[idx] = ds[idx]
            row[-1] = ds[idx].sum()
            rows.append(row)
    a_eq = np.vstack(rows)
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[0] = 1.0
    c = np.zeros(n + 1)
    c[-1] = -1.0
    out = dense_solve(LinearProgram(c, a_eq=a_eq, b_eq=b_eq))
    if out.status != "optimal":
        return None, 0.0
    slack = float(out.x[-1])
    if slack <= 1e-10:
        return None, max(slack, 0.0)
    q = out.x[:n] + slack
    return q / q.sum(), slack


def stopped_levels(market, price, slice_weight):
    """The hedge's capital per time: ``price * sum_i w_i * S_{min(i, m)} /
    S_0``, each stopped slice restricted to the time-``m`` cells on its own
    and accumulated per cell; level 0 is the price itself."""
    space = market.space
    levels = [np.array([price])]
    for m in range(1, space.horizon + 1):
        acc = np.zeros(space.n_cells(m))
        for i in range(space.horizon + 1):
            stopped = space.restrict(m, market.S.at_atoms(min(i, m)))
            acc += slice_weight[i] * stopped
        levels.append(price * acc / market.s0)
    return levels


def per_combination_product_family(rng, space, max_extremes=8):
    """``product_family`` with one dict of cell probabilities per combination
    of node laws, filled parent by parent, and one pass over the terminal
    cells' tuples; returns the ``(extremes, n)`` probabilities."""
    nodes = []
    total = 1
    for m in range(1, space.horizon + 1):
        for b in range(space.n_cells(m - 1)):
            children = np.array(brute_children(space, m, b))
            if children.shape[0] == 1:
                nodes.append((m, b, children, [np.ones(1)]))
                continue
            n_choices = 2 if total * 2 <= max_extremes and rng.random() < 0.8 else 1
            laws = []
            for _ in range(n_choices):
                v = rng.dirichlet(np.full(children.shape[0], 2.0))
                v = 0.9 * v + 0.1 / children.shape[0]
                laws.append(v / v.sum())
            total *= n_choices
            nodes.append((m, b, children, laws))
    terminal_laws = []
    for cell in space.cells(space.horizon):
        v = rng.dirichlet(np.full(len(cell), 2.0))
        v = 0.9 * v + 0.1 / len(cell)
        terminal_laws.append(v / v.sum())
    extremes = []
    for picks in product(*[range(len(laws)) for *_, laws in nodes]):
        cell_prob = {0: np.ones(1)}
        for (m, b, children, laws), pick in zip(nodes, picks):
            probs = cell_prob.setdefault(m, np.zeros(space.n_cells(m)))
            probs[children] = cell_prob[m - 1][b] * laws[pick]
        atom_probs = np.zeros(space.n_atoms)
        for c, cell in enumerate(space.cells(space.horizon)):
            atom_probs[list(cell)] = cell_prob[space.horizon][c] * terminal_laws[c]
        atom_probs = atom_probs / atom_probs.sum()
        if not any(np.array_equal(atom_probs, q) for q in extremes):
            extremes.append(atom_probs)
    return np.vstack(extremes)


def per_node_random_martingale(rng, space, family, start=1.0, spread=0.5):
    """``random_martingale`` with one SVD and one draw per node, ascending:
    per node the children's conditional-law rows, their chained masses over
    the node's, and a normal draw over their nullspace."""
    levels = [np.array([float(start)])]
    chained = chained_masses(space, family)
    for m in range(1, space.horizon + 1):
        prev = levels[-1]
        vals = np.empty(space.n_cells(m))
        for b in range(space.n_cells(m - 1)):
            children = np.array(brute_children(space, m, b))
            rmat = chained[m][:, children] / chained[m - 1][:, b, None]
            x = np.full(children.shape[0], prev[b])
            _, s, vt = np.linalg.svd(rmat, full_matrices=True)
            rank = int(np.sum(s > 1e-12))
            null = vt[rank:]
            if null.shape[0]:
                coeffs = rng.normal(scale=spread, size=null.shape[0])
                x = x + null.T @ coeffs
            vals[children] = x
        levels.append(vals)
    return levels


def per_cell_alpha(space, m, ratio, sup_cells, increments, tol=1e-12):
    """Closed-form alpha, or None when no alpha works, by intersecting one
    feasible interval per predecessor cell.

    Per predecessor cell b the ratio is normalised by ``sup_cells[b]`` (0
    where that is not positive); positive increments bound alpha below,
    negative ones above, and a zero-increment cell must sit at or below one.
    The choice is the cap, else 0 when the floor allows it, else the floor.
    """
    lower, upper = -np.inf, np.inf
    feasible = True
    for b in range(len(space.partitions[m - 1])):
        lo_b, up_b, ok_b = -np.inf, np.inf, True
        for j in brute_children(space, m, b):
            v = ratio[j] / sup_cells[b] if sup_cells[b] > 0.0 else 0.0
            d = increments[j]
            if d > 0.0:
                lo_b = max(lo_b, (v - 1.0) / d)
            elif d < 0.0:
                up_b = min(up_b, (1.0 - v) / (-d))
            elif v > 1.0 + tol:
                ok_b = False
        lower, upper = max(lower, lo_b), min(upper, up_b)
        if not ok_b or lo_b > up_b + tol:
            feasible = False
    if not feasible or lower > upper + tol:
        return None
    if np.isfinite(upper):
        alpha = upper
    elif lower <= 0.0:
        alpha = 0.0
    else:
        alpha = lower
    return float(min(max(alpha, lower), upper))


def per_node_xi0_lp(f, family, m, tol=1e-9):
    """``xi0_step_lp`` as one simplex LP per predecessor cell whose children's
    ratio exceeds one, in ascending cell order: min sum(x) subject to
    ``C x = 1`` and ``x >= r``, with the first cell without an optimum
    reported."""
    space = family.space
    ratio = one_step_ratio_cells(f, m)
    masses = brute_cell_masses(space, family, m)
    values = np.empty_like(ratio)
    for b in range(space.n_cells(m - 1)):
        children = space.children(m, b)
        r = ratio[children]
        if r.max() <= 1.0 + 1e-13:
            values[children] = 1.0
            continue
        # contiguous rows keep the summation order of the per-extreme rows
        cond = np.ascontiguousarray(masses[:, children])
        cond = cond / cond.sum(axis=1, keepdims=True)
        out = dense_solve(
            LinearProgram(
                objective=np.ones(children.shape[0]),
                a_eq=cond,
                b_eq=np.ones(len(family)),
                a_ge=np.eye(children.shape[0]),
                b_ge=r,
            )
        )
        if out.status != "optimal":
            return StepFailure(
                m=m,
                reason=f"no unit-conditional dominator over cell {b} at time {m - 1}",
                cell=b,
                certificate=out.infeasibility if out.status == "infeasible" else None,
            )
        values[children] = out.x
    ok, bad_i, dev = _check_unit_conditional(space, family, values, m, tol)
    if not ok:  # the LP enforces these rows only up to its own tolerance
        return StepFailure(m=m, reason=f"LP residual {dev} under extreme {bad_i}", certificate=dev)
    return Xi0Step(m=m, xi0=space.expand(m, values), method="lp-path", alpha=None)


def least_sum_bases(law, rhs):
    """Per node, the least-sum basic solution ``g >= 0`` of ``law @ g = rhs``
    by enumerating every basis of ``k`` of the ``c`` columns, for
    ``(nodes, k, c)`` laws and ``(nodes, k)`` right-hand sides.

    A basis counts at a node when it is invertible, ``g_B >= 0`` and its
    residual is at most 1e-12.  A node whose rows of ``law`` are dependent
    up to round-off (a Gram determinant at most 1e-12 of its diagonal's
    product), or that has fewer columns than rows, counts no basis: its
    least sum is then not decided here.  Returns ``(g, found)``: ``g`` is
    ``(nodes, c)``, zero off the kept basis, and ``found`` masks the nodes
    where some basis counted.
    """
    nodes, k, c = law.shape
    out = np.zeros((nodes, c))
    found = np.zeros(nodes, dtype=bool)
    if c < k:
        return out, found
    gram = law @ law.transpose(0, 2, 1)
    scale = np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    independent = np.linalg.det(gram) > 1e-12 * scale
    best = np.full(nodes, np.inf)
    for basis in combinations(range(c), k):
        a = law[:, :, basis]
        ok = independent & (np.abs(np.linalg.det(a)) > 0.0)
        g = np.full((nodes, k), np.nan)
        if ok.any():
            g[ok] = np.linalg.solve(a[ok], rhs[ok][:, :, None])[:, :, 0]
        resid = np.abs((a @ np.nan_to_num(g)[:, :, None])[:, :, 0] - rhs).max(axis=1)
        total = np.where(ok & (g >= 0.0).all(axis=1) & (resid <= 1e-12), g.sum(axis=1), np.inf)
        better = total < best
        best[better] = total[better]
        out[better] = 0.0
        out[np.ix_(np.flatnonzero(better), basis)] = g[better]
        found |= better
    return out, found


def per_atom_verify(f, decomposition, family, tol=1e-9):
    """``(name, max_violation, passed)`` of each of ``verify_decomposition``'s
    four checks, with every conditional expectation taken by one atom-level
    pass (:func:`martingale_gap`)."""
    space = family.space
    mart, comp = decomposition.martingale, decomposition.compensator
    checks = []

    def add(name, violation):
        checks.append((name, float(violation), violation <= tol))

    try:
        recon = max(
            float(np.abs(f.at_atoms(m) - (mart.at_atoms(m) - comp.at_atoms(m))).max())
            for m in range(space.horizon + 1)
        )
    except ShapeMismatch as exc:
        return [(f"shapes ({exc})", np.inf, False)]
    add("reconstruction", recon)
    add("compensator-starts-at-zero", float(np.abs(comp.at_cells(0)).max()))
    growth = 0.0
    for m in range(1, space.horizon + 1):
        delta = comp.at_atoms(m) - comp.at_atoms(m - 1)
        growth = max(growth, float((-delta).max()))
    add("compensator-monotone", growth)
    add("martingale-extremes", martingale_gap(mart, family.probs))
    return checks


def martingale_gap(mart, probs):
    """The largest ``|E_q[M_m | F_{m-1}] - M_{m-1}|`` over steps, cells and
    the rows ``q`` of ``probs``, conditioned atom by atom."""
    space = mart.space
    worst = 0.0
    for m in range(1, space.horizon + 1):
        e = cond_exp_cells(space, mart.at_atoms(m), probs, m - 1)
        worst = max(worst, float(np.abs(e - mart.at_cells(m - 1)).max(initial=0.0)))
    return worst


def drift_gap(f, decomposition, family):
    """The largest ``|E_i[f_{m-1} - f_m | F_{m-1}] - E_i[g_m - g_{m-1} | F_{m-1}]|``
    over steps, cells and extremes, conditioned atom by atom."""
    space = family.space
    comp = decomposition.compensator
    worst = 0.0
    for m in range(1, space.horizon + 1):
        df = f.at_atoms(m - 1) - f.at_atoms(m)
        dg = comp.at_atoms(m) - comp.at_atoms(m - 1)
        lhs = cond_exp_cells(space, df, family.probs, m - 1)
        rhs = cond_exp_cells(space, dg, family.probs, m - 1)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def audit_based_search(claim, budget, seed, max_atoms=8, max_periods=3, max_extremes=3, tol=1e-9):
    """``search_counterexample`` with every candidate, hit and shrunk
    instance run through ``audit``, witness dictionary and all."""
    rng = np.random.default_rng(seed)
    tried = 0
    for _ in range(budget):
        instance = _sample_instance(claim, rng, max_atoms, max_periods, max_extremes)
        if instance is None:
            continue
        tried += 1
        try:
            result = audit(claim, instance, tol=tol)
        except ClaimPreconditionUnmet:
            continue
        if result.verdict == "counterexample":
            current, improved = instance, True
            while improved:
                improved = False
                for candidate in _smaller(current):
                    if candidate is None:
                        continue
                    try:
                        if audit(claim, candidate, tol=tol).verdict == "counterexample":
                            current, improved = candidate, True
                            break
                    except ClaimPreconditionUnmet:
                        continue
            final = audit(claim, current, tol=tol)
            return AuditResult(
                claim=claim,
                verdict="counterexample",
                violation=final.violation,
                detail=final.detail,
                witness=current.as_dict(),
                budget_used=tried,
            )
    return AuditResult(
        claim=claim,
        verdict="pass",
        violation=0.0,
        detail=f"no violation over {tried} sampled instances",
        budget_used=tried,
    )


def per_generator_check(family, generators):
    """The message of ``GeneratorNotInA0`` when some generator is not a
    density (of the wrong length, not finite, below ``-STRICT_TOL`` or of
    expectation off one by more than ``STRICT_TOL`` under some extreme),
    checking one generator at a time with one atom-by-atom sum per extreme;
    None when every generator is one."""
    n = family.space.n_atoms
    for g in generators:
        xi = g.xi if isinstance(g, A0Element) else np.asarray(g, dtype=float)
        ok = xi.shape == (n,) and all(np.isfinite(v) and v >= -STRICT_TOL for v in xi)
        if not ok or any(
            abs(sum(q * v for q, v in zip(p.probs, xi)) - 1.0) > STRICT_TOL for p in family
        ):
            return "expectation is not one under every extreme"
    return None


def generator_rows(claim, generators, family):
    """``(cols, bound)`` of the generator price's primal ``cols @ w >=
    bound``: row ``j * M + c`` is extreme j on terminal cell c, column g the
    conditional expectation of generator g there, one ``np.bincount`` pair
    per generator and extreme."""
    space = family.space
    cell = space.atom_to_cell(space.horizon)
    xis = [g.xi if isinstance(g, A0Element) else np.asarray(g, dtype=float) for g in generators]
    cols = np.column_stack([
        np.concatenate([np.bincount(cell, weights=p * xi) / np.bincount(cell, weights=p)
                        for p in family.probs])
        for xi in xis
    ])
    return cols, np.tile(space.restrict(space.horizon, claim), len(family))


def dense_generator_price(claim, generators, family):
    """The generator price by one dense solve of its dual over all ``k * M``
    rows: maximize ``bound . y`` over ``y >= 0`` with ``cols^T y <= 1``."""
    cols, bound = generator_rows(claim, generators, family)
    dual = dense_solve(LinearProgram(-bound, a_ge=-cols.T, b_ge=-np.ones(cols.shape[1])))
    assert dual.status == "optimal"
    return -dual.value


def dual_mixture_price(p1, p2, payoff, grid: int = 2001) -> float:
    """Free-mode fair price on an atom-fine one-period space with two
    extremes: maximize the payoff expectation over all signed mixtures
    ``(1 - z) p1 + z p2`` that stay nonnegative.

    The expectation is linear in z, so the exact value sits at an endpoint
    of the feasible interval; the grid double-checks the interval.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    payoff = np.asarray(payoff, dtype=float)
    z_lo, z_hi = -np.inf, np.inf
    for a, b in zip(p1, p2):
        d = b - a
        if d > 0:
            z_lo = max(z_lo, -a / d)
        elif d < 0:
            z_hi = min(z_hi, -a / d)
    assert np.isfinite(z_lo) and np.isfinite(z_hi) and z_lo <= z_hi

    def value(z: float) -> float:
        return float(((1.0 - z) * p1 + z * p2) @ payoff)

    exact = max(value(z_lo), value(z_hi))
    coarse = max(value(z) for z in np.linspace(z_lo, z_hi, grid))
    assert coarse <= exact + 1e-9
    return exact


def enumerate_lp_value(objective, a_eq, b_eq, a_ge, b_ge, tol: float = 1e-9):
    """Optimal value of  min c.x  s.t.  a_eq x = b_eq, a_ge x >= b_ge, x >= 0
    by enumerating active sets; None when no feasible vertex exists.

    Every choice of n rows is solved in one stacked ``np.linalg.solve``,
    after a stacked rank test drops the singular ones.  Only sound on
    bounded feasible regions (callers add box rows).
    """
    c = np.asarray(objective, dtype=float)
    n = c.shape[0]

    def rows(a, b):
        if a is None:
            return np.zeros((0, n)), np.zeros(0)
        return np.atleast_2d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))

    eq_a, eq_b = rows(a_eq, b_eq)
    ge_a, ge_b = rows(a_ge, b_ge)
    # the bounds x >= 0 are optional rows like the >= constraints
    opt_a = np.vstack([ge_a, np.eye(n)])
    opt_b = np.concatenate([ge_b, np.zeros(n)])
    pool_a = np.vstack([eq_a, opt_a])
    pool_b = np.concatenate([eq_b, opt_b])
    active = np.array(list(combinations(range(pool_a.shape[0]), n)), dtype=np.intp)
    if active.size == 0:
        return None
    a, rhs = pool_a[active], pool_b[active]
    full = np.linalg.matrix_rank(a, tol=1e-10) == n
    a, rhs = a[full], rhs[full]
    x = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    ok = np.abs(np.einsum("sij,sj->si", a, x) - rhs).max(axis=1, initial=0.0) <= 1e-8
    ok &= np.all(np.abs(x @ eq_a.T - eq_b) <= tol, axis=1)
    ok &= np.all(x @ opt_a.T >= opt_b - tol, axis=1)
    if not ok.any():
        return None
    return float((x[ok] @ c).min())


# ---------------------------------------------------------------------------
# the dense two-phase simplex

PIVOT_TOL = 1e-12
FEAS_TOL = 1e-9
_MAX_ITERS = 50_000


@dataclass(frozen=True)
class DenseOutcome:
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


def dense_solve(lp: LinearProgram) -> DenseOutcome:
    """Two-phase simplex solve of ``lp``, any objective sign.

    The tableau keeps the artificial columns through both phases, so the
    duals are read off the final tableau: the artificial block holds the
    running basis inverse.  Raises :class:`~doobkit.lp.NumericalBreakdown`
    when no numerically safe pivot exists.
    """
    a_std, b_std, c_std, n_ge, n_eq = _standardize(lp)
    n = lp.n_vars

    if a_std.shape[0] == 0:
        # no constraints: x = 0 is optimal unless the objective points downhill
        if np.any(lp.objective < 0):
            return DenseOutcome(status="unbounded", x=None, value=None)
        return DenseOutcome(status="optimal", x=np.zeros(n), value=0.0)

    t = _Tableau(a_std, b_std)
    width = a_std.shape[1]
    total = width + t.n_rows

    phase1_cost = np.zeros(total)
    phase1_cost[width:] = 1.0
    eligible1 = np.ones(total, dtype=bool)
    status = t.run(phase1_cost, eligible1)
    infeas = float(phase1_cost[t.basis] @ t.tab[:, -1])
    if status != "optimal" or infeas > FEAS_TOL:
        return DenseOutcome(status="infeasible", x=None, value=None, infeasibility=max(infeas, 0.0))

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
        return DenseOutcome(status="unbounded", x=None, value=None)

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

    return DenseOutcome(
        status="optimal",
        x=x,
        value=value,
        y_eq=y_eq,
        y_ge=y_ge,
        primal_residual=primal_residual,
        duality_gap=float(value - dual_obj),
        comp_slackness=comp,
    )
