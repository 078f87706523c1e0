"""Simplex kernel: basics, duals, the residual gate, determinism, and
agreement with the dense oracle, vertex enumeration and HiGHS."""

import numpy as np
import pytest

from doobkit import NumericalBreakdown
from doobkit import lp as lp_module
from doobkit.lp import LinearProgram, solve, solve_batch

from .oracles import dense_solve, enumerate_lp_value


def _assert_certifying_ray(lp, out, where=None):
    """``out.ray`` proves ``lp`` infeasible: ``A.T @ d <= 0`` to 1e-9 of
    ``max|d|``, ``d >= 0`` on the ``>=`` rows and ``b . d > 0``."""
    n_eq = 0 if lp.a_eq is None else lp.a_eq.shape[0]
    law = np.vstack([a for a in (lp.a_eq, lp.a_ge) if a is not None])
    rhs = np.concatenate([b for b in (lp.b_eq, lp.b_ge) if b is not None])
    d = out.ray
    assert d is not None and d.shape == rhs.shape, where
    assert np.all(law.T @ d <= 1e-9 * np.abs(d).max()), where
    assert np.all(d[n_eq:] >= 0.0), where
    assert rhs @ d > 0.0, where


def test_min_x_above_three():
    out = solve(LinearProgram(np.array([1.0]), a_ge=np.array([[1.0]]), b_ge=np.array([3.0])))
    assert out.status == "optimal"
    assert out.value == pytest.approx(3.0, abs=1e-12)


def test_infeasible_pair():
    lp = LinearProgram(np.array([0.0]), a_ge=np.array([[1.0], [-1.0]]), b_ge=np.array([1.0, 0.0]))
    out = solve(lp)
    assert out.status == "infeasible"
    assert out.x is None and out.value is None
    _assert_certifying_ray(lp, out)
    assert dense_solve(lp).infeasibility > 0.5


def test_unbounded():
    # a nonnegative objective bounds the program below, so the kernel takes
    # no other; the dense oracle still reports the ray
    lp = LinearProgram(np.array([-1.0]), a_ge=np.array([[1.0]]), b_ge=np.array([0.0]))
    with pytest.raises(ValueError, match="nonnegative objectives"):
        solve(lp)
    assert dense_solve(lp).status == "unbounded"


def test_equalities_only():
    lp = LinearProgram(
        np.array([1.0, 2.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([4.0]),
    )
    out = solve(lp)
    assert out.status == "optimal"
    assert out.value == pytest.approx(4.0, abs=1e-12)
    np.testing.assert_allclose(out.x, [4.0, 0.0], atol=1e-12)


def test_no_constraints():
    assert solve(LinearProgram(np.array([1.0, 0.0]))).value == 0.0
    with pytest.raises(ValueError):
        solve(LinearProgram(np.array([-1.0])))
    assert dense_solve(LinearProgram(np.array([-1.0]))).status == "unbounded"


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        LinearProgram(np.array([1.0]), a_eq=np.array([[1.0, 2.0]]), b_eq=np.array([1.0]))
    with pytest.raises(ValueError):
        LinearProgram(np.array([1.0]), a_eq=np.array([[1.0]]))
    with pytest.raises(ValueError):
        LinearProgram(np.array([np.nan]))


def test_duality_checks_populated():
    lp = LinearProgram(
        np.array([3.0, 1.0]),
        a_ge=np.array([[1.0, 1.0], [2.0, 0.5]]),
        b_ge=np.array([4.0, 3.0]),
    )
    out = solve(lp)
    assert out.status == "optimal"
    assert out.primal_residual <= 1e-9
    assert abs(out.duality_gap) <= 1e-7
    assert out.comp_slackness <= 1e-7
    assert np.all(out.y_ge >= -1e-9)


def _random_lp(rng, signed=False):
    """Up to 6 variables, at most one equality and up to 6 ``>=`` rows,
    boxed by ``x <= 10``; costs in ``0..3``, or ``-3..3`` when ``signed``."""
    n = int(rng.integers(1, 7))
    n_eq = int(rng.integers(0, 2))
    n_ge = int(rng.integers(0, 7 - n_eq))
    a_eq = rng.integers(-3, 4, size=(n_eq, n)).astype(float) if n_eq else None
    b_eq = rng.integers(-3, 4, size=n_eq).astype(float) if n_eq else None
    rows = rng.integers(-3, 4, size=(n_ge, n)).astype(float)
    rhs = rng.integers(-4, 4, size=n_ge).astype(float)
    # box keeps the region bounded so vertex enumeration is exhaustive
    box = -np.eye(n)
    box_rhs = np.full(n, -10.0)
    a_ge = np.vstack([rows, box]) if n_ge else box
    b_ge = np.concatenate([rhs, box_rhs]) if n_ge else box_rhs
    c = rng.integers(-3 if signed else 0, 4, size=n).astype(float)
    return LinearProgram(c, a_eq=a_eq, b_eq=b_eq, a_ge=a_ge, b_ge=b_ge)


@pytest.mark.parametrize("pivot_rule", ["bland"])
def test_agrees_with_vertex_enumeration(pivot_rule):
    # the kernel on nonnegative costs, the dense oracle on signed ones
    matched = 0
    for seed in range(60):
        for signed, run in ((False, solve), (True, dense_solve)):
            lp = _random_lp(np.random.default_rng(seed), signed)
            out = run(lp)
            oracle = enumerate_lp_value(lp.objective, lp.a_eq, lp.b_eq, lp.a_ge, lp.b_ge)
            if oracle is None:
                assert out.status == "infeasible", f"seed {seed}"
            else:
                assert out.status == "optimal", f"seed {seed}"
                assert out.value == pytest.approx(oracle, abs=1e-8), f"seed {seed}"
                assert out.primal_residual <= 1e-9, f"seed {seed}"
                matched += not signed
    assert matched > 10  # the generator must exercise the optimal path


def test_row_permutation_invariance():
    rng = np.random.default_rng(42)
    for seed in range(20):
        lp = _random_lp(np.random.default_rng(seed))
        base = solve(lp)
        if base.status != "optimal":
            continue
        perm = rng.permutation(lp.a_ge.shape[0])
        shuffled = LinearProgram(
            lp.objective, a_eq=lp.a_eq, b_eq=lp.b_eq, a_ge=lp.a_ge[perm], b_ge=lp.b_ge[perm]
        )
        out = solve(shuffled)
        assert out.status == "optimal"
        assert out.value == pytest.approx(base.value, abs=1e-10)


def test_deterministic_for_fixed_input():
    lp = _random_lp(np.random.default_rng(7))
    a = solve(lp)
    b = solve(lp)
    assert a.status == b.status
    if a.status == "optimal":
        np.testing.assert_array_equal(a.x, b.x)


def _sweep_lp(rng):
    """2 to 60 variables, 1 to 6 rows mixing equalities and ``>=`` rows,
    costs ``>= 0``.  Half are feasible by construction, the right-hand side
    read off a point ``x0 >= 0``; three in ten infeasible by construction,
    the last row making ``A.T @ d < 0`` and ``b . d = 1`` for a ``d``
    nonnegative on the ``>=`` rows; the rest draw the right-hand side."""
    n = int(rng.integers(2, 61))
    rows = int(rng.integers(1, 7))
    n_eq = int(rng.integers(0, rows + 1))
    a = rng.normal(size=(rows, n)) * (rng.random((rows, n)) < 0.7)
    kind = rng.random()
    if kind < 0.5:
        x0 = rng.exponential(size=n) * (rng.random(n) < 0.5)
        b = a @ x0 - np.r_[np.zeros(n_eq), rng.exponential(size=rows - n_eq)]
    elif kind < 0.8:
        d = np.r_[rng.normal(size=n_eq), rng.exponential(size=rows - n_eq)]
        d[-1] = 0.5 + rng.exponential()
        a[-1] = -(rng.exponential(size=n) + a[:-1].T @ d[:-1]) / d[-1]
        b = rng.normal(size=rows)
        b += d * (1.0 - b @ d) / (d @ d)
    else:
        b = rng.normal(size=rows) * 3.0
    cost = rng.exponential(size=n) * (rng.random(n) < 0.8)
    eq, ge = slice(0, n_eq), slice(n_eq, rows)
    return LinearProgram(
        cost,
        a_eq=a[eq] if n_eq else None, b_eq=b[eq] if n_eq else None,
        a_ge=a[ge] if rows > n_eq else None, b_ge=b[ge] if rows > n_eq else None,
    )


def _sweep():
    rng = np.random.default_rng(2027)
    return [_sweep_lp(rng) for _ in range(300)]


class TestSizeSweep:
    """The kernel across sizes against three oracles; an infeasible program
    carries a ray that proves it."""

    def test_against_dense_oracle_and_enumeration(self):
        kinds = {"optimal": 0, "infeasible": 0, "enumerated": 0}
        for i, lp in enumerate(_sweep()):
            out, dense = solve(lp), dense_solve(lp)
            assert out.status == dense.status, i
            kinds[out.status] += 1
            if out.status == "infeasible":
                _assert_certifying_ray(lp, out, i)
                continue
            assert out.value == pytest.approx(dense.value, rel=1e-9, abs=1e-9), i
            if lp.n_vars <= 8:
                want = enumerate_lp_value(lp.objective, lp.a_eq, lp.b_eq, lp.a_ge, lp.b_ge)
                assert out.value == pytest.approx(want, rel=1e-9, abs=1e-9), i
                kinds["enumerated"] += 1
        assert min(kinds.values()) >= 20, kinds

    def test_against_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for i, lp in enumerate(_sweep()):
            highs = linprog(
                lp.objective, A_ub=None if lp.a_ge is None else -lp.a_ge,
                b_ub=None if lp.b_ge is None else -lp.b_ge, A_eq=lp.a_eq, b_eq=lp.b_eq,
                method="highs",
            )
            out = solve(lp)
            assert highs.status in (0, 2), i
            assert out.status == ("optimal" if highs.status == 0 else "infeasible"), i
            if highs.status == 0:
                assert out.value == pytest.approx(highs.fun, rel=1e-9, abs=1e-9), i


class TestBatchKernel:
    def test_stack_equals_one_node_at_a_time(self):
        # nodes leave the stack at different pivots; each keeps its own answer
        rng = np.random.default_rng(5)
        law = rng.normal(size=(40, 3, 7))
        rhs = rng.normal(size=(40, 3))
        cost = rng.exponential(size=(40, 7))
        x, y, ray = solve_batch(law, rhs, cost, 1)
        for j in range(40):
            xj, yj, rj = solve_batch(law[j : j + 1], rhs[j : j + 1], cost[j : j + 1], 1)
            np.testing.assert_array_equal(x[j], xj[0])
            np.testing.assert_array_equal(y[j], yj[0])
            np.testing.assert_array_equal(ray[j], rj[0])
        found = ~np.isnan(x[:, 0])
        assert found.any() and (~found).any()
        assert not ray[found].any() and np.isnan(y[~found]).all()


def _spoilt_kernel(spoil):
    """The kernel with its primal and dual points passed through ``spoil``."""
    def kernel(law, rhs, cost, n_free):
        x, y, ray = solve_batch(law, rhs, cost, n_free)
        return (*spoil(x, y), ray)
    return kernel


class TestResidualGate:
    """``solve`` refuses an answer whose residual exceeds 1e-9 of the data's
    scale, naming the check.  On ``min x1 + 2 x2`` with ``x1 + x2 >= 1`` the
    kernel answers ``x = (1, 0)``, ``y = 1``; on ``min x1 + x2`` with
    ``x1 >= 1`` and ``x2 >= 0`` it answers ``x = (1, 0)``, ``y = (1, 0)``."""

    LP = LinearProgram(np.array([1.0, 2.0]), a_ge=np.array([[1.0, 1.0]]), b_ge=np.array([1.0]))
    TWO_ROWS = LinearProgram(np.ones(2), a_ge=np.eye(2), b_ge=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("check, spoil", [
        ("primal residual", lambda x, y: (x / 2, y)),
        ("gap", lambda x, y: (x, y / 2)),
        # both doubled: feasible, no gap, but x1 * (1 - 2) and y * 1 are off zero
        ("complementary slackness", lambda x, y: (2 * x, 2 * y)),
        # y = (1, 2): feasible x, no gap, slackness holds, but y2 exceeds x2's cost 1
        ("dual feasibility", lambda x, y: (x, y + [0.0, 2.0])),
    ])
    def test_spoilt_answer_is_refused_by_name(self, monkeypatch, check, spoil):
        if check == "dual feasibility":
            lp, y = self.TWO_ROWS, [1.0, 0.0]
        else:
            lp, y = self.LP, [1.0]
        out = solve(lp)
        np.testing.assert_array_equal(out.x, [1.0, 0.0])
        np.testing.assert_array_equal(out.y_ge, y)
        monkeypatch.setattr(lp_module, "solve_batch", _spoilt_kernel(spoil))
        with pytest.raises(NumericalBreakdown, match=f"LP failed its {check} check"):
            solve(lp)
