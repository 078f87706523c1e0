"""Simplex kernel: basics, duals, determinism, oracle agreement."""

import numpy as np
import pytest

from doobkit import LinearProgram, solve

from .oracles import enumerate_lp_value


def test_min_x_above_three():
    out = solve(LinearProgram(np.array([1.0]), a_ge=np.array([[1.0]]), b_ge=np.array([3.0])))
    assert out.status == "optimal"
    assert out.value == pytest.approx(3.0, abs=1e-12)


def test_infeasible_pair():
    out = solve(
        LinearProgram(
            np.array([0.0]), a_ge=np.array([[1.0], [-1.0]]), b_ge=np.array([1.0, 0.0])
        )
    )
    assert out.status == "infeasible"
    assert out.infeasibility > 0.5


def test_unbounded():
    out = solve(LinearProgram(np.array([-1.0]), a_ge=np.array([[1.0]]), b_ge=np.array([0.0])))
    assert out.status == "unbounded"


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
    assert solve(LinearProgram(np.array([-1.0]))).status == "unbounded"


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


def _random_lp(rng):
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
    c = rng.integers(-3, 4, size=n).astype(float)
    return LinearProgram(c, a_eq=a_eq, b_eq=b_eq, a_ge=a_ge, b_ge=b_ge)


@pytest.mark.parametrize("pivot_rule", ["bland"])
def test_agrees_with_vertex_enumeration(pivot_rule):
    matched = 0
    for seed in range(60):
        lp = _random_lp(np.random.default_rng(seed))
        out = solve(lp)
        oracle = enumerate_lp_value(lp.objective, lp.a_eq, lp.b_eq, lp.a_ge, lp.b_ge)
        if oracle is None:
            assert out.status == "infeasible", f"seed {seed}"
        else:
            assert out.status == "optimal", f"seed {seed}"
            assert out.value == pytest.approx(oracle, abs=1e-8), f"seed {seed}"
            assert out.primal_residual <= 1e-9, f"seed {seed}"
            matched += 1
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
