"""Classification, density certificates, and the decomposition round trip."""

from collections import Counter

import numpy as np
import pytest

from doobkit import (
    AdaptedProcess,
    Measure,
    MeasureFamily,
    NotLocallyRegular,
    NotSupermartingale,
    OptionalDecomposition,
    StepFailure,
    Xi0Step,
    a0_membership,
    build_space,
    classify,
    cond_exp_cells,
    find_a0_element,
    optional_decompose,
    verify_decomposition,
    xi0_step_alpha,
    xi0_step_lp,
)
from doobkit import lp as lp_module
from doobkit import regularity
from doobkit.lp import LinearProgram, NumericalBreakdown, solve_batch
from doobkit.claims import envelope_process
from doobkit.regularity import (
    CheckResult,
    _check_unit_conditional,
    one_step_ratio_cells,
)
from doobkit.generators import (
    product_family,
    random_family,
    random_space,
    random_supermartingale,
)

from .oracles import (
    brute_cell_masses,
    dense_solve,
    drift_gap,
    expect,
    least_sum_bases,
    martingale_gap,
    mixture,
    per_atom_verify,
    per_cell_alpha,
    per_node_xi0_lp,
)
from .trees import tree_draw


def _proc(space, *levels):
    return AdaptedProcess(space=space, per_time=tuple(np.asarray(l, dtype=float) for l in levels))


def _same_as_per_node_lp(f, family, m, where) -> str:
    """``xi0_step_lp`` against the per-node LP oracle: ``xi0`` to 1e-12 where
    both certify; where the oracle fails, the failure's cell and reason, and
    a positive certificate where the oracle's is positive.  Returns which of
    the two happened."""
    step, want = xi0_step_lp(f, family, m), per_node_xi0_lp(f, family, m)
    if isinstance(want, StepFailure):
        assert isinstance(step, StepFailure), where
        assert (step.m, step.cell, step.reason) == (want.m, want.cell, want.reason), where
        assert (step.certificate is None) == (want.certificate is None), where
        if want.certificate is not None and want.certificate > 0:
            assert step.certificate > 0, where
        return "failed"
    assert isinstance(step, Xi0Step), (where, step.reason)
    np.testing.assert_allclose(step.xi0, want.xi0, rtol=0, atol=1e-12, err_msg=str(where))
    return "certified"


def _worked_nodes(f, family, m):
    """``(law, rhs)`` of each cell of time ``m - 1`` whose children's one-step
    ratio exceeds one, from raw cell sums: the children's conditional laws
    ``C`` under the extremes and ``1 - C r``."""
    space = family.space
    ratio = one_step_ratio_cells(f, m)
    masses = brute_cell_masses(space, family, m)
    out = []
    for b in range(space.n_cells(m - 1)):
        children = space.children(m, b)
        if ratio[children].max() > 1.0 + 1e-13:
            law = masses[:, children] / masses[:, children].sum(axis=1, keepdims=True)
            out.append((law, 1.0 - law @ ratio[children]))
    return out


def _kernel_against_oracles(f, family, m, seen, where) -> None:
    """The batched kernel on the worked nodes of step ``m``, one call per
    child count, against one dense LP per node and the basis enumeration:
    the same feasibility, the least sum to 1e-12, and on every infeasible
    node a Farkas ray (``C.T d <= 0`` up to 1e-12 of ``max|d|``,
    ``rhs . d > 0``).  Counts the kinds of node met in ``seen``."""
    k = len(family)
    groups = {}
    for law, rhs in _worked_nodes(f, family, m):
        groups.setdefault(law.shape[1], []).append((law, rhs))
    for c, nodes in groups.items():
        law = np.stack([node[0] for node in nodes])
        rhs = np.stack([node[1] for node in nodes])
        g, _, ray = solve_batch(law, rhs, np.ones((len(nodes), c)), k)
        bases, found = least_sum_bases(law, rhs)
        for j in range(len(nodes)):
            seen["fewer children than extremes"] += c < k
            seen["rank-deficient"] += int(np.linalg.matrix_rank(law[j], tol=1e-9) < min(c, k))
            dense = dense_solve(LinearProgram(np.ones(c), a_eq=law[j], b_eq=rhs[j]))
            if dense.status == "infeasible":
                seen["infeasible"] += 1
                assert np.isnan(g[j]).all() and not found[j], where
                d = ray[j]
                assert np.all(law[j].T @ d <= 1e-12 * np.abs(d).max()), where
                assert rhs[j] @ d > 0.0, where
                continue
            assert dense.status == "optimal" and not ray[j].any(), where
            assert g[j].sum() == pytest.approx(dense.value, rel=1e-12, abs=1e-12), where
            np.testing.assert_allclose(law[j] @ g[j], rhs[j], rtol=0, atol=1e-12, err_msg=str(where))
            assert g[j].min() >= -1e-12, where
            if found[j]:
                assert g[j].sum() == pytest.approx(bases[j].sum(), rel=1e-12, abs=1e-12), where


def _dyadic_family(space):
    """Three extremes on FIXTURE-B's space with time-1 cell masses .25, .5, .5."""
    rows = ([0.125, 0.125, 0.375, 0.375], [0.25] * 4, [0.375, 0.125, 0.125, 0.375])
    return MeasureFamily(space=space, extremes=tuple(Measure(np.array(r)) for r in rows))


class TestClassify:
    def test_constant_is_martingale(self, space_b, family_b):
        f = _proc(space_b, [3.0], [3.0, 3.0], [3.0, 3.0, 3.0, 3.0])
        assert classify(f, family_b).kind == "martingale"

    def test_envelope_counterexample(self, space_b, family_b, xi_b):
        f = envelope_process(family_b, xi_b)
        verdict = classify(f, family_b)
        assert verdict.kind == "not-supermartingale"
        t, cell, extreme, mag = verdict.worst_violation
        # E under the uniform extreme of (1.12, 1) is 1.06 > f_0 = 1
        assert (t, cell, extreme) == (1, 0, 0)
        assert mag == pytest.approx(0.06, abs=1e-12)

    def test_deterministic_decreasing_is_strict(self, space_b, family_b):
        f = _proc(space_b, [2.0], [1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        assert classify(f, family_b).kind == "supermartingale-strict"

    def test_tie_reports_lower_extreme(self, space_b):
        # dyadic data, so E{f_1} is exactly 1.125, 1.25 and 1.25 under the
        # three extremes: extremes 1 and 2 tie for the worst drift
        family = _dyadic_family(space_b)
        f = _proc(space_b, [1.0], [1.5, 1.0], [1.5, 1.5, 1.0, 1.0])
        assert classify(f, family).worst_violation == (1, 0, 1, 0.25)

    def test_one_step_verdict_matches_multistep_mixtures(self):
        # checking extremes one step at a time decides the property for
        # every mixture over every time gap
        rng = np.random.default_rng(11)
        for _ in range(10):
            space = random_space(rng)
            family = random_family(rng, space)
            f, _, _ = random_supermartingale(rng, space, family)
            verdict = classify(f, family)
            assert verdict.is_supermartingale
            for _ in range(50):
                q = mixture(family, rng.dirichlet(np.ones(len(family))))
                for n in range(1, space.horizon + 1):
                    fn = f.at_atoms(n)
                    for m in range(n):
                        e = cond_exp_cells(space, fn, q, m)
                        assert np.all(e <= f.at_cells(m) + 1e-10)


class TestA0:
    def test_constant_one_is_member(self, family_b):
        assert a0_membership(family_b, np.ones(4))

    def test_fixture_b_member(self, family_b, xi_b):
        assert a0_membership(family_b, xi_b)

    def test_non_member(self, family_b):
        assert not a0_membership(family_b, np.array([2.0, 0.0, 0.0, 0.0]))

    def test_convex_combinations_stay_inside(self, family_b, xi_b):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = rng.uniform()
            assert a0_membership(family_b, t * xi_b + (1 - t) * np.ones(4))


class TestFindA0Element:
    def test_default_is_member(self, family_b):
        xi = find_a0_element(family_b)
        assert a0_membership(family_b, xi)

    def test_default_is_exactly_one(self, family_b):
        families = [family_b]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            families.append(random_family(rng, random_space(rng)))
        for family in families:
            xi = find_a0_element(family)
            assert xi.tobytes() == np.ones(family.space.n_atoms).tobytes()
            assert a0_membership(family, xi)

    def test_vertex_with_indicator_objective(self, family_b):
        xi = find_a0_element(family_b, objective=np.array([1.0, 0.0, 0.0, 0.0]))
        assert a0_membership(family_b, xi)
        # both expectation constraints are active at an optimal vertex
        for p in family_b:
            assert expect(p, xi) == pytest.approx(1.0, abs=1e-12)

    def test_vertex_off_the_set_is_a_breakdown(self, family_b, monkeypatch):
        # a kernel vertex that the one membership rule refuses is not returned
        def nan_vertex(masses, objective):
            return np.full(masses.shape[1], np.nan)

        monkeypatch.setattr(regularity, "_unit_density_vertex", nan_vertex)
        with pytest.raises(NumericalBreakdown, match="left the unit-expectation set"):
            find_a0_element(family_b, objective=np.array([1.0, 0.0, 0.0, 0.0]))

    def test_two_atom_singleton_vertex(self):
        from doobkit import Measure, build_space

        space = build_space(2, [[[0, 1]], [[0], [1]]])
        fam = MeasureFamily(space=space, extremes=(Measure(np.array([0.5, 0.5])),))
        xi = find_a0_element(fam, objective=np.array([1.0, 0.0]))
        np.testing.assert_allclose(xi, [2.0, 0.0], atol=1e-12)


class TestXi0StepAlpha:
    def test_constant_martingale_any_alpha(self, space_b, family_b):
        f = _proc(space_b, [3.0], [3.0, 3.0], [3.0, 3.0, 3.0, 3.0])
        step = xi0_step_alpha(f, family_b, 1)
        assert isinstance(step, Xi0Step)
        np.testing.assert_allclose(step.xi0, 1.0, atol=0)

    def test_deterministic_drop(self, space_b, family_b):
        f = _proc(space_b, [2.0], [1.0, 1.0], [0.5, 0.5, 0.5, 0.5])
        step = xi0_step_alpha(f, family_b, 1)
        assert isinstance(step, Xi0Step)
        assert step.alpha == 0.0
        np.testing.assert_allclose(step.xi0, 1.0, atol=0)

    def test_dominance_refusal(self, space_b, family_b):
        # a constant rise of 5e-7 in ratio is a martingale within tolerance,
        # and normalizes to one, but the constant certificate sits below it
        f0 = 1e-3
        f1 = f0 * (1 + 5e-7)
        f = _proc(space_b, [f0], [f1, f1], [f1] * 4)
        assert classify(f, family_b).kind == "martingale"
        step = xi0_step_alpha(f, family_b, 1)
        assert isinstance(step, StepFailure)
        assert step.reason == "candidate does not dominate the one-step ratio"

    def test_unit_conditional_tie_reports_lower_extreme(self, space_b):
        # xi0 is 1.5 and 1.0 on the time-1 cells, so E{xi0} is exactly
        # 1.125, 1.25 and 1.25: extremes 1 and 2 tie
        family = _dyadic_family(space_b)
        xi0 = np.array([1.5, 1.0])
        assert _check_unit_conditional(space_b, family, xi0, 1, 1e-9) == (False, 1, 0.25)

    def test_matches_per_cell_intervals(self):
        # the constant seed has zero increments: an interval that is not
        # empty gives alpha 0 and the constant certificate, unless refused later
        empty = certified = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            space = random_space(rng, max_atoms=8, max_periods=3)
            family = random_family(rng, space)
            f, _, _ = random_supermartingale(rng, space, family)
            for m in range(1, space.horizon + 1):
                ratio = one_step_ratio_cells(f, m)
                sup = np.vstack(
                    [cond_exp_cells(space, space.expand(m, ratio), p, m - 1) for p in family]
                ).max(axis=0)
                alpha = per_cell_alpha(space, m, ratio, sup, np.zeros_like(ratio))
                step = xi0_step_alpha(f, family, m)
                if alpha is None:
                    assert isinstance(step, StepFailure), (seed, m)
                    assert step.reason == "empty alpha interval", (seed, m)
                    empty += 1
                elif isinstance(step, Xi0Step):
                    assert alpha == 0.0 and step.alpha == 0.0, (seed, m)
                    assert step.xi0.tobytes() == np.ones(space.n_atoms).tobytes(), (seed, m)
                    certified += 1
                else:  # refused by the checks after the interval
                    assert step.reason != "empty alpha interval", (seed, m)
        assert empty and certified


class TestXi0StepLp:
    def test_martingale_returns_ratio(self, space_b, family_b):
        f = _proc(space_b, [2.0], [2.4, 1.6], [2.4, 2.4, 1.6, 1.6])
        # a family-martingale: both measures force cell constancy after time 1
        assert classify(f, family_b).kind == "martingale"
        step = xi0_step_lp(f, family_b, 1)
        assert isinstance(step, Xi0Step)
        np.testing.assert_allclose(
            step.xi0, space_b.expand(1, one_step_ratio_cells(f, 1)), atol=1e-10
        )

    def test_deterministic_gives_constant_one(self, space_b, family_b):
        f = _proc(space_b, [2.0], [1.0, 1.0], [0.5, 0.5, 0.5, 0.5])
        step = xi0_step_lp(f, family_b, 1)
        np.testing.assert_allclose(step.xi0, 1.0, atol=0)
        step = xi0_step_lp(f, family_b, 2)
        np.testing.assert_allclose(step.xi0, 1.0, atol=0)

    def test_generated_instances_always_feasible(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            space = random_space(rng)
            family = random_family(rng, space)
            f, _, _ = random_supermartingale(rng, space, family)
            for m in range(1, space.horizon + 1):
                step = xi0_step_lp(f, family, m)
                assert isinstance(step, Xi0Step), step
                ratio = space.expand(m, one_step_ratio_cells(f, m))
                assert np.all(step.xi0 >= ratio - 1e-9)
                for p in family:
                    e = cond_exp_cells(space, step.xi0, p, m - 1)
                    assert np.abs(e - 1.0).max() <= 1e-9

    def test_infeasible_cell_reported(self, space_b, family_b, xi_b):
        env = envelope_process(family_b, xi_b)
        step = xi0_step_lp(env, family_b, 1)
        assert isinstance(step, StepFailure)
        assert step.cell == 0
        assert step.certificate is not None and step.certificate > 0

    def test_lp_answer_off_the_unit_rows_is_refused(self, monkeypatch, space_b, family_b):
        # the kernel's answer is gated on the equalities it was asked for;
        # the root reaches the kernel because its children's ratio 1.2 exceeds one
        f = _proc(space_b, [2.0], [2.4, 1.6], [2.4, 2.4, 1.6, 1.6])

        def one_too_high(law, rhs, cost, n_free):
            return np.ones(cost.shape), np.zeros(rhs.shape), np.zeros(rhs.shape)

        monkeypatch.setattr(regularity, "solve_batch", one_too_high)
        step = xi0_step_lp(f, family_b, 1)
        assert isinstance(step, StepFailure)
        assert step.reason.startswith("LP residual 1") and step.reason.endswith("under extreme 0")
        assert step.certificate == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NotLocallyRegular, match="LP residual"):
            optional_decompose(f, family_b, strategy="lp")


    def test_matches_per_node_lp_on_random_draws(self):
        # supermartingales certify; envelope processes mostly fail somewhere
        seen = Counter()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            space = random_space(rng)
            family = random_family(rng, space)
            f, _, _ = random_supermartingale(rng, space, family)
            env = envelope_process(family, rng.exponential(size=space.n_atoms))
            for proc in (f, env):
                for m in range(1, space.horizon + 1):
                    seen[_same_as_per_node_lp(proc, family, m, (seed, m))] += 1
                    seen["one child"] += int((np.diff(space.children_table(m)[1]) == 1).sum())
                    _kernel_against_oracles(proc, family, m, seen, (seed, m))
        kinds = ("certified", "failed", "one child", "infeasible", "fewer children than extremes")
        assert all(seen[kind] for kind in kinds), seen

    def test_matches_per_node_lp_on_pasting_stable_families(self):
        # extremes that share a node law make C rank-deficient there
        seen = Counter()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            space = random_space(rng)
            family = product_family(rng, space)
            f, _, _ = random_supermartingale(rng, space, family)
            env = envelope_process(family, rng.exponential(size=space.n_atoms))
            for proc in (f, env):
                for m in range(1, space.horizon + 1):
                    seen[_same_as_per_node_lp(proc, family, m, (seed, m))] += 1
                    _kernel_against_oracles(proc, family, m, seen, (seed, m))
        assert all(seen[kind] for kind in ("certified", "failed", "infeasible", "rank-deficient")), seen

    @pytest.mark.parametrize("b, depth, k", [(3, 4, 2), (3, 5, 2), (3, 6, 2), (9, 3, 3)])
    def test_matches_per_node_lp_on_trees(self, b, depth, k):
        family, f, _, _ = tree_draw(b, depth, k, 0)
        for m in range(1, depth + 1):
            assert _same_as_per_node_lp(f, family, m, m) == "certified"
            _kernel_against_oracles(f, family, m, Counter(), m)

    @pytest.mark.parametrize("b, depth, k", [(3, 5, 2), (9, 3, 3), (81, 2, 3)])
    def test_one_kernel_call_per_child_count(self, monkeypatch, b, depth, k):
        # every node of a b-ary tree has b children: one call settles a
        # decomposition, and at most one each step of xi0_step_lp
        family, f, _, _ = tree_draw(b, depth, k, 0)
        calls = []

        def no_lp(lp):
            raise AssertionError("a node reached the single-program solve")

        def spy(law, rhs, cost, n_free):
            calls.append(law.shape[2])
            return solve_batch(law, rhs, cost, n_free)

        monkeypatch.setattr(regularity, "solve", no_lp)
        monkeypatch.setattr(lp_module, "solve", no_lp)
        monkeypatch.setattr(regularity, "solve_batch", spy)
        dec = optional_decompose(f, family, strategy="lp")
        assert calls == [b]
        assert verify_decomposition(f, dec, family).ok
        for m in range(1, depth + 1):
            before = len(calls)
            assert isinstance(xi0_step_lp(f, family, m), Xi0Step)
            assert calls[before:] in ([], [b])

    def test_one_kernel_call_per_child_count_on_mixed_spaces(self, monkeypatch):
        calls = []

        def spy(law, rhs, cost, n_free):
            calls.append(law.shape[2])
            return solve_batch(law, rhs, cost, n_free)

        monkeypatch.setattr(regularity, "solve_batch", spy)
        rng = np.random.default_rng(29)
        mixed = 0
        for _ in range(30):
            space = random_space(rng)
            family = random_family(rng, space)
            f, _, _ = random_supermartingale(rng, space, family)
            calls.clear()
            optional_decompose(f, family, strategy="lp")
            counts = {
                law.shape[1] for m in range(1, space.horizon + 1) for law, _ in _worked_nodes(f, family, m)
            }
            assert sorted(calls) == sorted(counts)
            mixed += len(counts) > 1
        assert mixed

    def test_ties_go_to_the_first_basis(self, monkeypatch):
        # one extreme with law 1/4 on each of four children: every child
        # alone costs 0.0625 / 0.25, and the leaving rule's smallest basic
        # index gives it to the first child
        space = build_space(4, [[[0, 1, 2, 3]], [[0], [1], [2], [3]]])
        family = MeasureFamily(space=space, extremes=(Measure(np.full(4, 0.25)),))
        f = _proc(space, [1.0], [1.25, 1.0, 0.75, 0.75])
        monkeypatch.setattr(regularity, "solve", None)  # the kernel settles it
        step = xi0_step_lp(f, family, 1)
        assert step.xi0.tolist() == [1.5, 1.0, 0.75, 0.75]


class TestOptionalDecompose:
    def test_martingale_gives_zero_compensator(self, space_b, family_b):
        f = _proc(space_b, [2.0], [2.4, 1.6], [2.4, 2.4, 1.6, 1.6])
        assert classify(f, family_b).kind == "martingale"
        dec = optional_decompose(f, family_b, strategy="auto")
        for m in range(3):
            np.testing.assert_allclose(dec.compensator.at_cells(m), 0.0, atol=1e-10)
            np.testing.assert_allclose(dec.martingale.at_cells(m), f.at_cells(m), atol=1e-10)

    def test_deterministic_by_hand(self, space_b, family_b):
        f = _proc(space_b, [2.0], [1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        dec = optional_decompose(f, family_b, strategy="lp")
        np.testing.assert_allclose(dec.martingale.at_cells(1), [2.0, 2.0], atol=0)
        np.testing.assert_allclose(dec.compensator.at_cells(1), [1.0, 1.0], atol=0)

    def test_rejects_non_supermartingale(self, family_b, xi_b):
        env = envelope_process(family_b, xi_b)
        with pytest.raises(NotSupermartingale):
            optional_decompose(env, family_b)

    def test_rejects_negative_process(self, space_b, family_b):
        f = _proc(space_b, [1.0], [0.5, -0.5], [0.5, 0.5, -0.5, -0.5])
        with pytest.raises(NotSupermartingale):
            optional_decompose(f, family_b)

    def test_unknown_strategy(self, space_b, family_b):
        f = _proc(space_b, [2.0], [1.0, 1.0], [0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="alpha-with-xi0"):
            optional_decompose(f, family_b, strategy="alpha-with-xi0")

    @pytest.mark.parametrize("strategy", ["lp", "auto"])
    def test_round_trip_random_instances(self, strategy):
        rng = np.random.default_rng(23)
        for _ in range(15):
            space = random_space(rng)
            family = random_family(rng, space)
            f, _, _ = random_supermartingale(rng, space, family)
            dec = optional_decompose(f, family, strategy=strategy)
            report = verify_decomposition(f, dec, family)
            assert report.ok, [c for c in report.checks if not c.passed]

    def test_auto_seed_certifies_predictable_drops_with_zero_alpha(self, space_b, family_b):
        # step 1 halves f on every path: the constant seed certifies it with
        # alpha = 0; step 2 drops by different amounts inside a time-1 cell,
        # so the normalized ratio exceeds one there and the LP takes over
        f = _proc(space_b, [2.0], [1.0, 1.0], [1.0, 0.6, 0.9, 0.9])
        assert classify(f, family_b).is_supermartingale
        dec = optional_decompose(f, family_b, strategy="auto")
        first, second = dec.steps
        assert (first.method, first.alpha) == ("alpha-path", 0.0)
        assert first.xi0.tobytes() == np.ones(4).tobytes()
        assert second.method == "lp-path"
        assert verify_decomposition(f, dec, family_b).ok

    def test_alpha_strategy_on_singleton_family(self):
        # with one measure the density martingale is genuinely driftless,
        # so the closed-form path certifies every step
        rng = np.random.default_rng(31)
        for _ in range(10):
            space = random_space(rng)
            family = random_family(rng, space, max_extremes=1)
            f, _, _ = random_supermartingale(rng, space, family)
            dec = optional_decompose(f, family, strategy="auto")
            assert verify_decomposition(f, dec, family).ok


def _same_as_per_atom_verify(f, dec, family):
    """The same check names and verdicts as the oracle, and each violation
    within 1e-12 of the oracle's, relative above 1: the library conditions
    on cell masses, the oracle sums atoms, so they part by round-off."""
    report = verify_decomposition(f, dec, family)
    want = per_atom_verify(f, dec, family)
    assert [(c.name, c.passed) for c in report.checks] == [(w[0], w[2]) for w in want]
    for c, (_, violation, _) in zip(report.checks, want):
        assert abs(c.max_violation - violation) <= 1e-12 * max(1.0, abs(violation)), c.name


def _jittered(dec, rng):
    """The decomposition with noise on its martingale, so that the martingale
    checks read well above zero."""
    space = dec.martingale.space
    noisy = tuple(
        dec.martingale.at_cells(m) + rng.normal(scale=1e-3, size=space.n_cells(m))
        for m in range(space.horizon + 1)
    )
    return OptionalDecomposition(
        martingale=AdaptedProcess(space=space, per_time=noisy),
        compensator=dec.compensator,
        steps=dec.steps,
    )


def _every_shape_draws():
    """``(f, decomposition, jittered decomposition, family)`` per draw, until
    every (atoms, periods, extremes) shape of at most 8 atoms, 3 periods and
    3 extremes has come up."""
    rng = np.random.default_rng(0)
    shapes = set()
    i = 0
    while len(shapes) < 7 * 3 * 3:
        i += 1
        assert i < 1000, sorted(shapes)
        space = random_space(rng, max_atoms=8, max_periods=3)
        family = random_family(rng, space, max_extremes=3)
        shapes.add((space.n_atoms, space.horizon, len(family)))
        f, _, _ = random_supermartingale(rng, space, family)
        dec = optional_decompose(f, family)
        yield f, dec, _jittered(dec, rng), family


def _tree_draws(b, depth, k):
    family, f, _, _ = tree_draw(b, depth, k, 0)
    dec = optional_decompose(f, family)
    return f, dec, _jittered(dec, np.random.default_rng(b)), family


def _four_checks_bound_implied(f, dec, family, weights):
    """The martingale gap under each mixture of the extremes (one row of
    ``weights`` each) and the drift gap stay within what the four checks of
    ``verify_decomposition`` report: under a mixture a cell's conditional
    expectation averages the extremes', and the drift gap is
    -E_i[M_m - M_{m-1} | F_{m-1}] up to the reconstruction error at both ends
    of the step."""
    got = {c.name: c.max_violation for c in verify_decomposition(f, dec, family).checks}
    bound = got["martingale-extremes"]
    if len(weights):
        mixes = np.array([mixture(family, w).probs for w in weights])
        assert martingale_gap(dec.martingale, mixes) <= bound * (1 + 1e-12) + 1e-15
    bound += 2.0 * got["reconstruction"]
    assert drift_gap(f, dec, family) <= bound * (1 + 1e-12) + 1e-15


#: per check of ``verify_decomposition``, the levels ``(f, M, g)`` on
#: ``space_a`` of the decomposition ``M = 2``, ``g = (0; 1, 1, 1)`` of
#: ``f = (2; 1, 1, 1)``, spoilt for that check alone
_DECOMPOSITION_SPOILS = {
    "reconstruction": (
        [[2.0], [1.5, 1.0, 1.0]], [[2.0], [2.0, 2.0, 2.0]], [[0.0], [1.0, 1.0, 1.0]]
    ),
    "compensator-starts-at-zero": (
        [[2.0], [1.0, 1.0, 1.0]], [[2.5], [2.5, 2.5, 2.5]], [[0.5], [1.5, 1.5, 1.5]]
    ),
    # (2, 0, -3) has zero mean under both extremes of family_a: added to M
    # and g it keeps M a martingale and M - g = f, and g drops at child 3
    "compensator-monotone": (
        [[2.0], [1.0, 1.0, 1.0]], [[2.0], [4.0, 2.0, -1.0]], [[0.0], [3.0, 1.0, -2.0]]
    ),
    "martingale-extremes": (
        [[2.0], [1.0, 1.0, 1.0]], [[2.0], [2.5, 2.0, 2.0]], [[0.0], [1.5, 1.0, 1.0]]
    ),
}


class TestVerifyDecomposition:
    def test_matches_per_atom_oracle_on_every_shape(self):
        for f, dec, jittered, family in _every_shape_draws():
            _same_as_per_atom_verify(f, dec, family)
            _same_as_per_atom_verify(f, jittered, family)

    @pytest.mark.parametrize("b, depth, k", [(3, 6, 2), (5, 3, 3)])
    @pytest.mark.parametrize("n_mixtures", [0, 1, 20])
    def test_matches_per_mixture_oracle_on_trees(self, b, depth, k, n_mixtures):
        # the oracle's verdicts, and on n_mixtures Dirichlet mixtures of the
        # extremes the mixture and drift checks the four bound
        f, dec, jittered, family = _tree_draws(b, depth, k)
        _same_as_per_atom_verify(f, dec, family)
        _same_as_per_atom_verify(f, jittered, family)
        weights = np.random.default_rng(n_mixtures).dirichlet(np.ones(k), size=n_mixtures)
        _four_checks_bound_implied(f, jittered, family, weights)

    def test_four_checks_bound_the_checks_they_imply(self):
        rng = np.random.default_rng(1)
        for f, _, dec, family in _every_shape_draws():
            weights = rng.dirichlet(np.ones(len(family)), size=20)
            _four_checks_bound_implied(f, dec, family, weights)

    def test_passes_on_constructed(self, space_b, family_b):
        f = _proc(space_b, [2.0], [1.5, 1.2], [1.5, 1.5, 0.9, 0.9])
        assert classify(f, family_b).is_supermartingale
        dec = optional_decompose(f, family_b)
        assert verify_decomposition(f, dec, family_b).ok

    def test_tampered_compensator_flagged(self, space_b, family_b):
        f = _proc(space_b, [2.0], [1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        dec = optional_decompose(f, family_b)
        bad_comp = AdaptedProcess(
            space=space_b,
            per_time=(
                dec.compensator.at_cells(0),
                dec.compensator.at_cells(1),
                dec.compensator.at_cells(2) - np.array([0.5, 0.0, 0.0, 0.0]),
            ),
        )
        tampered = OptionalDecomposition(
            martingale=dec.martingale, compensator=bad_comp, steps=dec.steps
        )
        report = verify_decomposition(f, tampered, family_b)
        assert not report.ok
        failing = {c.name for c in report.checks if not c.passed}
        assert "compensator-monotone" in failing

    @pytest.mark.parametrize("check", list(_DECOMPOSITION_SPOILS))
    def test_each_spoil_fails_exactly_its_check(self, space_a, family_a, check):
        f = _proc(space_a, [2.0], [1.0, 1.0, 1.0])
        dec = optional_decompose(f, family_a)
        assert [level.tolist() for level in dec.martingale.per_time] == [[2.0], [2.0, 2.0, 2.0]]
        report = verify_decomposition(f, dec, family_a)
        assert report.ok and [c.name for c in report.checks] == list(_DECOMPOSITION_SPOILS)
        spoilt_f, mart, comp = (_proc(space_a, *levels) for levels in _DECOMPOSITION_SPOILS[check])
        spoilt = OptionalDecomposition(martingale=mart, compensator=comp, steps=dec.steps)
        report = verify_decomposition(spoilt_f, spoilt, family_a)
        assert {c.name for c in report.checks if not c.passed} == {check}

    def test_processes_off_the_family_space_fail_shapes(self):
        fam9, f9, _, _ = tree_draw(3, 2, 2, 0)
        fam27, f27, _, _ = tree_draw(3, 3, 2, 0)
        dec9 = optional_decompose(f9, fam9)
        for f, family, off in (
            (f27, fam9, "f"),
            (f9, fam27, "f, martingale, compensator"),
        ):
            report = verify_decomposition(f, dec9, family)
            assert not report.ok
            assert report.checks == (
                CheckResult(
                    name=f"shapes (not on the family's space: {off})",
                    max_violation=np.inf,
                    passed=False,
                ),
            )
