"""Fair pricing, martingale measures, representation, and hedging."""

import tracemalloc

import numpy as np
import pytest

from doobkit import (
    A0Element,
    AdaptedProcess,
    BadBounds,
    FamilyNotEmm,
    GeneratorNotInA0,
    MarketModel,
    Measure,
    MeasureFamily,
    NotMeasurable,
    NotRepresentable,
    NumericalBreakdown,
    build_space,
    closed_form_call,
    closed_form_put,
    fair_price_a0,
    fair_price_generators,
    find_a0_element,
    find_emm,
    load_scenario,
    martingale_representation,
    optional_decompose,
    price_slice_generators,
    pricing,
    superhedge_strategy,
    verify_decomposition,
    verify_emm,
)
from doobkit.generators import random_family, random_space, random_supermartingale
from doobkit.lp import LinearProgram, solve
from doobkit.pricing import _domination_rows

from .oracles import (
    dense_generator_price,
    dense_solve,
    dual_mixture_price,
    expect,
    generator_rows,
    global_floor_emm,
    per_generator_check,
    per_node_domination_rows,
    per_node_representation,
    stopped_levels,
)
from .trees import tree_draw, tree_market


def _terminal_claim(rng, space):
    per_cell = rng.uniform(0.0, 3.0, size=space.n_cells(space.horizon))
    return space.expand(space.horizon, per_cell)


class TestFairPriceA0:
    def test_zero_claim(self, family_a):
        assert fair_price_a0(np.zeros(3), family_a).fair_price == pytest.approx(0.0, abs=1e-12)

    def test_call_matches_dual_oracle(self, family_a, call_a):
        result = fair_price_a0(call_a, family_a)
        oracle = dual_mixture_price([0.3, 0.5, 0.2], [0.57, 0.05, 0.38], call_a)
        assert oracle == pytest.approx(18.0, abs=1e-12)
        assert result.fair_price == pytest.approx(oracle, abs=1e-9)
        assert np.all(result.dominator >= call_a - 1e-9)
        assert result.lower_bound == pytest.approx(17.6, abs=1e-12)

    def test_put_matches_dual_oracle(self, family_a, put_a):
        # the dual over signed mixtures tops out at 4 for this payoff
        result = fair_price_a0(put_a, family_a)
        oracle = dual_mixture_price([0.3, 0.5, 0.2], [0.57, 0.05, 0.38], put_a)
        assert oracle == pytest.approx(4.0, abs=1e-12)
        assert result.fair_price == pytest.approx(oracle, abs=1e-9)

    def test_density_realizes_the_price(self, family_a, call_a):
        result = fair_price_a0(call_a, family_a)
        for p in family_a:
            assert expect(p, result.density) == pytest.approx(1.0, abs=1e-9)
        assert np.all(result.fair_price * result.density >= call_a - 1e-9)

    def test_rejects_unmeasurable_claim(self, family_b):
        with pytest.raises(NotMeasurable):
            fair_price_a0(np.array([1.0, 2.0]), family_b)

    def test_expectation_lower_bound_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            space = random_space(rng, max_atoms=6, max_periods=2)
            family = random_family(rng, space)
            claim = _terminal_claim(rng, space)
            result = fair_price_a0(claim, family)
            lower = max(expect(p, claim) for p in family)
            assert result.fair_price >= lower - 1e-8

    def test_monotone_and_homogeneous(self, family_a, call_a):
        base = fair_price_a0(call_a, family_a).fair_price
        bigger = fair_price_a0(call_a + np.array([0.0, 5.0, 1.0]), family_a).fair_price
        assert base <= bigger + 1e-9
        for lam in (0.5, 2.0, 10.0):
            scaled = fair_price_a0(lam * call_a, family_a).fair_price
            assert scaled == pytest.approx(lam * base, abs=1e-9)


class TestFairPriceGenerators:
    def test_call_by_slices(self, family_a, market_a, call_a):
        gens = price_slice_generators(market_a)
        result = fair_price_generators(call_a, gens, family_a)
        assert result.fair_price == pytest.approx(25.0, abs=1e-9)
        np.testing.assert_allclose(result.gamma, [0.0, 1.0], atol=1e-10)
        assert np.all(result.dominator >= call_a - 1e-9)

    def test_put_by_slices(self, family_a, market_a, put_a):
        result = fair_price_generators(put_a, price_slice_generators(market_a), family_a)
        assert result.fair_price == pytest.approx(10.0, abs=1e-9)
        np.testing.assert_allclose(result.gamma, [1.0, 0.0], atol=1e-10)

    def test_constant_generator_gives_sup(self, family_a, call_a):
        result = fair_price_generators(call_a, [np.ones(3)], family_a)
        assert result.fair_price == pytest.approx(30.0, abs=1e-9)

    def test_mode_ordering(self, family_a, market_a, call_a, put_a):
        gens = price_slice_generators(market_a)
        for claim in (call_a, put_a):
            free = fair_price_a0(claim, family_a).fair_price
            gen = fair_price_generators(claim, gens, family_a).fair_price
            assert gen >= free - 1e-9

    def test_rejects_non_density_generator(self, family_a, call_a):
        with pytest.raises(GeneratorNotInA0):
            fair_price_generators(call_a, [np.array([1.0, 1.0, 2.0])], family_a)


def _null_direction(family):
    """A unit vector on which every extreme has zero expectation, if any."""
    _, sv, vt = np.linalg.svd(family.probs)
    return vt[-1] if vt.shape[0] > np.count_nonzero(sv > 1e-12) else None


class TestGeneratorStack:
    """The one-pass density check of the generators against one
    atom-by-atom check per generator."""

    def test_matches_per_generator_loop(self):
        rng = np.random.default_rng(17)
        taken = refused = 0
        for _ in range(30):
            space = random_space(rng, max_atoms=8, max_periods=2)
            family = random_family(rng, space)
            n = space.n_atoms
            claim = _terminal_claim(rng, space)
            good = [np.ones(n)] + [
                find_a0_element(family, objective=rng.normal(size=n)).xi for _ in range(2)
            ]
            good[2] = A0Element(xi=good[2])
            odd = {
                "nan": np.where(np.arange(n) == n // 2, np.nan, 1.0),
                "inf": np.where(np.arange(n) == n - 1, np.inf, 1.0),
                "off unit": np.full(n, 1.0 + 1e-6),
                "just off unit": np.full(n, 1.0 + 3e-12),
                "just on unit": np.full(n, 1.0 + 4e-13),
                "too long": np.ones(n + 1),
            }
            d = _null_direction(family)
            if d is not None:  # unit expectations, yet one entry below zero
                odd["negative"] = 1.0 - 1.1 * d / np.abs(d).max()
                odd["just negative"] = 1.0 - (1.0 + 5e-13) * d / np.abs(d).max()
            for xi in odd.values():
                for pos in (0, 1, len(good)):
                    gens = good[:pos] + [xi] + good[pos:]
                    want = per_generator_check(family, gens)
                    if want is None:
                        taken += 1
                        fair_price_generators(claim, gens, family)
                    else:
                        refused += 1
                        with pytest.raises(GeneratorNotInA0) as info:
                            fair_price_generators(claim, gens, family)
                        assert str(info.value) == want
        assert taken >= 50 and refused >= 300


class TestGeneratorCertificate:
    """The generator price is checked against its own primal-dual pair."""

    @pytest.mark.parametrize("check", ["domination", "dual feasibility", "gap"])
    def test_spoilt_outcome_is_refused_by_name(self, spoil_pricing_lp, check):
        family, market, claim = tree_market(3, 3, 2, 0)
        spoil_pricing_lp(check)
        for verb in (
            lambda: fair_price_generators(claim, price_slice_generators(market), family),
            lambda: superhedge_strategy(claim, market, family),
        ):
            with pytest.raises(NumericalBreakdown, match=f"failed its {check} check"):
                verb()

    @pytest.mark.parametrize("check", ["domination", "dual feasibility", "gap"])
    def test_spoilt_rounds_end(self, monkeypatch, spoil_pricing_lp, check):
        # a spoilt outcome may keep rows joining, but each round adds one
        family, market, claim = tree_market(3, 3, 2, 0)
        rows = len(family) * family.space.n_cells(family.space.horizon)
        spoil_pricing_lp(check)
        spoilt, lps = pricing.solve, []
        monkeypatch.setattr(pricing, "solve", lambda lp: lps.append(lp) or spoilt(lp))
        with pytest.raises(NumericalBreakdown, match=f"failed its {check} check"):
            fair_price_generators(claim, price_slice_generators(market), family)
        assert 1 <= len(lps) <= rows + 1

    def test_one_lp_and_no_free_price(self, monkeypatch, family_a, market_a, call_a):
        lps = []
        monkeypatch.setattr(pricing, "solve", lambda lp: lps.append(lp) or solve(lp))

        def free_price(*args, **kwargs):
            raise AssertionError("the free price was solved")

        monkeypatch.setattr(pricing, "fair_price_a0", free_price)
        fair_price_generators(call_a, price_slice_generators(market_a), family_a)
        assert len(lps) == 1
        superhedge_strategy(call_a, market_a, family_a)
        assert len(lps) == 2


class TestClosedForms:
    def test_call_values(self):
        assert closed_form_call(100, 90, 120) == pytest.approx(25.0, abs=1e-12)
        assert closed_form_call(100, 130, 120) == 0.0
        assert closed_form_call(100, 120, 120) == 0.0

    def test_put_values(self):
        assert closed_form_put(80, 70) == pytest.approx(10.0, abs=1e-12)
        assert closed_form_put(60, 70) == 0.0
        assert closed_form_put(70, 70) == 0.0

    def test_bad_bounds(self):
        with pytest.raises(BadBounds):
            closed_form_call(0.0, 90, 120)
        with pytest.raises(BadBounds):
            closed_form_call(100, -1, 120)
        with pytest.raises(BadBounds):
            closed_form_put(80, 0.0)


def _emm_extremes(market, rng, k=2):
    """``k`` strictly positive martingale measures for a one-period market
    on an atom-fine space: random strictly positive mixtures of the
    two-point martingale measures on every (up atom, down atom) pair."""
    ds = market.S.at_atoms(1) - market.s0
    up, down = np.flatnonzero(ds > 0), np.flatnonzero(ds < 0)
    assert up.size + down.size == ds.size  # no atom at the start price
    u, d = (a.ravel() for a in np.meshgrid(up, down))
    pairs = np.arange(u.size)
    two_point = np.zeros((u.size, ds.size))
    two_point[pairs, u] = -ds[d] / (ds[u] - ds[d])
    two_point[pairs, d] = ds[u] / (ds[u] - ds[d])
    return [Measure(q / q.sum()) for q in rng.dirichlet(np.ones(u.size), size=k) @ two_point]


class TestClosedFormAgreement:
    def test_fixture_a_band(self, family_a, market_a, call_a, put_a):
        gens = price_slice_generators(market_a)
        call_lp = fair_price_generators(call_a, gens, family_a).fair_price
        assert call_lp == pytest.approx(closed_form_call(100, 90, 120), abs=1e-9)
        put_lp = fair_price_generators(put_a, gens, family_a).fair_price
        assert put_lp == pytest.approx(closed_form_put(80, 70), abs=1e-9)

    def test_random_one_period_bands(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            s0 = 100.0
            lo = float(rng.uniform(40, 90))
            hi = float(rng.uniform(110, 200))
            inner = rng.uniform(lo, hi, size=max(n - 2, 1))
            s1 = np.concatenate([[hi, lo], inner])  # both bounds attained
            space = build_space(n, [[list(range(n))], [[a] for a in range(n)]])
            s = AdaptedProcess(space=space, per_time=(np.array([s0]), s1))
            market = MarketModel(S=s, bounds=((s0, s0), (lo, hi)))
            extremes = _emm_extremes(market, rng)
            for q in extremes:
                assert verify_emm(q, market).passed
            family = MeasureFamily(space=space, extremes=tuple(extremes))
            gens = price_slice_generators(market)
            strike_call = float(rng.uniform(0, hi))
            payoff_call = np.maximum(s1 - strike_call, 0.0)
            got = fair_price_generators(payoff_call, gens, family).fair_price
            assert got == pytest.approx(closed_form_call(s0, strike_call, hi), abs=1e-9)
            strike_put = float(rng.uniform(lo, 1.5 * hi))
            payoff_put = np.maximum(strike_put - s1, 0.0)
            got = fair_price_generators(payoff_put, gens, family).fair_price
            assert got == pytest.approx(closed_form_put(strike_put, lo), abs=1e-9)

    def test_two_period_band(self):
        # binary tree: 100 -> (120, 80) -> (140, 100 | 100, 60); the unique
        # martingale measure is uniform on the four leaves
        space = build_space(4, [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]])
        s = AdaptedProcess(
            space=space,
            per_time=(
                np.array([100.0]),
                np.array([120.0, 80.0]),
                np.array([140.0, 100.0, 100.0, 60.0]),
            ),
        )
        market = MarketModel(S=s, bounds=((100.0, 100.0), (80.0, 120.0), (60.0, 140.0)))
        family = MeasureFamily(space=space, extremes=(Measure(np.full(4, 0.25)),))
        assert verify_emm(family.extremes[0], market).passed
        gens = price_slice_generators(market)
        s2 = s.at_atoms(2)
        for strike in (90.0, 120.0):
            got = fair_price_generators(np.maximum(s2 - strike, 0.0), gens, family).fair_price
            assert got == pytest.approx(closed_form_call(100, strike, 140), abs=1e-9)
        for strike in (70.0, 90.0):
            got = fair_price_generators(np.maximum(strike - s2, 0.0), gens, family).fair_price
            assert got == pytest.approx(closed_form_put(strike, 60), abs=1e-9)


def _one_period(moves, s0=100.0, terminal=None):
    """One node whose children move the price by ``moves``; each child is a
    terminal cell of one atom unless ``terminal`` lists cells of atoms."""
    n = len(moves) if terminal is None else sum(len(c) for c in terminal)
    cells = [[a] for a in range(n)] if terminal is None else terminal
    space = build_space(n, [[list(range(n))], cells])
    s1 = s0 + np.asarray(moves, dtype=float)
    return MarketModel(S=AdaptedProcess(space=space, per_time=(np.array([s0]), s1)))


class TestEmm:
    def test_constant_price_symmetric_optimum(self):
        # a flat node: every child gets 1 / c
        for c in (1, 2, 3, 5, 7):
            result = find_emm(_one_period(np.zeros(c)))
            assert np.array_equal(result.measure.probs, np.full(c, 1.0 / c))
            assert result.min_slack == 1.0 / c

    def test_fixture_a(self, market_a):
        # moves (20, 0, -30): floor 20 / (3 * 20 + 10), the rest on the up move
        result = find_emm(market_a)
        assert np.array_equal(result.measure.probs, [3 / 7, 2 / 7, 2 / 7])
        assert result.min_slack == 2 / 7
        assert verify_emm(result.measure, market_a).max_residual <= 1e-12

    def test_one_child_that_moves_has_no_emm(self):
        space = build_space(2, [[[0, 1]], [[0, 1]], [[0], [1]]])
        s = AdaptedProcess(
            space=space, per_time=(np.array([100.0]), np.array([105.0]), np.array([95.0, 115.0]))
        )
        result = find_emm(MarketModel(S=s))
        assert result.measure is None
        assert result.min_slack == 0.0

    def test_no_down_move_has_no_emm(self):
        result = find_emm(_one_period([0.0, 10.0, 20.0]))
        assert result.measure is None
        assert result.min_slack == 0.0

    def test_tied_extremes_share_the_leftover(self):
        # tot = 10 > 0, so the two children at lo = -10 share 1 - 4 * eps
        market = _one_period([-10.0, 20.0, -10.0, 10.0])
        result = find_emm(market)
        eps = -10.0 / (4 * -10.0 - 10.0)
        q = result.measure.probs
        assert result.min_slack == eps
        assert q[0] == q[2] == pytest.approx(eps + (1.0 - 4 * eps) / 2, abs=1e-15)
        assert q[1] == q[3] == eps
        assert verify_emm(result.measure, market).passed

    def test_multi_atom_terminal_cells_split_evenly(self):
        market = _one_period([10.0, -10.0], terminal=[[0, 1, 2], [3, 4]])
        q = find_emm(market).measure.probs
        assert np.array_equal(q, [1 / 6, 1 / 6, 1 / 6, 1 / 4, 1 / 4])

    def test_atoms_below_the_measure_floor_give_no_emm(self):
        # each node's floor is about 1e-8, so an atom's product is about 1e-16
        space = build_space(4, [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]])
        up = 1e8
        s = AdaptedProcess(
            space=space,
            per_time=(
                np.array([100.0]),
                np.array([100.0 + up, 99.0]),
                np.array([100.0 + 2 * up, 99.0 + up, 99.0 + up, 98.0]),
            ),
        )
        result = find_emm(MarketModel(S=s))
        assert result.measure is None
        assert 1e-10 < result.min_slack < 1e-7

    def test_rising_price_has_no_emm(self):
        space = build_space(2, [[[0, 1]], [[0], [1]]])
        s = AdaptedProcess(space=space, per_time=(np.array([100.0]), np.array([110.0, 120.0])))
        result = find_emm(MarketModel(S=s))
        assert result.measure is None

    def test_verify_emm_examples(self, market_a, family_a, space_a):
        assert verify_emm(family_a.extremes[0], market_a).max_residual == 0.0
        uniform = Measure(np.full(3, 1.0 / 3.0))
        report = verify_emm(uniform, market_a)
        assert not report.passed
        assert report.max_residual == pytest.approx(100.0 - 290.0 / 3.0, abs=1e-9)


class TestRepresentation:
    def test_constant_martingale(self, market_a, space_a):
        flat = AdaptedProcess(space=space_a, per_time=(np.array([7.0]), np.full(3, 7.0)))
        h = martingale_representation(flat, market_a)
        np.testing.assert_allclose(h[0], 0.0, atol=0)

    def test_binomial_half(self):
        space = build_space(2, [[[0, 1]], [[0], [1]]])
        s = AdaptedProcess(space=space, per_time=(np.array([100.0]), np.array([120.0, 80.0])))
        m = AdaptedProcess(space=space, per_time=(np.array([10.0]), np.array([20.0, 0.0])))
        h = martingale_representation(m, MarketModel(S=s))
        assert h[0][0] == pytest.approx(0.5, abs=1e-12)

    def test_affine_dominator_is_representable(self, market_a, family_a, call_a, space_a):
        # the free-mode optimal dominator (30, 18, 0) is affine in the price
        result = fair_price_a0(call_a, family_a)
        m = AdaptedProcess(
            space=space_a, per_time=(np.array([result.fair_price]), result.dominator)
        )
        h = martingale_representation(m, market_a)
        assert h[0][0] == pytest.approx(0.6, abs=1e-9)
        recon = result.fair_price + h[0][0] * (market_a.S.at_atoms(1) - 100.0)
        assert np.abs(recon - result.dominator).max() <= 1e-10

    def test_unspanned_increment_raises(self, market_a, space_a):
        # zero mean under the floor-optimal measure but outside the price span
        m = AdaptedProcess(space=space_a, per_time=(np.array([10.0]), np.array([12.0, 11.0, 6.0])))
        with pytest.raises(NotRepresentable) as info:
            martingale_representation(m, market_a)
        assert info.value.residual > 0.1


class TestSuperhedge:
    def test_call_fixture(self, family_a, market_a, call_a):
        strat = superhedge_strategy(call_a, market_a, family_a)
        assert strat.initial_capital() == 25.0
        np.testing.assert_allclose(strat.capital.at_cells(1), [30.0, 25.0, 17.5], atol=1e-12)
        assert np.all(strat.capital.at_atoms(1) >= call_a - 1e-9)
        assert strat.risky[1][0] == pytest.approx(0.25, abs=1e-12)
        assert strat.self_financing_residual(market_a) <= 1e-12
        assert strat.capital_residual(market_a) <= 1e-12

    def test_put_fixture(self, family_a, market_a, put_a):
        strat = superhedge_strategy(put_a, market_a, family_a)
        assert strat.initial_capital() == pytest.approx(10.0, abs=1e-12)
        np.testing.assert_allclose(strat.capital.at_cells(1), 10.0, atol=1e-10)
        assert strat.risky[1][0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_claim(self, family_a, market_a):
        strat = superhedge_strategy(np.zeros(3), market_a, family_a)
        assert strat.initial_capital() == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(strat.capital.at_atoms(1), 0.0, atol=1e-12)
        np.testing.assert_allclose(strat.risky[1], 0.0, atol=1e-12)

    def test_family_must_be_martingale_measures(self, market_a, space_a, call_a):
        biased = MeasureFamily(
            space=space_a, extremes=(Measure(np.array([0.5, 0.3, 0.2])),)
        )
        with pytest.raises(FamilyNotEmm):
            superhedge_strategy(call_a, market_a, biased)

    def test_soundness_on_random_martingale_markets(self):
        # price processes sampled as family-martingales make every extreme a
        # martingale measure by construction
        rng = np.random.default_rng(77)
        done = 0
        while done < 20:
            space = random_space(rng, max_atoms=6, max_periods=3)
            family = random_family(rng, space)
            _, mart, _ = random_supermartingale(rng, space, family, margin=1.0)
            market = MarketModel(S=mart)
            claim = _terminal_claim(rng, space)
            strat = superhedge_strategy(claim, market, family)
            assert strat.initial_capital() == pytest.approx(
                strat.pricing.fair_price, abs=0
            )
            assert strat.self_financing_residual(market) <= 1e-12
            assert strat.capital_residual(market) <= 1e-10
            assert np.all(strat.capital.at_atoms(strat.capital.horizon) >= claim - 1e-9)
            done += 1


class TestNonFiniteClaims:
    """A NaN behind the first atom of a terminal cell is refused by every
    pricing verb, not priced as that cell's first atom."""

    @pytest.fixture()
    def coarse(self):
        space = build_space(4, [[[0, 1, 2, 3]], [[0, 1], [2, 3]]])
        s = AdaptedProcess(space=space, per_time=(np.array([100.0]), np.array([90.0, 110.0])))
        # each extreme gives both terminal cells mass 1/2, so both are martingale measures
        probs = ([0.25, 0.25, 0.25, 0.25], [0.1, 0.4, 0.3, 0.2])
        family = MeasureFamily(space=space, extremes=tuple(Measure(np.array(p)) for p in probs))
        return MarketModel(S=s), family

    @pytest.mark.parametrize("claim", [[1.0, np.nan, 2.0, 2.0], [1.0, 1.0, 2.0, np.nan]])
    @pytest.mark.parametrize("verb", [
        lambda claim, market, family: fair_price_a0(claim, family),
        lambda claim, market, family: fair_price_generators(claim, [np.ones(4)], family),
        lambda claim, market, family: superhedge_strategy(claim, market, family),
    ], ids=["a0", "generators", "hedge"])
    def test_nan_is_refused(self, coarse, verb, claim):
        market, family = coarse
        with pytest.raises(ValueError, match="^claim must be finite$"):
            verb(np.array(claim), market, family)


class TestMarketModel:
    def test_rejects_nonpositive_price(self, space_a):
        s = AdaptedProcess(space=space_a, per_time=(np.array([1.0]), np.array([2.0, 0.0, 1.0])))
        with pytest.raises(BadBounds):
            MarketModel(S=s)

    def test_rejects_band_violations(self, space_a):
        s = AdaptedProcess(space=space_a, per_time=(np.array([100.0]), np.array([120.0, 100.0, 70.0])))
        with pytest.raises(BadBounds):
            MarketModel(S=s, bounds=((100.0, 100.0), (75.0, 120.0)))  # price leaves band
        with pytest.raises(BadBounds):
            MarketModel(S=s, bounds=((60.0, 100.0), (70.0, 120.0)))  # floor rises


def _full_form_rows(space, family):
    """E_p{h | F_N}(cell) as rows over atoms, every extreme, every terminal cell."""
    return per_node_domination_rows(space, family, space.cells(space.horizon))


class TestDominationRows:
    def test_equal_per_cell_loop_bit_for_bit(self):
        rng = np.random.default_rng(7)
        draws = []
        for _ in range(40):
            space = random_space(rng, max_atoms=40, max_periods=3)
            draws.append(random_family(rng, space))
        draws += [tree_draw(3, 6, 2, 0)[0], tree_draw(9, 3, 3, 0)[0]]
        for family in draws:
            space = family.space
            terminal = space.cells(space.horizon)
            for keep in (
                np.ones(len(terminal), dtype=bool),
                np.array([len(cell) > 1 for cell in terminal]),
                rng.random(len(terminal)) < 0.5,
            ):
                cells = [terminal[c] for c in np.flatnonzero(keep)]
                got = _domination_rows(space, family, keep)
                assert np.array_equal(got, per_node_domination_rows(space, family, cells))


def _oracle_markets():
    """(where, family, market, claim): random martingale markets, then the
    tree recipe up to 729 atoms."""
    rng = np.random.default_rng(31)
    for i in range(40):
        space = random_space(rng, max_atoms=12, max_periods=3)
        family = random_family(rng, space)
        _, mart, _ = random_supermartingale(rng, space, family, margin=1.0)
        yield f"draw {i}", family, MarketModel(S=mart), _terminal_claim(rng, space)
    for b, depth, k in [(3, 3, 2), (3, 4, 2), (3, 5, 2), (3, 6, 2), (9, 3, 3), (2, 6, 1), (5, 3, 3)]:
        yield f"tree {b}^{depth} k={k}", *tree_market(b, depth, k, 0)


def _unrepresentable(rng, mproc):
    """``mproc`` with the children of two cells of one time moved off the
    asset span, and the (time, cell) that should be reported first."""
    space = mproc.space
    m = int(rng.integers(1, space.horizon + 1))
    picks = rng.choice(space.n_cells(m - 1), size=min(2, space.n_cells(m - 1)), replace=False)
    hit = np.isin(space.parent_cell(m), picks)
    levels = list(mproc.per_time)
    levels[m] = levels[m] + hit * (1.0 + rng.random(space.n_cells(m)))
    return AdaptedProcess(space=space, per_time=tuple(levels)), (m, int(picks.min()))


class TestKernelAgainstPerNodeOracles:
    """Generator pricing reads the conditional-expectation kernel and
    settles a whole level at once, and hedging reads its positions off the
    price's weights; the dense rows, the per-node least squares and the
    per-slice restricts are the oracles."""

    def test_generator_price_matches_dense_rows(self):
        for where, family, market, claim in _oracle_markets():
            space = family.space
            gens = price_slice_generators(market)
            dom = _full_form_rows(space, family)
            bound = np.tile(space.restrict(space.horizon, claim), len(family))
            cols = np.column_stack([dom @ g.xi for g in gens])
            dual = dense_solve(LinearProgram(-bound, a_ge=-cols.T, b_ge=-np.ones(len(gens))))
            assert dual.status == "optimal", where
            result = fair_price_generators(claim, gens, family)
            assert result.fair_price == pytest.approx(-dual.value, rel=1e-12), where
            assert np.all(result.gamma >= 0.0), where
            assert result.gamma.sum() == pytest.approx(1.0, abs=1e-12), where
            mix = result.fair_price * sum(w * g.xi for w, g in zip(result.gamma, gens))
            assert np.all(dom @ mix >= bound - 1e-9), where
            _assert_matches_dense_dual(result, claim, gens, family, where)

    def test_hedge_matches_per_node_oracles(self):
        rng = np.random.default_rng(32)
        for where, family, market, claim in _oracle_markets():
            # a mix of two slices is hedged by a dominator with two weights
            horizon = market.space.horizon
            mixed = 0.3 * market.S.at_atoms(1) + 0.7 * market.S.at_atoms(horizon)
            for payoff in (mixed, claim):
                strat = superhedge_strategy(payoff, market, family)
                pricing = strat.pricing
                weights = np.zeros(horizon + 1) if pricing.gamma is None else pricing.gamma
                want = stopped_levels(market, pricing.fair_price, weights)
                for got, level in zip(strat.capital.per_time, want):
                    np.testing.assert_allclose(got, level, rtol=1e-13, atol=0, err_msg=where)
                oracle = per_node_representation(strat.capital, market)
                for got, h in zip(strat.risky[1:], oracle):
                    np.testing.assert_allclose(got, h, rtol=0, atol=1e-10, err_msg=where)
                # a node that moves holds the weight of the slices of time m and later
                space = market.space
                for m in range(1, horizon + 1):
                    parent = space.parent_cell(m)
                    ds = market.S.at_cells(m) - market.S.at_cells(m - 1)[parent]
                    moves = np.bincount(parent, weights=ds * ds) > 0.0
                    held = pricing.fair_price / market.s0 * weights[m:].sum()
                    np.testing.assert_allclose(strat.risky[m][moves], held, rtol=1e-13, atol=0,
                                               err_msg=where)

            moved, first = _unrepresentable(rng, strat.capital)
            with pytest.raises(NotRepresentable) as want_info:
                per_node_representation(moved, market)
            with pytest.raises(NotRepresentable) as got_info:
                martingale_representation(moved, market)
            assert (want_info.value.m, want_info.value.cell) == first, where
            assert (got_info.value.m, got_info.value.cell) == first, where
            assert got_info.value.residual == pytest.approx(want_info.value.residual, rel=1e-9)

    def test_flat_node_takes_no_position(self):
        # the price stays at 100 on the right node, so that node holds 0
        space = build_space(3, [[[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]])
        s = AdaptedProcess(
            space=space,
            per_time=(np.array([100.0]), np.array([120.0, 90.0]), np.array([120.0, 90.0, 90.0])),
        )
        market = MarketModel(S=s)
        still = AdaptedProcess(
            space=space, per_time=(np.array([5.0]), np.array([7.0, 4.0]), np.array([7.0, 4.0, 4.0]))
        )
        h = martingale_representation(still, market)
        assert h[1][1] == 0.0
        for got, want in zip(h, per_node_representation(still, market)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        moving = AdaptedProcess(
            space=space, per_time=(np.array([5.0]), np.array([7.0, 4.0]), np.array([7.0, 5.0, 3.0]))
        )
        with pytest.raises(NotRepresentable) as info:
            martingale_representation(moving, market)
        assert (info.value.m, info.value.cell, info.value.residual) == (2, 1, 1.0)


def _assert_matches_dense_dual(result, claim, gens, family, where):
    """The working-set price against one dense solve over every row: the
    same price, simplex weights, and a weighted combination that dominates
    the claim under every extreme."""
    cols, bound = generator_rows(claim, gens, family)
    want = dense_generator_price(claim, gens, family)
    assert result.fair_price == pytest.approx(want, rel=1e-12, abs=1e-12), where
    scale = 1e-9 * max(1.0, np.abs(bound).max(), np.abs(cols).max())
    if result.gamma is None:  # a zero price: the zero combination dominates
        assert bound.max() <= scale, where
        return
    assert np.all(result.gamma >= 0.0), where
    assert result.gamma.sum() == pytest.approx(1.0, abs=1e-12), where
    assert np.all(cols @ (result.fair_price * result.gamma) >= bound - scale), where


def _recipe_claims(market, seed):
    """Call, put, straddle, digital and seeded uniform claims on ``S_N``."""
    s = market.S.at_atoms(market.space.horizon)
    return {
        "call": np.maximum(s - 100.0, 0.0),
        "put": np.maximum(100.0 - s, 0.0),
        "straddle": np.abs(s - 100.0),
        "digital": (s > 105.0).astype(float),
        "uniform": np.random.default_rng(seed).uniform(0.0, 3.0, size=s.size),
    }


def _posed(monkeypatch):
    """A list that grows by every LP the pricing module poses."""
    lps = []
    monkeypatch.setattr(pricing, "solve", lambda lp: lps.append(lp) or solve(lp))
    return lps


class TestRowGeneration:
    """The generator price solved over a working set of rows against the
    dense dual over all ``k * M`` of them."""

    @pytest.mark.parametrize("b,depth,k", [(3, 4, 2), (3, 6, 2), (3, 8, 2), (5, 4, 3), (9, 4, 3)])
    def test_recipe_trees(self, monkeypatch, b, depth, k):
        family, market, _ = tree_market(b, depth, k, 0)
        gens = price_slice_generators(market)
        lps = _posed(monkeypatch)
        for name, claim in _recipe_claims(market, b * depth).items():
            result = fair_price_generators(claim, gens, family)
            _assert_matches_dense_dual(result, claim, gens, family, f"{b}^{depth} {name}")
        assert all(lp.a_ge.shape[1] == len(gens) for lp in lps)

    @pytest.mark.parametrize("b,depth,k,rounds", [(3, 4, 2, 2), (5, 4, 3, 3)])
    def test_digital_claims_take_several_rounds(self, monkeypatch, b, depth, k, rounds):
        family, market, _ = tree_market(b, depth, k, 0)
        claim = _recipe_claims(market, 0)["digital"]
        lps = _posed(monkeypatch)
        fair_price_generators(claim, price_slice_generators(market), family)
        shapes = [lp.a_ge.shape for lp in lps]
        assert len(shapes) == rounds
        # the first round poses the G rows of largest claim; later ones add rows
        assert shapes[0] == (market.space.horizon + 1,) * 2
        assert all(earlier[0] < later[0] for earlier, later in zip(shapes, shapes[1:]))

    def test_first_working_set_is_the_largest_claims(self, monkeypatch):
        # ties among the digital's ones go to the lower row
        family, market, _ = tree_market(3, 4, 2, 0)
        claim = _recipe_claims(market, 0)["digital"]
        lps = _posed(monkeypatch)
        gens = price_slice_generators(market)
        fair_price_generators(claim, gens, family)
        _, bound = generator_rows(claim, gens, family)
        first = np.sort(np.argsort(-bound, kind="stable")[: len(gens)])
        assert np.array_equal(lps[0].b_ge, bound[first])

    def test_every_row_in_the_working_set_is_the_dense_dual(self, monkeypatch, family_a,
                                                            market_a, call_a):
        # G = k * M: the one program posed is the whole primal, bit for bit,
        # and the kernel solves it through the dense dual
        gens = price_slice_generators(market_a) * 3
        lps = _posed(monkeypatch)
        fair_price_generators(call_a, gens, family_a)
        cols, bound = generator_rows(call_a, gens, family_a)
        assert len(lps) == 1
        assert np.array_equal(lps[0].objective, np.ones(len(gens)))
        assert np.array_equal(lps[0].b_ge, bound)
        assert np.array_equal(lps[0].a_ge, cols)


@pytest.fixture(scope="class")
def market_59049():
    return tree_market(3, 10, 2, 0)


class TestNorthStar:
    """The generator verbs at 59,049 atoms, where the dense dual took 40 s."""

    def test_hedge_poses_small_programs(self, monkeypatch, market_59049):
        family, market, claim = market_59049
        lps = _posed(monkeypatch)
        strat = superhedge_strategy(claim, market, family)
        scale = max(1.0, claim.max())
        assert strat.initial_capital() >= max(expect(p, claim) for p in family) - 1e-9 * scale
        assert np.all(strat.capital.at_atoms(strat.capital.horizon) >= claim - 1e-9 * scale)
        assert strat.self_financing_residual(market) <= 1e-9 * scale
        rows = len(family) * market.space.n_cells(market.space.horizon)
        shapes = [lp.a_ge.shape for lp in lps]
        assert shapes and all(g == market.space.horizon + 1 for _, g in shapes)
        assert all(work < 0.01 * rows for work, _ in shapes)

    def test_price_matches_highs(self, market_59049):
        linprog = pytest.importorskip("scipy.optimize").linprog
        family, market, claim = market_59049
        gens = price_slice_generators(market)
        cols, bound = generator_rows(claim, gens, family)
        highs = linprog(np.ones(len(gens)), A_ub=-cols, b_ub=-bound, method="highs")
        assert highs.status == 0
        got = fair_price_generators(claim, gens, family).fair_price
        assert got == pytest.approx(highs.fun, rel=1e-12)


class TestSmallFormAgainstFullForm:
    """The shifted free LP and the dual generator LP against the programs
    written out in full (every extreme, every terminal cell) and posed
    straight to the kernel."""

    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        coarse = 0
        for _ in range(200):
            space = random_space(rng, max_atoms=10, max_periods=3)
            family = random_family(rng, space)
            claim = _terminal_claim(rng, space)
            n, k = space.n_atoms, len(family)
            coarse += any(len(c) > 1 for c in space.cells(space.horizon))
            dom = _full_form_rows(space, family)
            bound = np.tile(space.restrict(space.horizon, claim), k)

            probs = np.vstack([p.probs for p in family])
            c = np.zeros(n + 1)
            c[-1] = 1.0
            full = solve(LinearProgram(
                c, a_eq=np.hstack([probs, -np.ones((k, 1))]), b_eq=np.zeros(k),
                a_ge=np.hstack([dom, np.zeros((dom.shape[0], 1))]), b_ge=bound,
            ))
            free = fair_price_a0(claim, family)
            assert full.status == "optimal"
            assert free.fair_price == pytest.approx(full.value, abs=1e-9)

            gens = [np.ones(n)] + [
                find_a0_element(family, objective=rng.normal(size=n)).xi for _ in range(2)
            ]
            cols = np.column_stack([dom @ g for g in gens])
            full = solve(LinearProgram(np.ones(len(gens)), a_ge=cols, b_ge=bound))
            result = fair_price_generators(claim, gens, family)
            assert full.status == "optimal"
            assert result.fair_price == pytest.approx(full.value, abs=1e-9)
            _assert_matches_dense_dual(result, claim, gens, family, "small form")
            assert result.fair_price >= free.fair_price - 1e-9  # the simplex is a subset
            assert result.lower_bound == free.lower_bound
            if result.fair_price > 1e-9:
                assert np.all(result.gamma >= 0.0)
                mix = result.fair_price * sum(w * g for w, g in zip(result.gamma, gens))
                assert np.all(dom @ mix >= bound - 1e-9)
        assert coarse >= 20  # terminal cells of several atoms were exercised


class TestEmmAgainstGlobalFloor:
    """The node-wise measure against the dense floor LP over every atom."""

    @pytest.mark.parametrize("depth", [6, 7, 8])
    def test_binary_markets_agree(self, depth):
        # one extreme on a binary tree: each node's martingale law is unique
        _, market, _ = tree_market(2, depth, 1, 1)
        got = find_emm(market)
        want, _ = global_floor_emm(market)
        assert got.measure is not None and want is not None
        np.testing.assert_allclose(got.measure.probs, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("depth", [3, 4])
    def test_both_find_a_measure_on_ternary_trees(self, depth):
        _, market, _ = tree_market(3, depth, 2, 0)
        got = find_emm(market)
        want, want_floor = global_floor_emm(market)
        assert got.measure is not None and want is not None
        # any measure's smallest atom lies under some node's smallest child
        assert want_floor <= got.min_slack
        assert verify_emm(got.measure, market).passed
        assert verify_emm(Measure(want), market).passed

    def test_floor_lp_trades_mass_between_children_sharing_a_floor(self):
        # the root's children A and B both move up by 1 and share the floor
        # 1/4; A's own up child has floor 0.01 / 1.01.  The node laws give A
        # and B 1/4 each, the floor LP shifts mass from B to A, so its
        # smallest atom is larger, yet never above the smallest node floor.
        space = build_space(4, [[[0, 1, 2, 3]], [[0, 1], [2], [3]], [[0], [1], [2], [3]]])
        s = AdaptedProcess(
            space=space,
            per_time=(
                np.array([100.0]),
                np.array([101.0, 101.0, 99.0]),
                np.array([102.0, 100.99, 101.0, 99.0]),
            ),
        )
        market = MarketModel(S=s)
        got = find_emm(market)
        want, want_floor = global_floor_emm(market)
        assert got.min_slack == pytest.approx(0.01 / 1.01, rel=1e-12)
        assert got.measure.probs.min() == pytest.approx(0.25 * 0.01 / 1.01, rel=1e-12)
        assert got.measure.probs.min() < want_floor <= got.min_slack
        assert verify_emm(got.measure, market).passed
        assert verify_emm(Measure(want), market).passed

    def test_both_find_none_without_a_measure(self, fixture_paths):
        space = build_space(2, [[[0, 1]], [[0], [1]]])
        rising = AdaptedProcess(
            space=space, per_time=(np.array([100.0]), np.array([110.0, 120.0]))
        )
        arbitrage = load_scenario(fixture_paths["arbitrage"]).processes["S"]
        for s in (rising, arbitrage):
            market = MarketModel(S=s)
            assert find_emm(market).measure is None
            assert global_floor_emm(market)[0] is None


class TestTreeRegressions:
    """Trees past desk scale, where the full-form programs went wrong."""

    def test_prices_and_hedge_at_243_atoms(self):
        family, market, claim = tree_market(3, 5, 2, 0)
        lower = max(expect(p, claim) for p in family)
        free = fair_price_a0(claim, family)
        gen = fair_price_generators(claim, price_slice_generators(market), family)
        for result in (free, gen):
            assert result.fair_price >= lower - 1e-9
            assert np.all(result.dominator >= claim - 1e-9)
        assert gen.fair_price >= free.fair_price - 1e-9
        strat = superhedge_strategy(claim, market, family)
        assert strat.initial_capital() == pytest.approx(gen.fair_price, abs=0)
        assert np.all(strat.capital.at_atoms(strat.capital.horizon) >= claim - 1e-9)

    @pytest.mark.parametrize("b,depth,k", [(3, 3, 2), (3, 4, 2), (3, 5, 2), (3, 6, 2), (9, 3, 3)])
    def test_generator_price_dominates_the_free_price(self, b, depth, k):
        family, market, claim = tree_market(b, depth, k, 0)
        free = fair_price_a0(claim, family)
        gen = fair_price_generators(claim, price_slice_generators(market), family)
        assert gen.fair_price >= free.fair_price - 1e-9
        assert gen.lower_bound == free.lower_bound

    def test_prices_at_243_atoms_match_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        family, market, claim = tree_market(3, 5, 2, 0)
        space = family.space
        n, k = space.n_atoms, len(family)
        dom = _full_form_rows(space, family)
        bound = np.tile(claim, k)
        probs = np.vstack([p.probs for p in family])
        c = np.zeros(n + 1)
        c[-1] = 1.0
        highs = linprog(
            c, A_ub=-np.hstack([dom, np.zeros((dom.shape[0], 1))]), b_ub=-bound,
            A_eq=np.hstack([probs, -np.ones((k, 1))]), b_eq=np.zeros(k), method="highs",
        )
        assert highs.status == 0
        assert fair_price_a0(claim, family).fair_price == pytest.approx(highs.fun, rel=1e-7)
        gens = price_slice_generators(market)
        cols = np.column_stack([dom @ g.xi for g in gens])
        highs = linprog(np.ones(len(gens)), A_ub=-cols, b_ub=-bound, method="highs")
        assert highs.status == 0
        got = fair_price_generators(claim, gens, family).fair_price
        assert got == pytest.approx(highs.fun, rel=1e-7)

    def test_full_form_free_lp_at_243_atoms_matches_highs(self):
        # every extreme and atom as rows, (h, t) as variables: the dense
        # two-phase tableau came back 2.50176 here, with primal residual 1.26
        linprog = pytest.importorskip("scipy.optimize").linprog
        family, _, claim = tree_market(3, 5, 2, 0)
        space = family.space
        n, k = space.n_atoms, len(family)
        dom = np.hstack([_full_form_rows(space, family), np.zeros((k * n, 1))])
        bound = np.tile(claim, k)
        a_eq = np.hstack([np.vstack([p.probs for p in family]), -np.ones((k, 1))])
        c = np.zeros(n + 1)
        c[-1] = 1.0
        highs = linprog(c, A_ub=-dom, b_ub=-bound, A_eq=a_eq, b_eq=np.zeros(k), method="highs")
        assert highs.status == 0
        out = solve(LinearProgram(c, a_eq=a_eq, b_eq=np.zeros(k), a_ge=dom, b_ge=bound))
        assert out.status == "optimal"
        assert out.value == pytest.approx(highs.fun, rel=1e-9)
        assert out.primal_residual <= 1e-9 and out.comp_slackness <= 1e-9

    @pytest.mark.parametrize("verb", ["price", "hedge"])
    def test_generator_verbs_stay_small_at_2187_atoms(self, verb):
        # the dense (k * M, n) rows took a 74.6 MiB peak here
        family, market, claim = tree_market(3, 7, 2, 0)
        gens = price_slice_generators(market)
        tracemalloc.start()
        try:
            if verb == "price":
                fair_price_generators(claim, gens, family)
            else:
                superhedge_strategy(claim, market, family)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_decompose_and_verify_at_729_atoms(self):
        family, f, _, _ = tree_draw(3, 6, 2, 0)
        dec = optional_decompose(f, family, strategy="lp")
        report = verify_decomposition(f, dec, family)
        assert report.ok, [c for c in report.checks if not c.passed]

    @pytest.mark.parametrize(
        "b,depth,k,seed",
        [(3, 3, 2, s) for s in range(11)]
        + [(3, 4, 2, 0), (3, 6, 2, 0), (3, 8, 2, 0), (9, 4, 3, 0)],
        ids=[f"27-atoms-seed{s}" for s in range(11)]
        + ["81-atoms-seed0", "729-atoms-seed0", "6561-atoms-seed0", "6561-atoms-k3-seed0"],
    )
    def test_find_emm_on_two_extreme_trees(self, b, depth, k, seed):
        _, market, _ = tree_market(b, depth, k, seed)
        result = find_emm(market)
        assert result.measure is not None
        assert result.measure.probs.min() > 0.0
        assert verify_emm(result.measure, market).max_residual <= 1e-9
