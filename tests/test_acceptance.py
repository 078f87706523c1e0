"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output section) and then asserts, so a red
criterion still reports its measured numbers.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from doobkit import (
    AdaptedProcess,
    AuditInstance,
    MarketModel,
    audit,
    build_space,
    closed_form_call,
    closed_form_put,
    cond_exp_cells,
    fair_price_a0,
    fair_price_generators,
    find_emm,
    optional_decompose,
    price_slice_generators,
    superhedge_strategy,
    verify_decomposition,
    verify_emm,
)
from doobkit.generators import random_family, random_space, random_supermartingale
from doobkit.lp import LinearProgram, solve
from doobkit.pricing import martingale_representation
from doobkit.space import ess_sup_cond_exp_cells

from .oracles import dual_mixture_price, enumerate_lp_value, expect, mixture
from .test_lp import _random_lp


def report(criterion: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


@pytest.fixture()
def gens_a(market_a):
    return price_slice_generators(market_a)


def test_criterion_1_closed_form_call(family_a, market_a, call_a, gens_a):
    start = time.perf_counter()
    closed = closed_form_call(100, 90, 120)
    lp_price = fair_price_generators(call_a, gens_a, family_a).fair_price
    elapsed = time.perf_counter() - start
    ok = closed == 25.0 and abs(lp_price - 25.0) <= 1e-9 and elapsed < 1.0
    report(1, ok, f"call: closed form {closed}, generator LP {lp_price:.12g}, {elapsed:.3f}s")


def test_criterion_2_closed_form_put(family_a, market_a, put_a, gens_a):
    closed = closed_form_put(80, 70)
    lp_price = fair_price_generators(put_a, gens_a, family_a).fair_price
    ok = closed == 10.0 and abs(lp_price - 10.0) <= 1e-9
    report(2, ok, f"put: closed form {closed}, generator LP {lp_price:.12g}")


def test_criterion_3_free_mode_call(family_a, call_a):
    result = fair_price_a0(call_a, family_a)
    oracle = dual_mixture_price([0.3, 0.5, 0.2], [0.57, 0.05, 0.38], call_a)
    # second independent oracle: vertex enumeration of the primal program
    probs = np.vstack([p.probs for p in family_a])
    a_eq = np.hstack([probs, -np.ones((2, 1))])
    a_ge = np.hstack([np.tile(np.eye(3), (2, 1)), np.zeros((6, 1))])
    c = np.zeros(4)
    c[-1] = 1.0
    vertex = enumerate_lp_value(c, a_eq, np.zeros(2), a_ge, np.tile(call_a, 2))
    lower = max(expect(p, call_a) for p in family_a)
    chain = abs(lower - 17.6) <= 1e-9 and lower <= result.fair_price <= 25.0 + 1e-9
    ok = (
        abs(result.fair_price - 18.0) <= 1e-6
        and abs(result.fair_price - oracle) <= 1e-6
        and abs(vertex - 18.0) <= 1e-8
        and chain
    )
    report(
        3,
        ok,
        f"free-mode call {result.fair_price:.12g}, mixture oracle {oracle:.12g}, "
        f"vertex oracle {vertex:.12g}, chain {lower:.4g} <= {result.fair_price:.4g} <= 25",
    )


def test_criterion_4_decomposition_round_trip():
    start = time.perf_counter()
    worst = 0.0
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        space = random_space(rng, max_atoms=8, max_periods=3)
        family = random_family(rng, space, max_extremes=3)
        f, _, _ = random_supermartingale(rng, space, family)
        try:
            dec = optional_decompose(f, family, strategy="lp")
        except Exception:
            failures += 1
            continue
        rep = verify_decomposition(f, dec, family)
        worst = max(worst, max(c.max_violation for c in rep.checks))
        if not rep.ok:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and worst <= 1e-9 and elapsed < 30.0
    report(
        4,
        ok,
        f"100 instances, {failures} failures, worst violation {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_5_claims_audit(family_b, xi_b):
    instance = AuditInstance(family=family_b, xi=xi_b)
    tmars5 = audit("lemma-tmars5", instance)
    fmars5 = audit("thm-fmars5", instance)
    singleton_fails = 0
    rng = np.random.default_rng(555)
    for _ in range(200):
        space = random_space(rng)
        family = random_family(rng, space, max_extremes=1)
        xi = rng.uniform(0.0, 2.0, size=space.n_atoms)
        if audit("lemma-q5", AuditInstance(family=family, xi=xi)).verdict != "pass":
            singleton_fails += 1
    ok = (
        tmars5.verdict == "counterexample"
        and abs(tmars5.violation - 0.06) <= 1e-10
        and fmars5.verdict == "counterexample"
        and abs(fmars5.violation - 0.12) <= 1e-10
        and singleton_fails == 0
    )
    report(
        5,
        ok,
        f"tmars5 {tmars5.verdict} {tmars5.violation:.12g}, "
        f"fmars5 {fmars5.verdict} {fmars5.violation:.12g}, "
        f"singleton q5 failures {singleton_fails}/200",
    )


def test_criterion_6_envelope_dominates_mixtures():
    worst_slack = 0.0
    worst_attain = 0.0
    rng = np.random.default_rng(66)
    for _ in range(100):
        space = random_space(rng)
        family = random_family(rng, space)
        xi = rng.uniform(0.0, 3.0, size=space.n_atoms)
        m = int(rng.integers(0, space.horizon + 1))
        env = ess_sup_cond_exp_cells(space, xi, family, m)
        per_extreme = np.vstack([cond_exp_cells(space, xi, p, m) for p in family])
        worst_attain = max(worst_attain, float(np.abs(per_extreme.max(axis=0) - env).max()))
        for _ in range(50):
            q = mixture(family, rng.dirichlet(np.ones(len(family))))
            gap = cond_exp_cells(space, xi, q, m) - env
            worst_slack = max(worst_slack, float(gap.max()))
    ok = worst_slack <= 1e-12 and worst_attain <= 1e-12
    report(
        6,
        ok,
        f"mixture excess over envelope {worst_slack:.3e}, attainment gap {worst_attain:.3e}",
    )


def test_criterion_7_superhedge_soundness(family_a, market_a, call_a):
    strat = superhedge_strategy(call_a, market_a, family_a)
    x0 = strat.initial_capital()
    x1 = strat.capital.at_cells(1)
    selffin = strat.self_financing_residual(market_a)
    h = martingale_representation(strat.capital, market_a)
    recon = strat.capital.at_atoms(0).copy()
    worst_recon = 0.0
    for m in range(1, market_a.space.horizon + 1):
        parents = market_a.space.atom_to_cell(m - 1)
        ds = market_a.S.at_atoms(m) - market_a.S.at_atoms(m - 1)
        recon = recon + h[m - 1][parents] * ds
        worst_recon = max(worst_recon, float(np.abs(recon - strat.capital.at_atoms(m)).max()))
    ok = (
        x0 == 25.0
        and selffin <= 1e-12
        and np.allclose(x1, [30.0, 25.0, 17.5], atol=1e-9)
        and np.all(strat.capital.at_atoms(1) >= call_a - 1e-9)
        and worst_recon <= 1e-10
    )
    report(
        7,
        ok,
        f"X0 {x0}, X1 {[float(v) for v in x1]}, self-financing {selffin:.3e}, "
        f"representation residual {worst_recon:.3e}",
    )


def test_criterion_8_emm_search(market_a):
    found = find_emm(market_a)
    residual = (
        verify_emm(found.measure, market_a).max_residual if found.measure else np.inf
    )
    space = build_space(2, [[[0, 1]], [[0], [1]]])
    rising = MarketModel(
        S=AdaptedProcess(space=space, per_time=(np.array([100.0]), np.array([110.0, 120.0])))
    )
    none_found = find_emm(rising)
    ok = (
        found.measure is not None
        and float(found.measure.probs.min()) > 0.0
        and residual <= 1e-12
        and none_found.measure is None
    )
    report(
        8,
        ok,
        f"fixture-a emm min prob {0.0 if found.measure is None else found.measure.probs.min():.4g} "
        f"residual {residual:.3e}; arbitrage fixture emm found: {none_found.measure is not None}",
    )


def test_criterion_9_lp_kernel(family_a, call_a, put_a):
    mismatches = 0
    for seed in range(200):
        lp = _random_lp(np.random.default_rng(seed))
        out = solve(lp)
        oracle = enumerate_lp_value(lp.objective, lp.a_eq, lp.b_eq, lp.a_ge, lp.b_ge)
        if oracle is None:
            if out.status != "infeasible":
                mismatches += 1
        elif out.status != "optimal" or abs(out.value - oracle) > 1e-8:
            mismatches += 1

    # the fixture-a pricing programs, posed directly to the kernel
    n, k = 3, 2
    probs = np.vstack([p.probs for p in family_a])
    a_eq = np.hstack([probs, -np.ones((k, 1))])
    a_ge = np.hstack([np.tile(np.eye(n), (k, 1)), np.zeros((2 * n, 1))])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    free_out = solve(
        LinearProgram(c, a_eq=a_eq, b_eq=np.zeros(k), a_ge=a_ge, b_ge=np.tile(call_a, k))
    )
    slices = np.vstack([np.ones(3), np.array([1.2, 1.0, 0.7])])
    cols = np.vstack([slices.T, slices.T])
    gen_out = solve(LinearProgram(np.ones(2), a_ge=cols, b_ge=np.tile(call_a, 2)))
    pricing_ok = (
        free_out.status == "optimal"
        and abs(free_out.value - 18.0) <= 1e-8
        and abs(free_out.duality_gap) <= 1e-7
        and gen_out.status == "optimal"
        and abs(gen_out.value - 25.0) <= 1e-8
        and abs(gen_out.duality_gap) <= 1e-7
    )
    ok = mismatches == 0 and pricing_ok
    report(
        9,
        ok,
        f"oracle mismatches {mismatches}/200; fixture-a LPs value "
        f"({free_out.value:.10g}, {gen_out.value:.10g}) gaps "
        f"({free_out.duality_gap:.2e}, {gen_out.duality_gap:.2e})",
    )
