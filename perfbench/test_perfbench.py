"""Self-tests of the benchmark: the instance builder, the answer checks and
the span arithmetic.  Run with ``python3 -m pytest perfbench``."""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import doobkit as dk
from doobkit import lp, pricing, regularity, space

import checks
import speed
import tracing
import workloads
from instances import SMALL_SHAPES, fixture_market, small_market, tree_instance, tree_space

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def market_a():
    return fixture_market(FIXTURES / "fixture-a.json", "call90")


class TestBuilder:
    @pytest.mark.parametrize("b,depth", [(2, 3), (3, 4), (9, 2)])
    def test_atoms_and_atom_fine_terminal_partition(self, b, depth):
        sp = tree_space(b, depth)
        assert sp.n_atoms == b**depth
        assert sp.n_cells(depth) == b**depth
        assert all(len(cell) == 1 for cell in sp.cells(depth))
        assert [sp.n_cells(m) for m in range(depth + 1)] == [b**m for m in range(depth + 1)]

    def test_needs_more_branches_than_extremes(self):
        with pytest.raises(ValueError, match="b > k"):
            tree_instance(3, 2, 3, 0)

    def test_same_seed_same_instance(self):
        a, b = tree_instance(3, 3, 2, 5), tree_instance(3, 3, 2, 5)
        assert all(np.array_equal(p, q) for p, q in zip(a.probs, b.probs))
        assert np.array_equal(a.claim, b.claim)

    def test_tiny_instances_follow_the_shape_schedule(self):
        rng = np.random.default_rng(3)
        for i in (0, 17, 62, 63):
            inst = small_market(rng, i)
            assert (inst.space.n_atoms, inst.space.horizon, len(inst.probs)) == \
                SMALL_SHAPES[i % len(SMALL_SHAPES)]

    def test_known_failures_stay_out_of_the_timed_workload(self):
        known = workloads.known_failure_ops()
        assert {op.verb for op in known} == {"price_a0_s", "price_gen_s", "hedge_s", "emm_s"}
        assert not any(op.timed for op in known)
        assert all("seed=0" in op.instance for op in known)

    def test_own_cells_match_the_space(self):
        inst = tree_instance(3, 4, 2, 1)
        for m in range(5):
            assert np.array_equal(inst.cells.maps[m], inst.space.atom_to_cell(m))
            x = np.arange(inst.space.n_atoms, dtype=float)
            assert np.allclose(inst.cells.cond(x, inst.probs[1], m),
                               space.cond_exp_cells(inst.space, x, inst.family.extremes[1], m),
                               rtol=1e-14, atol=1e-12)

    @pytest.mark.skipif(not checks.HAVE_HIGHS, reason="scipy not importable")
    def test_recipe_reproduces_the_243_atom_instance(self):
        inst = tree_instance(3, 5, 2, 0)
        assert max(p @ inst.claim for p in inst.probs) == pytest.approx(2.51343, abs=1e-5)
        assert checks.highs_price_a0(inst.cells, inst.probs, inst.claim) == pytest.approx(
            2.51536, abs=1e-5)


class TestChecksRejectPerturbedAnswers:
    @pytest.mark.skipif(not checks.HAVE_HIGHS, reason="scipy not importable")
    def test_price_moved_by_a_millionth(self, market_a):
        res = pricing.fair_price_a0(market_a.claim, market_a.family)
        oracle = checks.highs_price_a0(market_a.cells, market_a.probs, market_a.claim)
        assert checks.check_price_a0(res, market_a.cells, market_a.probs, market_a.claim,
                                     oracle) is None
        moved = replace(res, fair_price=res.fair_price * (1 + 1e-6))
        assert "HiGHS" in checks.check_optimal(moved.fair_price, oracle)

    def test_dominator_lowered_on_one_atom(self, market_a):
        res = pricing.fair_price_a0(market_a.claim, market_a.family)
        dom = np.array(res.dominator)
        dom[int(np.argmax(market_a.claim))] -= 1e-3
        msg = checks.check_price_a0(replace(res, dominator=dom), market_a.cells,
                                    market_a.probs, market_a.claim, None)
        assert "below the claim" in msg

    def test_hedge_with_shifted_capital(self, market_a):
        strategy = pricing.superhedge_strategy(market_a.claim, market_a.market, market_a.family)
        s_levels = [market_a.market.S.at_cells(m) for m in range(2)]
        assert checks.check_hedge(strategy, market_a.cells, s_levels, market_a.claim, 25.0) is None
        cap = strategy.capital
        shifted = dk.AdaptedProcess(space=cap.space,
                                    per_time=tuple(cap.at_cells(m) + 0.01 for m in range(2)))
        msg = checks.check_hedge(replace(strategy, capital=shifted), market_a.cells, s_levels,
                                 market_a.claim, 25.0)
        assert msg is not None and "initial capital" in msg

    def test_decomposition_with_drifting_martingale(self):
        inst = tree_instance(3, 3, 2, 2)
        dec = regularity.optional_decompose(inst.f, inst.family, strategy="lp")
        lv = lambda proc: [proc.at_cells(m) for m in range(4)]  # noqa: E731
        mart, comp = lv(dec.martingale), lv(dec.compensator)
        assert checks.check_decomposition(inst.cells, lv(inst.f), mart, comp, inst.probs) is None
        mart[2] = mart[2] + np.where(np.arange(9) == 4, 1e-3, 0.0)
        comp[2] = comp[2] + np.where(np.arange(9) == 4, 1e-3, 0.0)
        msg = checks.check_decomposition(inst.cells, lv(inst.f), mart, comp, inst.probs)
        assert msg is not None and "drift" in msg

    def test_emm_that_is_not_a_martingale_measure(self, market_a):
        s_levels = [market_a.market.S.at_cells(m) for m in range(2)]
        good = pricing.find_emm(market_a.market)
        assert checks.check_emm(good, market_a.cells, s_levels) is None
        bad = replace(good, measure=dk.Measure(np.array([0.5, 0.3, 0.2])))
        assert "drifts" in checks.check_emm(bad, market_a.cells, s_levels)
        missing = replace(good, measure=None)
        assert "one exists" in checks.check_emm(missing, market_a.cells, s_levels)


class TestSpans:
    def test_self_time_of_nested_spans(self):
        spans = [
            (0, "a", 0.0, 10.0, None, "op"),
            (1, "b", 1.0, 4.0, 0, "op"),
            (2, "d", 2.0, 3.0, 1, "op"),
            (3, "c", 5.0, 6.0, 0, "op"),
            (4, "e", 9.5, 12.0, 0, "op"),  # runs past its parent: only 0.5 s counts
        ]
        assert tracing.self_times(spans) == pytest.approx({0: 5.5, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.5})

    def test_layer_metrics_from_a_fake_clock(self):
        ticks = iter([0.0, 1.0, 3.0, 10.0])
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        inner = tracer.wrap("m.inner", lambda: None)
        outer = tracer.wrap("m.outer", lambda: inner())
        outer()
        got = tracer.layer_metrics()
        assert got["m.outer.calls"] == 1 and got["m.inner.calls"] == 1
        assert got["m.outer.self_s"] == pytest.approx(8.0)
        assert got["m.inner.p50_ms"] == pytest.approx(2000.0)

    def test_install_covers_copies_and_uninstall_restores(self):
        originals = (lp.solve, pricing.solve, regularity.solve,
                     regularity.cond_exp_cells, space.FilteredSpace.__dict__["expand"])
        tracer = tracing.Tracer()
        tracer.install({s: getattr(dk, s) for s in tracing.TRACED})
        try:
            assert pricing.solve is lp.solve is regularity.solve
            assert lp.solve is not originals[0]
            assert regularity.cond_exp_cells is space.cond_exp_cells
            inst = tree_instance(3, 2, 2, 0)
            regularity.optional_decompose(inst.f, inst.family, strategy="lp")
        finally:
            tracer.uninstall()
        names = {s[1] for s in tracer.spans}
        assert {"regularity.optional_decompose", "regularity.xi0_step_lp", "lp.solve",
                "space.cond_exp_cells", "space.parent_cell"} <= names
        assert (lp.solve, pricing.solve, regularity.solve, regularity.cond_exp_cells,
                space.FilteredSpace.__dict__["expand"]) == originals
        assert tracer.counters["lp.solve.tableau_cells"] > 0


class TestSpeedLog:
    def test_probes_inside_a_long_call_and_leaves_them_out(self, monkeypatch):
        monkeypatch.setattr(speed, "kernel", lambda: time.sleep(0.02))
        log = speed.SpeedLog()

        def busy():
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
            return "done"

        box = {}
        span = log.measure(lambda: box.setdefault("result", log.run(busy)))
        assert box["result"] == "done"
        # ticks every SEGMENT_S inside the call, plus the probes around it
        assert len(log.probes) >= 5
        assert span[1] - span[0] >= 3
        scaled, raw = log.seconds(span)
        # the call's own clock runs on through the probes inside it
        assert raw + sum(log.probes[1:-1]) == pytest.approx(0.35, abs=0.01)
        assert scaled == pytest.approx(raw * speed.REF_S / 0.02, rel=0.2)

    def test_segments_of_short_calls_add_up(self):
        log = speed.SpeedLog()
        span = log.measure(lambda: [log.add(0.03) for _ in range(10)])
        assert log.seconds(span)[1] == pytest.approx(0.3)
        assert span[1] - span[0] == 3
