"""Audits of the envelope identities: known counterexamples and search."""

import numpy as np
import pytest

from doobkit import (
    AdaptedProcess,
    AuditInstance,
    ClaimPreconditionUnmet,
    MeasureFamily,
    audit,
    classify,
    cond_exp_cells,
    parse_scenario,
    search_counterexample,
)
from doobkit import claims
from doobkit.claims import CLAIM_IDS, envelope_process
from doobkit.generators import random_family, random_space
from doobkit.space import DEFAULT_TOL

from .oracles import audit_based_search, expect


@pytest.fixture()
def instance_b(family_b, xi_b):
    return AuditInstance(family=family_b, xi=xi_b)


class TestFixtureBCounterexamples:
    def test_tmars5(self, instance_b):
        result = audit("lemma-tmars5", instance_b)
        assert result.verdict == "counterexample"
        assert result.violation == pytest.approx(0.06, abs=1e-10)

    def test_fmars5(self, instance_b):
        result = audit("thm-fmars5", instance_b)
        assert result.verdict == "counterexample"
        assert result.violation == pytest.approx(0.12, abs=1e-10)

    def test_q5_and_lkq4(self, instance_b):
        for claim in ("lemma-q5", "lemma-lkq4"):
            result = audit(claim, instance_b)
            assert result.verdict == "counterexample"
            assert result.violation == pytest.approx(0.06, abs=1e-10)

    def test_1q5(self, instance_b):
        result = audit("lemma-1q5", instance_b)
        assert result.verdict == "counterexample"
        assert result.violation == pytest.approx(0.12, abs=1e-10)

    def test_mars12(self, instance_b):
        result = audit("thm-mars12", instance_b)
        assert result.verdict == "counterexample"
        assert "no certificate" in result.detail

    def test_mmars1_with_constant_process(self, family_b, xi_b, space_b):
        flat = AdaptedProcess(
            space=space_b,
            per_time=(np.array([1.0]), np.ones(2), np.ones(4)),
        )
        result = audit("thm-mmars1", AuditInstance(family=family_b, xi=xi_b, f=flat))
        assert result.verdict == "counterexample"
        assert result.violation == pytest.approx(0.12, abs=1e-10)


class TestPreconditions:
    def test_fmars5_needs_a0(self, family_b):
        bad = AuditInstance(family=family_b, xi=np.array([2.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ClaimPreconditionUnmet):
            audit("thm-fmars5", bad)

    def test_1q5_needs_equal_expectations(self, family_b):
        bad = AuditInstance(family=family_b, xi=np.array([1.0, 0.2, 0.4, 2.0]))
        with pytest.raises(ClaimPreconditionUnmet):
            audit("lemma-1q5", bad)

    def test_mmars1_needs_non_increasing(self, family_b, xi_b, space_b):
        rising = AdaptedProcess(
            space=space_b, per_time=(np.array([1.0]), np.full(2, 2.0), np.full(4, 3.0))
        )
        with pytest.raises(ClaimPreconditionUnmet):
            audit("thm-mmars1", AuditInstance(family=family_b, xi=xi_b, f=rising))

    def test_unknown_claim(self, instance_b):
        with pytest.raises(ValueError, match="unknown claim"):
            audit("lemma-q99", instance_b)


class TestPastingStableFamiliesPass:
    def test_envelope_claims_hold_on_product_families(self):
        # families assembled from independent per-node conditional choices
        # are stable under pasting, and there the envelope identities hold
        from doobkit.generators import product_family

        for seed in range(30):
            rng = np.random.default_rng(seed)
            space = random_space(rng)
            fam = product_family(rng, space)
            xi = rng.uniform(0.0, 2.0, size=space.n_atoms)
            inst = AuditInstance(family=fam, xi=xi)
            for claim in ("lemma-q5", "lemma-lkq4", "lemma-tmars5"):
                result = audit(claim, inst)
                assert result.verdict == "pass", (seed, claim, result.violation)

    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_search_draws_pass_on_product_families(self, claim, monkeypatch):
        # the search's own draws with pasting-stable families in place of its
        # random ones; a density vertex that kept its round-off dust would
        # fake thm-mars12 counterexamples here
        from doobkit.generators import product_family

        monkeypatch.setattr(claims, "random_family", product_family)
        evaluated = 0
        for seed in range(60):
            inst = claims._sample_instance(claim, np.random.default_rng(seed), 8, 3, 8)
            if inst is None or len(inst.family) == 1:  # one measure: a theorem
                continue
            result = audit(claim, inst)
            assert result.verdict == "pass", (seed, result.violation, result.detail)
            evaluated += 1
        assert evaluated >= 50


class TestSingletonFamiliesPass:
    def test_q5_reduces_to_tower(self, space_b, family_b):
        fam = MeasureFamily(space=space_b, extremes=(family_b.extremes[1],))
        inst = AuditInstance(family=fam, xi=np.array([1.0, 3.0, 2.0, 6.0]))
        assert audit("lemma-q5", inst).verdict == "pass"

    def test_all_claims_pass_on_singletons(self, space_b, family_b):
        fam = MeasureFamily(space=space_b, extremes=(family_b.extremes[1],))
        xi = np.array([0.5, 1.5, 2.0, 0.4])
        xi_a0 = xi / expect(fam.extremes[0], xi)
        flat = AdaptedProcess(
            space=space_b, per_time=(np.array([2.0]), np.full(2, 1.5), np.full(4, 1.0))
        )
        for claim in CLAIM_IDS:
            inst = AuditInstance(family=fam, xi=xi_a0, f=flat)
            assert audit(claim, inst).verdict == "pass", claim


class TestOneMeasureInstancesHold:
    """Every audited identity is a theorem for one measure, which is why the
    search skips one-measure draws and shrink candidates unevaluated."""

    @staticmethod
    def _one_measure_instances(claim):
        # 200 one-measure draws, then every single-extreme family that
        # repeated extreme drops leave of 100 draws of up to three extremes
        rng = np.random.default_rng(23)
        drawn = 0
        while drawn < 200:
            instance = claims._sample_instance(claim, rng, 8, 3, 1)
            if instance is not None:
                drawn += 1
                yield instance
        for _ in range(100):
            instance = claims._sample_instance(claim, rng, 8, 3, 3)
            if instance is None or len(instance.family) == 1:
                continue
            k = len(instance.family)
            for keep in range(k):
                one = instance
                for idx in reversed(range(k)):
                    if idx != keep:
                        one = claims._drop_extreme(one, idx)
                assert len(one.family) == 1
                yield one

    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_no_one_measure_violation(self, claim):
        evaluate = claims._EVALUATORS[claim]
        evaluated = 0
        for instance in self._one_measure_instances(claim):
            try:
                violation, detail = evaluate(instance)
            except ClaimPreconditionUnmet:
                continue
            evaluated += 1
            assert violation <= DEFAULT_TOL, (claim, violation, detail)
        assert evaluated >= 200


class TestWitnessReplay:
    def test_fixture_b_witness_replays(self, instance_b, space_b):
        result = audit("lemma-tmars5", instance_b)
        scenario = parse_scenario(result.witness)
        family = scenario.family()
        xi = scenario.claims["xi"].atoms(scenario.space)
        env = envelope_process(family, xi)
        verdict = classify(env, family, tol=0.0)
        assert verdict.worst_violation[3] == pytest.approx(result.violation, abs=1e-10)

    def test_searched_witness_replays(self):
        result = search_counterexample("lemma-tmars5", budget=500, seed=7)
        assert result.verdict == "counterexample"
        scenario = parse_scenario(result.witness)
        family = scenario.family()
        if "xi" in scenario.claims:
            xi = scenario.claims["xi"].atoms(scenario.space)
        else:
            xi = np.asarray(result.witness["xi_atoms"], dtype=float)
        env = envelope_process(family, xi)
        verdict = classify(env, family, tol=0.0)
        assert verdict.worst_violation[3] == pytest.approx(result.violation, abs=1e-10)

    def test_fmars5_witness_replays(self):
        result = search_counterexample("thm-fmars5", budget=500, seed=11)
        assert result.verdict == "counterexample"
        scenario = parse_scenario(result.witness)
        family = scenario.family()
        if "xi" in scenario.claims:
            xi = scenario.claims["xi"].atoms(scenario.space)
        else:
            xi = np.asarray(result.witness["xi_atoms"], dtype=float)
        space = scenario.space
        worst = 0.0
        for m in range(space.horizon + 1):
            conds = [cond_exp_cells(space, xi, p, m) for p in family]
            for i in range(len(conds)):
                for j in range(i + 1, len(conds)):
                    worst = max(worst, float(np.abs(conds[i] - conds[j]).max()))
            for b, base in enumerate(family):
                if m == 0:
                    continue
                proc = space.expand(m, cond_exp_cells(space, xi, base, m))
                prev = cond_exp_cells(space, xi, base, m - 1)
                for p in family:
                    e = cond_exp_cells(space, proc, p, m - 1)
                    worst = max(worst, float(np.abs(e - prev).max()))
        assert worst == pytest.approx(result.violation, abs=1e-10)


class TestWitnessRoundTrip:
    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_every_claim_witness_re_audits_identically(self, claim):
        from doobkit.claims import instance_from_dict

        result = search_counterexample(claim, budget=800, seed=13)
        assert result.verdict == "counterexample", claim
        rebuilt = instance_from_dict(result.witness)
        again = audit(claim, rebuilt)
        assert again.verdict == "counterexample"
        assert again.violation == pytest.approx(result.violation, abs=1e-10)


class TestOneAtomPass:
    """Library code conditions a per-atom variable on atoms only at the
    horizon; every lower level is one step back from cell masses."""

    def test_cond_exp_cells_only_at_the_horizon(self, fixture_paths, monkeypatch):
        import json

        from doobkit import pricing, space

        seen = []
        original = space.cond_exp_cells

        def spy(sp, xi, p, m):
            seen.append((m, sp.horizon))
            return original(sp, xi, p, m)

        # every module that binds the name, and space's own callers
        for module in (claims, pricing, space):
            monkeypatch.setattr(module, "cond_exp_cells", spy)
        instance = claims.instance_from_dict(json.loads(fixture_paths["b"].read_text()))
        for claim in CLAIM_IDS:
            audit(claim, instance)
            search_counterexample(claim, budget=30, seed=0)
        assert seen and all(m == horizon for m, horizon in seen)

    def test_one_cell_mass_table(self):
        """A family's cell masses are the arrays its conditional-expectation
        cache holds, and a fresh family's LP decomposition, the check of it
        and a martingale draw on it read its atoms in one pass, at the
        horizon."""
        from doobkit import regularity
        from doobkit.generators import random_martingale
        from doobkit.space import _cell_bins, _step_bins

        from .trees import tree_draw

        reads = []

        class Counting(MeasureFamily):
            @property
            def probs(self):
                reads.append(1)
                return MeasureFamily.probs.__get__(self)

        family, f, _, _ = tree_draw(3, 3, 2, 0)
        fresh = Counting(space=family.space, extremes=family.extremes)
        decomposition = regularity.optional_decompose(f, fresh, strategy="lp")
        assert [step.method for step in decomposition.steps] == ["lp-path"] * 3
        assert regularity.verify_decomposition(f, decomposition, fresh).ok
        random_martingale(np.random.default_rng(0), fresh.space, fresh)
        assert len(reads) == 1
        n = fresh.space.horizon
        assert fresh.masses(n) is fresh._table[_cell_bins, n][1]
        for m in range(n):
            assert fresh.masses(m) is fresh._table[_step_bins, m + 1][2]


class TestSearchOutcomesPinned:
    """``(verdict, budget_used)`` of the default search per claim at seeds
    0-4, budget 300, as the per-level atom passes gave them."""

    PINNED = {
        "lemma-q5": [("counterexample", 2), ("counterexample", 2), ("counterexample", 2),
                     ("counterexample", 17), ("counterexample", 2)],
        "lemma-lkq4": [("counterexample", 2), ("counterexample", 2), ("counterexample", 2),
                       ("counterexample", 17), ("counterexample", 2)],
        "lemma-tmars5": [("counterexample", 2), ("counterexample", 2), ("counterexample", 2),
                         ("counterexample", 17), ("counterexample", 2)],
        "lemma-1q5": [("counterexample", 3), ("counterexample", 4), ("counterexample", 2),
                      ("counterexample", 1), ("counterexample", 3)],
        "thm-fmars5": [("counterexample", 2), ("counterexample", 2), ("counterexample", 2),
                       ("counterexample", 1), ("counterexample", 3)],
        "thm-mars12": [("counterexample", 3), ("counterexample", 4), ("counterexample", 5),
                       ("counterexample", 3), ("counterexample", 3)],
        "thm-mmars1": [("counterexample", 13), ("counterexample", 4), ("counterexample", 2),
                       ("counterexample", 1), ("counterexample", 2)],
    }

    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_verdict_and_budget_used(self, claim):
        got = []
        for seed in range(5):
            result = search_counterexample(claim, budget=300, seed=seed)
            got.append((result.verdict, result.budget_used))
        assert got == self.PINNED[claim]


class TestShrinkSteps:
    def test_dropping_any_atom_leaves_a_space(self):
        # three random spaces of every (atoms, periods) shape of at most 8
        # atoms and 3 periods, each less every one of its atoms in turn
        rng = np.random.default_rng(0)
        for n_atoms in range(2, 9):
            for horizon in (1, 2, 3):
                for _ in range(3):
                    space = random_space(rng, max_atoms=n_atoms, max_periods=horizon)
                    while (space.n_atoms, space.horizon) != (n_atoms, horizon):
                        space = random_space(rng, max_atoms=n_atoms, max_periods=horizon)
                    xi = rng.uniform(0.0, 2.0, size=n_atoms)
                    instance = AuditInstance(family=random_family(rng, space), xi=xi)
                    for atom in range(n_atoms):
                        smaller = claims._drop_atom(instance, atom)
                        if n_atoms == 2:
                            assert smaller is None
                            continue
                        assert smaller.space.n_atoms == n_atoms - 1
                        assert smaller.space.horizon == horizon
                        assert smaller.xi.tolist() == np.delete(xi, atom).tolist()

    def test_dropping_any_atom_keeps_f_at_every_surviving_atom(self):
        # build_space sorts the surviving cells by least atom, which can
        # reorder them (the seed-3 draw less atom 1 turns the time-1 cells
        # (0), (1, 5, 6), (2, 3, 4) into (0), (1, 2, 3), (4, 5))
        for seed in range(60):
            instance = claims._sample_instance("thm-mmars1", np.random.default_rng(seed), 8, 3, 3)
            if instance is None:
                continue
            space = instance.space
            for atom in range(space.n_atoms):
                smaller = claims._drop_atom(instance, atom)
                if smaller is None:
                    continue
                for m in range(space.horizon + 1):
                    want = np.delete(instance.f.at_atoms(m), atom)
                    assert smaller.f.at_atoms(m).tolist() == want.tolist(), (seed, atom, m)


class TestSearch:
    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            search_counterexample("lemma-tmars5", budget=0, seed=0)

    def test_deterministic_given_seed(self):
        a = search_counterexample("lemma-tmars5", budget=200, seed=3)
        b = search_counterexample("lemma-tmars5", budget=200, seed=3)
        assert a.verdict == b.verdict == "counterexample"
        assert a.violation == b.violation
        assert a.witness == b.witness

    #: ten seeds of the default search, which shrink a hit, a one-measure
    #: search, which runs its whole budget without one, and a search of at
    #: most two extremes, whose shrinking reaches one-measure candidates
    AGAINST_ORACLE = (
        *((seed, {}) for seed in range(10)),
        (5, {"max_extremes": 1}),
        (5, {"max_extremes": 2}),
    )

    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_matches_audit_based_search(self, claim):
        for seed, kw in self.AGAINST_ORACLE:
            got = search_counterexample(claim, budget=30, seed=seed, **kw)
            assert got.as_dict() == audit_based_search(claim, budget=30, seed=seed, **kw).as_dict()

    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_shrunk_instance_is_not_evaluated_again(self, claim, monkeypatch):
        # the search evaluates what the audit-based search audits, less its
        # one-measure instances and, after a hit, less the final re-audit of
        # the shrunk instance, whose evaluation the last shrink step made
        calls = []
        evaluate = claims._EVALUATORS[claim]

        def counted(instance):
            calls.append(len(instance.family))
            return evaluate(instance)

        monkeypatch.setitem(claims._EVALUATORS, claim, counted)
        for seed, kw in self.AGAINST_ORACLE:
            calls.clear()
            want = audit_based_search(claim, budget=30, seed=seed, **kw)
            audited, one_measure = len(calls), calls.count(1)
            calls.clear()
            got = search_counterexample(claim, budget=30, seed=seed, **kw)
            assert got.as_dict() == want.as_dict()
            assert 1 not in calls
            assert len(calls) == audited - one_measure - (got.verdict == "counterexample")

    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_one_measure_search_evaluates_nothing(self, claim, monkeypatch):
        calls = []
        monkeypatch.setitem(claims._EVALUATORS, claim, calls.append)
        result = search_counterexample(claim, budget=40, seed=5, max_extremes=1)
        assert calls == []
        assert result.verdict == "pass"
        assert result.budget_used == 40

    def test_singleton_restriction_passes(self):
        result = search_counterexample("lemma-q5", budget=50, seed=5, max_extremes=1)
        assert result.verdict == "pass"
        assert result.budget_used == 50

    @pytest.mark.parametrize(
        "name, value", [("max_atoms", 1), ("max_periods", 0), ("max_extremes", 0)]
    )
    def test_sampling_bounds_validation(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be at least {value + 1}"):
            search_counterexample("lemma-q5", budget=5, seed=0, **{name: value})

    def test_program_error_is_not_a_skipped_draw(self, monkeypatch):
        # only the density search's own typed failures may skip a draw
        def broken(family, objective=None):
            raise NameError("broken")

        monkeypatch.setattr(claims, "find_a0_element", broken)
        with pytest.raises(NameError):
            search_counterexample("thm-fmars5", budget=5, seed=0)

    def test_shrinking_keeps_violation(self):
        result = search_counterexample("lemma-tmars5", budget=500, seed=21)
        assert result.verdict == "counterexample"
        assert result.violation > 1e-9
        # shrunk witnesses stay within the sampling envelope
        assert result.witness["atoms"] <= 8
