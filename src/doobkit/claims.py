"""Instance-level audits of the envelope identities.

Several appealing statements about upper envelopes of conditional
expectations over a convex family of measures hold for a single measure
(or for families stable under pasting of conditional pieces) but fail for
general finitely generated hulls.  This module evaluates each such claim
literally on a concrete instance, reports the violating quantity when one
exists, and searches small random instances for counterexamples with
greedy shrinking.  The point is evidence, not proof: a "pass" after an
exhausted search budget is a verdict about the instances tried.

Every audited identity is a theorem for a one-measure family, so the
search counts a one-measure draw toward its budget but does not evaluate
it, and shrinking passes over one-measure candidates the same way; a
direct :func:`audit` of such an instance still evaluates it.

Audited claims:

* ``lemma-q5`` / ``lemma-lkq4``: conditioning the upper envelope at a later
  time never exceeds the envelope at an earlier time.
* ``lemma-tmars5``: the envelope process of a nonnegative payoff is a
  supermartingale for every measure of the family.
* ``lemma-1q5``: with equal expectations across extremes, the envelope
  process is a family-martingale.
* ``thm-fmars5``: for a unit-expectation density, conditional expectations
  agree across measures and form a family-martingale.
* ``thm-mars12``: the envelope admits a decomposition at every step iff
  the expectations across extremes agree.
* ``thm-mmars1``: a pathwise non-increasing process times a density
  martingale is a family-supermartingale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .generators import random_family, random_space
from .lp import NumericalBreakdown
from .regularity import (
    NotInA0,
    StepFailure,
    _least_dominators,
    _unit_density_vertex,
    a0_membership,
    classify,
    find_a0_element,
)
from .scenario import ClaimSpec, scenario_to_dict
from .space import (
    DEFAULT_TOL,
    STRICT_TOL,
    AdaptedProcess,
    FilteredSpace,
    Measure,
    MeasureFamily,
    ShapeMismatch,
    _cond_exp_back,
    build_space,
    cond_exp_cells,
    cond_exp_step,
)

__all__ = [
    "CLAIM_IDS",
    "ClaimPreconditionUnmet",
    "AuditInstance",
    "AuditResult",
    "audit",
    "instance_from_dict",
    "search_counterexample",
    "envelope_process",
]

CLAIM_IDS = (
    "lemma-q5",
    "lemma-lkq4",
    "lemma-tmars5",
    "lemma-1q5",
    "thm-fmars5",
    "thm-mars12",
    "thm-mmars1",
)

#: claims whose hypotheses need a unit-expectation density
_NEEDS_A0 = {"thm-fmars5", "thm-mmars1"}


class ClaimPreconditionUnmet(ValueError):
    """The instance does not satisfy the claim's hypotheses."""


@dataclass(frozen=True, eq=False)
class AuditInstance:
    """A concrete space/family plus the payoff (and, where needed, the
    non-increasing process) the claim quantifies over."""

    family: MeasureFamily
    xi: Optional[np.ndarray] = None
    f: Optional[AdaptedProcess] = None

    @property
    def space(self) -> FilteredSpace:
        return self.family.space

    def as_dict(self) -> dict:
        measures = {f"P{i + 1}": p for i, p in enumerate(self.family)}
        processes = {"f": self.f} if self.f is not None else None
        claims = None
        extra: dict = {}
        if self.xi is not None:
            if _is_measurable(self.space, self.xi):
                n = self.space.horizon
                claims = {
                    "xi": ClaimSpec(time=n, values=self.space.restrict(n, self.xi))
                }
            else:
                # payoff finer than the last partition: record raw atom values
                extra["xi_atoms"] = list(map(float, self.xi))
        doc = scenario_to_dict(self.space, measures=measures, processes=processes, claims=claims)
        doc.update(extra)
        return doc


def _is_measurable(space: FilteredSpace, xi: np.ndarray) -> bool:
    try:
        space.restrict(space.horizon, xi)
        return True
    except ShapeMismatch:
        return False


@dataclass(frozen=True, eq=False)
class AuditResult:
    claim: str
    verdict: str  # "pass" | "counterexample"
    violation: float
    detail: str
    witness: Optional[dict] = None
    budget_used: int = 1

    def as_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "verdict": self.verdict,
            "violation": self.violation,
            "detail": self.detail,
            "budget_used": self.budget_used,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _cond_exp_levels(family: MeasureFamily, xi: np.ndarray) -> list[np.ndarray]:
    """``E_i[xi | F_m]`` under each extreme ``i``, as ``(k, n_cells(m))`` per
    time ``m``: one atom pass at the horizon, then one step back per level."""
    n = family.space.horizon
    return _cond_exp_back(family, cond_exp_cells(family.space, xi, family, n), n)


def envelope_process(family: MeasureFamily, xi: np.ndarray) -> AdaptedProcess:
    """The upper envelope of conditional expectations, as an adapted process."""
    levels = [cond.max(axis=0) for cond in _cond_exp_levels(family, xi)]
    return AdaptedProcess(space=family.space, per_time=tuple(levels))


# ---------------------------------------------------------------------------
# claim evaluators: return (violation, detail)


def _require_xi(instance: AuditInstance, nonnegative: bool) -> np.ndarray:
    if instance.xi is None:
        raise ClaimPreconditionUnmet("claim needs a payoff xi")
    xi = np.asarray(instance.xi, dtype=float)
    if nonnegative and (xi < -STRICT_TOL).any():
        raise ClaimPreconditionUnmet("claim needs a nonnegative xi")
    return xi


def _eval_envelope_tower(instance: AuditInstance) -> tuple[float, str]:
    family = instance.family
    env = envelope_process(family, _require_xi(instance, nonnegative=False))
    worst, where = 0.0, ""
    for n in range(1, instance.space.horizon + 1):
        back = _cond_exp_back(family, env.at_cells(n), n)
        for m in range(n):
            gaps = (back[m] - env.at_cells(m)).max(axis=1)
            i = int(np.argmax(gaps))
            if gaps[i] > worst:
                worst = float(gaps[i])
                where = f"conditioning the time-{n} envelope to time {m} under extreme {i}"
    return worst, where or "no excess over the early envelope"


def _eval_lkq4(instance: AuditInstance) -> tuple[float, str]:
    _require_xi(instance, nonnegative=True)
    return _eval_envelope_tower(instance)


def _eval_tmars5(instance: AuditInstance) -> tuple[float, str]:
    xi = _require_xi(instance, nonnegative=True)
    cls = classify(envelope_process(instance.family, xi), instance.family, tol=0.0)
    t, cell, i, mag = cls.worst_violation
    if mag > 0:
        return mag, f"envelope drifts up by {mag:.6g} at time {t}, cell {cell}, extreme {i}"
    return 0.0, "envelope is a supermartingale for every extreme"


def _eval_1q5(instance: AuditInstance) -> tuple[float, str]:
    xi = _require_xi(instance, nonnegative=True)
    exps = instance.family.probs @ xi
    if exps.max() - exps.min() > STRICT_TOL:
        raise ClaimPreconditionUnmet("claim needs equal expectation under every extreme")
    space = instance.space
    env = envelope_process(instance.family, xi)
    worst, where = 0.0, ""
    for m in range(1, space.horizon + 1):
        rows = cond_exp_step(space, instance.family, env.at_cells(m), m)
        mags = np.abs(rows - env.at_cells(m - 1)).max(axis=1)
        i = int(np.argmax(mags))
        if mags[i] > worst:
            worst = float(mags[i])
            where = f"martingale defect {worst:.6g} at time {m} under extreme {i}"
    return worst, where or "envelope is a family-martingale"


def _eval_fmars5(instance: AuditInstance) -> tuple[float, str]:
    xi = _require_xi(instance, nonnegative=True)
    family = instance.family
    if not a0_membership(family, xi, tol=DEFAULT_TOL):
        raise ClaimPreconditionUnmet("xi is not a unit-expectation density for the family")
    space = instance.space
    k = len(family)
    # conds[m][b]: the density martingale under extreme b at time m
    conds = _cond_exp_levels(family, xi)
    # gaps[m, i, j]: how far the martingales under i and j part; the first worst wins
    gaps = np.stack([np.abs(c[:, None] - c[None, :]).max(axis=2) for c in conds])
    m, i, j = np.unravel_index(np.argmax(gaps), gaps.shape)
    worst, where = float(gaps[m, i, j]), ""
    if worst > 0.0:
        where = (f"conditional expectations at time {m} differ by {worst:.6g} "
                 f"between extremes {i} and {j}")
    # defects[b, m - 1, i]: time-m defect, under i, of the martingale under b; first worst wins
    defects = np.empty((k, space.horizon, k))
    for m in range(1, space.horizon + 1):
        under = np.tile(family.masses(m), (k, 1))  # row b * k + i is extreme i
        dens = np.repeat(conds[m], k, axis=0)
        rows = cond_exp_step(space, under, dens, m) - np.repeat(conds[m - 1], k, axis=0)
        defects[:, m - 1] = np.abs(rows).max(axis=1).reshape(k, k)
    b, m, i = np.unravel_index(np.argmax(defects), defects.shape)
    if defects[b, m, i] > worst:
        worst = float(defects[b, m, i])
        where = (
            f"density martingale under extreme {b} has defect {worst:.6g} "
            f"at time {m + 1} under extreme {i}"
        )
    return worst, where or "conditional expectations agree and form a family-martingale"


def _eval_mars12(instance: AuditInstance) -> tuple[float, str]:
    xi = _require_xi(instance, nonnegative=True)
    family = instance.family
    space = instance.space
    if not _is_measurable(space, xi):
        raise ClaimPreconditionUnmet("claim needs xi measurable at the horizon")
    env = envelope_process(family, xi)
    steps = _least_dominators(env, family, range(1, space.horizon + 1))
    failures = [step for step in steps if isinstance(step, StepFailure)]
    regular = not failures
    exps = family.probs @ xi
    spread = float(exps.max() - exps.min())
    equal = spread <= DEFAULT_TOL
    if regular == equal:
        return 0.0, "step certificates exist exactly when expectations agree"
    if equal and not regular:
        mag = max((fl.certificate or 0.0) for fl in failures)
        mag = mag if mag > 0 else 1.0
        return (
            mag,
            f"expectations agree but step {failures[0].m} has no certificate "
            f"(Farkas value {mag:.6g})",
        )
    return spread, f"certificates exist at every step but expectations spread by {spread:.6g}"


def _eval_mmars1(instance: AuditInstance) -> tuple[float, str]:
    xi = _require_xi(instance, nonnegative=True)
    family = instance.family
    space = instance.space
    if not a0_membership(family, xi, tol=DEFAULT_TOL):
        raise ClaimPreconditionUnmet("xi is not a unit-expectation density for the family")
    if instance.f is None:
        raise ClaimPreconditionUnmet("claim needs a pathwise non-increasing process f")
    f = instance.f
    for m in range(1, space.horizon + 1):
        if (f.at_cells(m) > f.at_cells(m - 1)[space.parent_cell(m)] + STRICT_TOL).any():
            raise ClaimPreconditionUnmet("f must be pathwise non-increasing")
    conds = _cond_exp_levels(family, xi)
    worst, where = 0.0, ""
    for b in range(len(family)):
        levels = [f.at_cells(m) * conds[m][b] for m in range(space.horizon + 1)]
        prod = AdaptedProcess(space=space, per_time=tuple(levels))
        cls = classify(prod, family, tol=0.0)
        t, cell, i, mag = cls.worst_violation
        if mag > worst:
            worst = mag
            where = (
                f"product with the density martingale under extreme {b} drifts up "
                f"by {mag:.6g} at time {t}, cell {cell}, extreme {i}"
            )
    return worst, where or "product is a supermartingale for every base and extreme"


_EVALUATORS = {
    "lemma-q5": _eval_envelope_tower,
    "lemma-lkq4": _eval_lkq4,
    "lemma-tmars5": _eval_tmars5,
    "lemma-1q5": _eval_1q5,
    "thm-fmars5": _eval_fmars5,
    "thm-mars12": _eval_mars12,
    "thm-mmars1": _eval_mmars1,
}


def instance_from_dict(doc: dict) -> AuditInstance:
    """Rebuild an audit instance from a witness (or scenario) document.

    The payoff comes from the ``xi`` claim when present, else from the raw
    ``xi_atoms`` fallback used when the payoff is finer than the last
    partition; an ``f`` process is picked up when present.
    """
    from .scenario import parse_scenario

    scenario = parse_scenario({k: v for k, v in doc.items() if k != "xi_atoms"})
    xi: Optional[np.ndarray] = None
    if "xi" in scenario.claims:
        xi = scenario.claims["xi"].atoms(scenario.space)
    elif "xi_atoms" in doc:
        xi = np.asarray(doc["xi_atoms"], dtype=float)
    return AuditInstance(
        family=scenario.family(), xi=xi, f=scenario.processes.get("f")
    )


def audit(claim: str, instance: AuditInstance, tol: float = DEFAULT_TOL) -> AuditResult:
    """Evaluate one claim literally on one instance."""
    if claim not in _EVALUATORS:
        raise ValueError(f"unknown claim {claim!r}; choose from {CLAIM_IDS}")
    violation, detail = _EVALUATORS[claim](instance)
    if violation > tol:
        return AuditResult(
            claim=claim,
            verdict="counterexample",
            violation=violation,
            detail=detail,
            witness=instance.as_dict(),
        )
    return AuditResult(claim=claim, verdict="pass", violation=violation, detail=detail)


# ---------------------------------------------------------------------------
# randomized search with shrinking


def _drop_extreme(instance: AuditInstance, idx: int) -> Optional[AuditInstance]:
    family = instance.family
    if len(family) <= 1:
        return None
    extremes = tuple(p for i, p in enumerate(family) if i != idx)
    return replace(instance, family=MeasureFamily(space=family.space, extremes=extremes))


def _drop_atom(instance: AuditInstance, atom: int) -> Optional[AuditInstance]:
    space = instance.space
    if space.n_atoms <= 2:
        return None
    # atoms past the dropped one move down by one; an emptied cell goes
    partitions = [
        [kept for cell in level if (kept := [a - (a > atom) for a in cell if a != atom])]
        for level in space.partitions
    ]
    new_space = build_space(space.n_atoms - 1, partitions)
    mask = np.arange(space.n_atoms) != atom
    probs = instance.family.probs[:, mask]
    family = MeasureFamily(space=new_space, extremes=tuple(Measure(p / p.sum()) for p in probs))
    xi = instance.xi[mask] if instance.xi is not None else None
    f = None
    if instance.f is not None:
        # build_space sorts the surviving cells by least atom again
        levels = [new_space.restrict(m, instance.f.at_atoms(m)[mask])
                  for m in range(space.horizon + 1)]
        f = AdaptedProcess(space=new_space, per_time=tuple(levels))
    return AuditInstance(family=family, xi=xi, f=f)


def _smaller(instance: AuditInstance) -> Iterator[Optional[AuditInstance]]:
    """The instance less one extreme, last first, then less one atom, last
    first; None where the drop is not possible."""
    for idx in reversed(range(len(instance.family))):
        yield _drop_extreme(instance, idx)
    for atom in reversed(range(instance.space.n_atoms)):
        yield _drop_atom(instance, atom)


def _shrink(
    claim: str, instance: AuditInstance, found: tuple[float, str], tol: float
) -> tuple[AuditInstance, tuple[float, str]]:
    """Greedy removal of extremes then atoms while the violation persists,
    passing over one-measure candidates; returns the last violating
    instance and its ``(violation, detail)``, ``found`` being the one of
    ``instance``."""
    current = instance
    improved = True
    while improved:
        improved = False
        for candidate in _smaller(current):
            if candidate is None or len(candidate.family) == 1:
                continue
            try:
                outcome = _EVALUATORS[claim](candidate)
            except ClaimPreconditionUnmet:
                continue
            if outcome[0] > tol:
                current, found = candidate, outcome
                improved = True
                break
    return current, found


def _terminal_unit_density(
    family: MeasureFamily, rng: np.random.Generator
) -> Optional[np.ndarray]:
    """Horizon-measurable nonnegative payoff with expectation one under every
    extreme, at a random vertex of that polytope."""
    space = family.space
    horizon = space.horizon
    per_cell = _unit_density_vertex(
        family.masses(horizon), rng.normal(size=space.n_cells(horizon))
    )
    return None if per_cell is None else space.expand(horizon, per_cell)


def _sample_instance(
    claim: str,
    rng: np.random.Generator,
    max_atoms: int,
    max_periods: int,
    max_extremes: int,
) -> Optional[AuditInstance]:
    space = random_space(rng, max_atoms=max_atoms, max_periods=max_periods)
    family = random_family(rng, space, max_extremes=max_extremes)
    n = space.n_atoms
    if claim in _NEEDS_A0 or claim == "lemma-1q5":
        try:
            xi = find_a0_element(family, objective=rng.normal(size=n)).xi
        except (NumericalBreakdown, NotInA0):
            return None
        if claim == "lemma-1q5":
            xi = xi * float(rng.uniform(0.5, 2.0))
    elif claim == "thm-mars12":
        # the fragile direction needs equal expectations across extremes
        xi = _terminal_unit_density(family, rng)
        if xi is None:
            return None
        xi = xi * float(rng.uniform(0.5, 2.0))
    else:
        # measurable at the horizon, so the witness serializes as a claim
        per_cell = rng.uniform(0.0, 2.0, size=space.n_cells(space.horizon))
        xi = space.expand(space.horizon, per_cell)
    f = None
    if claim == "thm-mmars1":
        levels = [np.array([float(rng.uniform(1.0, 2.0))])]
        for m in range(1, space.horizon + 1):
            drop = rng.uniform(0.0, 0.4, size=space.n_cells(m))
            levels.append(levels[-1][space.parent_cell(m)] - drop)
        f = AdaptedProcess(space=space, per_time=tuple(levels))
    return AuditInstance(family=family, xi=xi, f=f)


def search_counterexample(
    claim: str,
    budget: int,
    seed: int,
    max_atoms: int = 8,
    max_periods: int = 3,
    max_extremes: int = 3,
    tol: float = DEFAULT_TOL,
) -> AuditResult:
    """Randomized counterexample search over small instances.

    Deterministic for a fixed seed.  Returns the first (shrunk)
    counterexample found, or a pass verdict after exhausting the budget.
    A draw with one measure counts toward ``budget_used`` but is not
    evaluated: every audited claim holds for a single measure.
    """
    for name, value, least in (
        ("budget", budget, 1),
        ("max_atoms", max_atoms, 2),
        ("max_periods", max_periods, 1),
        ("max_extremes", max_extremes, 1),
    ):
        if value < least:
            raise ValueError(f"{name} must be at least {least}")
    if claim not in _EVALUATORS:
        raise ValueError(f"unknown claim {claim!r}; choose from {CLAIM_IDS}")
    rng = np.random.default_rng(seed)
    tried = 0
    for _ in range(budget):
        instance = _sample_instance(claim, rng, max_atoms, max_periods, max_extremes)
        if instance is None:
            continue
        tried += 1
        if len(instance.family) == 1:
            continue
        try:
            outcome = _EVALUATORS[claim](instance)
        except ClaimPreconditionUnmet:
            continue
        if outcome[0] > tol:
            shrunk, (violation, detail) = _shrink(claim, instance, outcome, tol)
            return AuditResult(
                claim=claim,
                verdict="counterexample",
                violation=violation,
                detail=detail,
                witness=shrunk.as_dict(),
                budget_used=tried,
            )
    return AuditResult(
        claim=claim,
        verdict="pass",
        violation=0.0,
        detail=f"no violation over {tried} sampled instances",
        budget_used=tried,
    )
