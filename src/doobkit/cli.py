"""Command-line front end.

One verb per invocation::

    doobkit validate  scenario.json
    doobkit classify  scenario.json --process f
    doobkit decompose scenario.json --process f [--strategy lp|auto]
    doobkit price     scenario.json --claim call90 [--mode a0|generators --generators S]
    doobkit hedge     scenario.json --claim call90 [--generators S] [--csv]
    doobkit emm       scenario.json --process S
    doobkit a0        scenario.json [--claim name]
    doobkit audit     scenario.json --claim-id lemma-tmars5 [--budget N --seed K]

``decompose --strategy auto`` (the default) tries the closed-form
certificate seeded with the constant density, ``xi0 = 1``, at each step
and falls back to the LP certificate; ``lp`` uses the LP throughout.

Exit codes: 0 success / expectation met, 1 domain failure (not a
supermartingale, no certificate, audit expectation missed), 2 infeasible
or no martingale measure, 3 I/O, schema or usage error, or a numerical
breakdown (an LP answer that the one simplex kernel's residual gate, or
a price's own certificate, refused).  Reports
are JSON on stdout (or ``--out``); byte-for-byte deterministic for a fixed
input and seed unless ``--stamp`` is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import claims as claims_mod
from .claims import CLAIM_IDS, AuditInstance, ClaimPreconditionUnmet
from .lp import NumericalBreakdown
from .pricing import (
    EMM_MIN_SLACK,
    FamilyNotEmm,
    MarketModel,
    PricingInfeasible,
    fair_price_a0,
    fair_price_generators,
    find_emm,
    price_slice_generators,
    superhedge_strategy,
    verify_emm,
)
from .regularity import (
    NotLocallyRegular,
    NotSupermartingale,
    classify,
    find_a0_element,
    optional_decompose,
    verify_decomposition,
)
from .scenario import Scenario, SchemaError, load_scenario
from .space import MIN_PROB

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

_STEP_METHOD = {"lp-path": "lp", "alpha-path": "alpha"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants 3
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="doobkit", description=__doc__, add_help=True,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("inputs", nargs="+", metavar="scenario.json")
        p.add_argument("--tol", type=float, default=None,
                       help="numerical tolerance, a finite number >= 0 "
                            "(default 1e-9, env DOOBKIT_TOL)")
        p.add_argument("--out", type=Path, default=None, help="write the report here")
        p.add_argument("--stamp", action="store_true", help="include a timestamp")

    p = sub.add_parser("validate", help="check a scenario file against the schema")
    common(p)

    p = sub.add_parser("classify", help="martingale / supermartingale verdict")
    common(p)
    p.add_argument("--process", default="f")

    p = sub.add_parser("decompose", help="martingale-minus-compensator split")
    common(p)
    p.add_argument("--process", default="f")
    p.add_argument("--strategy", choices=("lp", "auto"), default="auto")

    p = sub.add_parser("price", help="fair price of a terminal claim")
    common(p)
    p.add_argument("--claim", required=True)
    p.add_argument("--mode", choices=("a0", "generators"), default="a0")
    p.add_argument("--generators", default=None,
                   help="comma-separated price process names (their normalized slices)")

    p = sub.add_parser("hedge", help="superhedging strategy from the fair price")
    common(p)
    p.add_argument("--claim", required=True)
    p.add_argument("--generators", default="S",
                   help="price process whose normalized slices generate the dominators")
    p.add_argument("--csv", action="store_true", help="emit the capital path as CSV")

    p = sub.add_parser("emm", help="search for an equivalent martingale measure")
    common(p)
    p.add_argument("--process", default="S")

    p = sub.add_parser("a0", help="produce a unit-expectation density element")
    common(p)
    p.add_argument("--claim", default=None, help="claim whose payoff to maximize against")

    p = sub.add_parser("audit", help="audit an envelope claim on the scenario")
    common(p)
    p.add_argument("--claim-id", required=True, choices=CLAIM_IDS)
    p.add_argument("--claim", default=None, help="claim entry supplying the payoff")
    p.add_argument("--process", default=None, help="process entry supplying f (where needed)")
    p.add_argument("--budget", type=int, default=None,
                   help="run the randomized search with this many instances instead")
    p.add_argument("--seed", type=int, default=0)
    expect = p.add_mutually_exclusive_group()
    expect.add_argument("--expect-pass", action="store_true")
    expect.add_argument("--expect-counterexample", action="store_true")
    return parser


def _tolerance(args: argparse.Namespace) -> float:
    """``--tol``, else ``DOOBKIT_TOL``, else 1e-9; a usage error unless it
    is a finite number >= 0."""
    if args.tol is not None:
        name, raw = "--tol", args.tol
    else:
        name, raw = "DOOBKIT_TOL", os.environ.get("DOOBKIT_TOL") or 1e-9
    try:
        tol = float(raw)
    except ValueError:
        tol = float("nan")
    if not 0.0 <= tol < float("inf"):
        raise _UsageError(f"{name} must be a finite number >= 0, got {raw!r}")
    return tol


def _process(scenario: Scenario, name: str):
    if name not in scenario.processes:
        raise SchemaError(f"scenario has no process {name!r}")
    return scenario.processes[name]


def _claim_atoms(scenario: Scenario, name: str) -> np.ndarray:
    if name not in scenario.claims:
        raise SchemaError(f"scenario has no claim {name!r}")
    spec = scenario.claims[name]
    if spec.time != scenario.space.horizon:
        raise SchemaError(f"claim {name!r} is pinned to time {spec.time}, not the horizon")
    return spec.atoms(scenario.space)


def _levels(proc) -> list[list[float]]:
    return [list(map(float, proc.at_cells(m))) for m in range(proc.horizon + 1)]


# ---------------------------------------------------------------------------
# verb handlers: return (report dict, exit code, optional csv text)


def _run_validate(scenario: Scenario, args) -> tuple[dict, int, Optional[str]]:
    return (
        {
            "verb": "validate",
            "atoms": scenario.space.n_atoms,
            "horizon": scenario.space.horizon,
            "measures": sorted(scenario.measures),
            "processes": sorted(scenario.processes),
            "claims": sorted(scenario.claims),
            "status": "ok",
        },
        EXIT_OK,
        None,
    )


def _run_classify(scenario: Scenario, args) -> tuple[dict, int, Optional[str]]:
    family = scenario.family()
    proc = _process(scenario, args.process)
    verdict = classify(proc, family, tol=args.tol)
    t, cell, extreme, mag = verdict.worst_violation
    report = {
        "verb": "classify",
        "process": args.process,
        "kind": verdict.kind,
        "worst_violation": {"time": t, "cell": cell, "extreme": extreme, "magnitude": mag},
    }
    return report, EXIT_OK if verdict.is_supermartingale else EXIT_DOMAIN, None


def _run_decompose(scenario: Scenario, args) -> tuple[dict, int, Optional[str]]:
    family = scenario.family()
    proc = _process(scenario, args.process)
    try:
        dec = optional_decompose(proc, family, strategy=args.strategy, tol=args.tol)
    except (NotSupermartingale, NotLocallyRegular) as exc:
        return (
            {"status": "fail", "reason": str(exc), "martingale": None,
             "compensator": None, "steps": [], "checks": []},
            EXIT_DOMAIN,
            None,
        )
    report = verify_decomposition(proc, dec, family, tol=args.tol)
    out = {
        "status": "ok" if report.ok else "fail",
        "martingale": _levels(dec.martingale),
        "compensator": _levels(dec.compensator),
        "steps": [
            {"m": s.m, "method": _STEP_METHOD[s.method],
             "alpha": None if s.alpha is None else float(s.alpha)}
            for s in dec.steps
        ],
        "checks": [
            {"name": c.name, "max_violation": c.max_violation} for c in report.checks
        ],
    }
    return out, EXIT_OK if report.ok else EXIT_DOMAIN, None


def _generator_elements(scenario: Scenario, names: str):
    elements = []
    for name in names.split(","):
        market = MarketModel(S=_process(scenario, name.strip()))
        elements.extend(price_slice_generators(market))
    return elements


def _run_price(scenario: Scenario, args) -> tuple[dict, int, Optional[str]]:
    family = scenario.family()
    payoff = _claim_atoms(scenario, args.claim)
    try:
        if args.mode == "generators":
            if not args.generators:
                raise SchemaError("--mode generators needs --generators")
            gens = _generator_elements(scenario, args.generators)
            result = fair_price_generators(payoff, gens, family, tol=args.tol)
        else:
            result = fair_price_a0(payoff, family, tol=args.tol)
    except PricingInfeasible as exc:
        return {"status": "infeasible", "reason": str(exc)}, EXIT_INFEASIBLE, None
    report = result.as_dict()
    report["strategy"] = None
    return report, EXIT_OK, None


def _strategy_dict(strategy) -> dict:
    return {
        "H0": [list(map(float, lvl)) for lvl in strategy.cash],
        "H": [list(map(float, lvl)) for lvl in strategy.risky],
        "capital": _levels(strategy.capital),
    }


def _capital_csv(strategy, market: MarketModel) -> str:
    space = market.space
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time", "cell", "X", "H0", "H", "S"])
    for m in range(space.horizon + 1):
        x = strategy.capital.at_cells(m)
        s = market.S.at_cells(m)
        # the time-0 positions sit at index 0, like a parent cell
        parents = space.parent_cell(m) if m else (0,)
        for c in range(space.n_cells(m)):
            h0 = float(strategy.cash[m][parents[c]])
            h = float(strategy.risky[m][parents[c]])
            writer.writerow([m, c, repr(float(x[c])), repr(h0), repr(h), repr(float(s[c]))])
    return buf.getvalue()


def _run_hedge(scenario: Scenario, args) -> tuple[dict, int, Optional[str]]:
    family = scenario.family()
    payoff = _claim_atoms(scenario, args.claim)
    names = args.generators.split(",")
    if len(names) != 1:
        raise SchemaError("hedging uses the slices of exactly one price process")
    market = MarketModel(S=_process(scenario, names[0].strip()))
    try:
        strategy = superhedge_strategy(payoff, market, family, tol=args.tol)
    except (FamilyNotEmm, PricingInfeasible) as exc:
        return {"status": "infeasible", "reason": str(exc)}, EXIT_INFEASIBLE, None
    report = strategy.pricing.as_dict()
    report["strategy"] = _strategy_dict(strategy)
    report["self_financing_residual"] = strategy.self_financing_residual(market)
    csv_text = _capital_csv(strategy, market) if args.csv else None
    return report, EXIT_OK, csv_text


def _run_emm(scenario: Scenario, args) -> tuple[dict, int, Optional[str]]:
    market = MarketModel(S=_process(scenario, args.process))
    result = find_emm(market)
    if result.measure is None:
        report = {"verb": "emm", "found": False, "min_slack": result.min_slack, "measure": None}
        if result.min_slack > EMM_MIN_SLACK:  # every node has a law; their product is too small
            report["reason"] = f"a martingale measure exists, but an atom is at or below {MIN_PROB}"
        return report, EXIT_INFEASIBLE, None
    residual = verify_emm(result.measure, market, tol=args.tol).max_residual
    report = {
        "verb": "emm",
        "found": True,
        "min_slack": result.min_slack,
        "measure": [float(v) for v in result.measure.probs],
        "max_residual": residual,
    }
    return report, EXIT_OK, None


def _run_a0(scenario: Scenario, args) -> tuple[dict, int, Optional[str]]:
    family = scenario.family()
    objective = _claim_atoms(scenario, args.claim) if args.claim else None
    element = find_a0_element(family, objective=objective)
    report = {
        "verb": "a0",
        "xi": [float(v) for v in element.xi],
        "expectations": dict(zip(scenario.measures, map(float, family.probs @ element.xi))),
    }
    return report, EXIT_OK, None


def _run_audit(scenario: Scenario, args) -> tuple[dict, int, Optional[str]]:
    if args.budget is not None:
        result = claims_mod.search_counterexample(
            args.claim_id, budget=args.budget, seed=args.seed, tol=args.tol
        )
    else:
        xi = None
        if args.claim is not None:
            xi = _claim_atoms(scenario, args.claim)
        elif len(scenario.claims) == 1:
            (name,) = scenario.claims
            xi = _claim_atoms(scenario, name)
        f = _process(scenario, args.process) if args.process else None
        instance = AuditInstance(family=scenario.family(), xi=xi, f=f)
        try:
            result = claims_mod.audit(args.claim_id, instance, tol=args.tol)
        except ClaimPreconditionUnmet as exc:
            raise SchemaError(f"instance does not meet the claim's hypotheses: {exc}") from exc
    report = {"verb": "audit", "results": [result.as_dict()]}
    code = EXIT_OK
    if args.expect_pass and result.verdict != "pass":
        code = EXIT_DOMAIN
    if args.expect_counterexample and result.verdict != "counterexample":
        code = EXIT_DOMAIN
    return report, code, None


_HANDLERS = {
    "validate": _run_validate,
    "classify": _run_classify,
    "decompose": _run_decompose,
    "price": _run_price,
    "hedge": _run_hedge,
    "emm": _run_emm,
    "a0": _run_a0,
    "audit": _run_audit,
}


def _run_one(path: str, args: argparse.Namespace) -> tuple[dict, int, Optional[str]]:
    scenario = load_scenario(path)
    report, code, csv_text = _HANDLERS[args.verb](scenario, args)
    report.setdefault("input", str(path))
    if args.stamp:
        report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return report, code, csv_text


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.tol = _tolerance(args)
    except _UsageError as exc:
        print(f"doobkit: {exc}", file=sys.stderr)
        return EXIT_IO

    for path in args.inputs:
        if not Path(path).exists():
            print(f"doobkit: no such file: {path}", file=sys.stderr)
            return EXIT_IO
    if args.out is not None and len(args.inputs) > 1:
        print("doobkit: --out needs a single input file", file=sys.stderr)
        return EXIT_IO

    try:
        results = [_run_one(p, args) for p in args.inputs]
    # SchemaError, SpaceError and ShapeMismatch are ValueErrors; anything the
    # verb handlers did not translate themselves is bad input or a numerical
    # breakdown, both reported on stderr as an I/O-class failure
    except (ValueError, NumericalBreakdown, OSError) as exc:
        print(f"doobkit: {exc}", file=sys.stderr)
        return EXIT_IO

    worst = EXIT_OK
    for (report, code, csv_text), path in zip(results, args.inputs):
        worst = max(worst, code)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.out is not None:
            args.out.write_text(text, encoding="utf-8")
            if csv_text is not None:
                args.out.with_suffix(".csv").write_text(csv_text, encoding="utf-8")
        elif csv_text is not None:
            sys.stdout.write(csv_text)
        else:
            sys.stdout.write(text)
    return worst


if __name__ == "__main__":
    sys.exit(main())
