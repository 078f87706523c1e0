"""CLI verbs, report shapes, exit codes, and output determinism."""

import json

import jsonschema
import pytest

from doobkit import lp as lp_module
from doobkit.cli import main
from doobkit.lp import solve_batch

NUMBER = {"type": "number"}
NUMBERS = {"type": "array", "items": NUMBER}
LEVELS = {"type": "array", "items": NUMBERS}

PRICING_SCHEMA = {
    "type": "object",
    "required": ["mode", "fair_price", "gamma", "dominator", "lower_bound", "strategy"],
    "properties": {
        "mode": {"enum": ["a0", "generators"]},
        "fair_price": NUMBER,
        "gamma": {"anyOf": [NUMBERS, {"type": "null"}]},
        "dominator": NUMBERS,
        "lower_bound": NUMBER,
        "strategy": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["H0", "H", "capital"],
                    "properties": {"H0": LEVELS, "H": LEVELS, "capital": LEVELS},
                },
            ]
        },
    },
}

DECOMPOSITION_SCHEMA = {
    "type": "object",
    "required": ["status", "martingale", "compensator", "steps", "checks"],
    "properties": {
        "status": {"enum": ["ok", "fail"]},
        "martingale": {"anyOf": [LEVELS, {"type": "null"}]},
        "compensator": {"anyOf": [LEVELS, {"type": "null"}]},
        "steps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["m", "method", "alpha"],
                "properties": {
                    "m": {"type": "integer"},
                    "method": {"enum": ["lp", "alpha"]},
                    "alpha": {"anyOf": [NUMBER, {"type": "null"}]},
                },
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "max_violation"],
                "properties": {
                    "name": {
                        "enum": [
                            "reconstruction",
                            "compensator-starts-at-zero",
                            "compensator-monotone",
                            "martingale-extremes",
                        ]
                    },
                    "max_violation": NUMBER,
                },
            },
        },
    },
}

AUDIT_SCHEMA = {
    "type": "object",
    "required": ["results"],
    "properties": {
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["claim", "verdict", "violation", "detail"],
                "properties": {
                    "claim": {"type": "string"},
                    "verdict": {"enum": ["pass", "counterexample"]},
                    "violation": NUMBER,
                    "witness": {"type": "object"},
                },
            },
        }
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jrun(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else out, err


class TestValidate:
    def test_fixture_b(self, capsys, fixture_paths):
        code, report, _ = jrun(capsys, "validate", str(fixture_paths["b"]))
        assert code == 0
        assert report["atoms"] == 4
        assert report["measures"] == ["P1", "P2"]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3
        assert "doobkit:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/file.json")
        assert code == 3

    def test_unknown_flag(self, capsys, fixture_paths):
        code, _, err = run(capsys, "validate", str(fixture_paths["b"]), "--frobnicate")
        assert code == 3


class TestPrice:
    def test_generator_mode_call(self, capsys, fixture_paths):
        code, report, _ = jrun(
            capsys, "price", str(fixture_paths["a"]), "--claim", "call90",
            "--mode", "generators", "--generators", "S",
        )
        assert code == 0
        assert report["fair_price"] == pytest.approx(25.0, abs=1e-9)
        assert report["mode"] == "generators"
        assert report["strategy"] is None

    def test_a0_mode_call(self, capsys, fixture_paths):
        code, report, _ = jrun(capsys, "price", str(fixture_paths["a"]), "--claim", "call90")
        assert code == 0
        assert report["fair_price"] == pytest.approx(18.0, abs=1e-6)
        assert report["lower_bound"] == pytest.approx(17.6, abs=1e-9)

    def test_unknown_claim_is_schema_error(self, capsys, fixture_paths):
        code, _, err = run(capsys, "price", str(fixture_paths["a"]), "--claim", "nope")
        assert code == 3


class TestDecompose:
    def test_generated_fixture(self, capsys, fixture_paths):
        code, report, _ = jrun(capsys, "decompose", str(fixture_paths["gen"]), "--process", "f")
        assert code == 0
        assert report["status"] == "ok"
        assert {s["method"] for s in report["steps"]} <= {"lp", "alpha"}
        assert all(c["max_violation"] <= 1e-9 for c in report["checks"])

    def test_envelope_fails(self, capsys, fixture_paths):
        code, report, _ = jrun(
            capsys, "decompose", str(fixture_paths["b"]), "--process", "envelope"
        )
        assert code == 1
        assert report["status"] == "fail"

    def test_removed_strategy_is_a_usage_error(self, capsys, fixture_paths):
        code, out, err = run(
            capsys, "decompose", str(fixture_paths["gen"]), "--strategy", "alpha-with-xi0"
        )
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "alpha-with-xi0" in err


class TestClassify:
    def test_supermartingale(self, capsys, fixture_paths):
        code, report, _ = jrun(capsys, "classify", str(fixture_paths["b"]), "--process", "f")
        assert code == 0
        assert report["kind"] == "supermartingale-strict"

    def test_not_supermartingale_exits_one(self, capsys, fixture_paths):
        code, report, _ = jrun(
            capsys, "classify", str(fixture_paths["b"]), "--process", "envelope"
        )
        assert code == 1
        assert report["worst_violation"]["magnitude"] == pytest.approx(0.06, abs=1e-10)


class TestEmm:
    def test_fixture_a(self, capsys, fixture_paths):
        code, report, _ = jrun(capsys, "emm", str(fixture_paths["a"]), "--process", "S")
        assert code == 0
        assert report["found"] is True
        assert report["max_residual"] <= 1e-9

    def test_arbitrage_exits_two(self, capsys, fixture_paths):
        code, report, _ = jrun(capsys, "emm", str(fixture_paths["arbitrage"]), "--process", "S")
        assert code == 2
        assert report["found"] is False
        assert "reason" not in report  # no zero-drift law at the root

    def test_atoms_below_the_measure_floor_exit_two_with_a_reason(self, capsys, tmp_path):
        # each node's floor is about 1e-8, so a measure exists, but an atom's
        # product is about 1e-16, below what a Measure holds
        up = 1e8
        doc = {
            "atoms": 4,
            "horizon": 2,
            "filtration": [[[1, 2, 3, 4]], [[1, 2], [3, 4]], [[1], [2], [3], [4]]],
            "measures": {"P": [0.25, 0.25, 0.25, 0.25]},
            "processes": {
                "S": [[100.0], [100.0 + up, 99.0], [100.0 + 2 * up, 99.0 + up, 99.0 + up, 98.0]]
            },
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report, _ = jrun(capsys, "emm", str(path), "--process", "S")
        assert code == 2
        assert report["found"] is False
        assert 1e-10 < report["min_slack"] < 1e-7
        assert report["reason"] == (
            "a martingale measure exists, but an atom is at or below 1e-15"
        )


class TestA0:
    def test_default_interior(self, capsys, fixture_paths):
        code, report, _ = jrun(capsys, "a0", str(fixture_paths["b"]))
        assert code == 0
        assert all(abs(v - 1.0) <= 1e-9 for v in report["expectations"].values())

    def test_with_objective_claim(self, capsys, fixture_paths):
        code, report, _ = jrun(capsys, "a0", str(fixture_paths["b"]), "--claim", "xi")
        assert code == 0
        assert all(v >= -1e-12 for v in report["xi"])


class TestAudit:
    def test_expected_counterexample(self, capsys, fixture_paths):
        code, report, _ = jrun(
            capsys, "audit", str(fixture_paths["b"]),
            "--claim-id", "lemma-tmars5", "--expect-counterexample",
        )
        assert code == 0
        result = report["results"][0]
        assert result["verdict"] == "counterexample"
        assert result["violation"] == pytest.approx(0.06, abs=1e-10)
        assert "witness" in result

    def test_expect_pass_fails_on_counterexample(self, capsys, fixture_paths):
        code, _, _ = jrun(
            capsys, "audit", str(fixture_paths["b"]),
            "--claim-id", "lemma-tmars5", "--expect-pass",
        )
        assert code == 1

    def test_search_mode(self, capsys, fixture_paths):
        code, report, _ = jrun(
            capsys, "audit", str(fixture_paths["b"]),
            "--claim-id", "lemma-tmars5", "--budget", "300", "--seed", "7",
            "--expect-counterexample",
        )
        assert code == 0
        assert report["results"][0]["verdict"] == "counterexample"


class TestHedge:
    def test_call_with_csv(self, capsys, tmp_path, fixture_paths):
        out = tmp_path / "hedge.json"
        code, _, _ = run(
            capsys, "hedge", str(fixture_paths["a"]), "--claim", "call90",
            "--out", str(out), "--csv",
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["fair_price"] == pytest.approx(25.0, abs=1e-9)
        assert report["strategy"]["H"][1] == [0.25]
        csv_lines = (tmp_path / "hedge.csv").read_text().splitlines()
        assert csv_lines[0] == "time,cell,X,H0,H,S"
        assert len(csv_lines) == 1 + 1 + 3  # header + time 0 + three time-1 cells

    def test_non_emm_family_exits_two(self, capsys, tmp_path):
        doc = {
            "atoms": 2,
            "horizon": 1,
            "filtration": [[[1, 2]], [[1], [2]]],
            "measures": {"P": [0.9, 0.1]},
            "processes": {"S": [[100.0], [120.0, 80.0]]},
            "claims": {"c": {"time": 1, "values": [20.0, 0.0]}},
        }
        path = tmp_path / "biased.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report, _ = jrun(capsys, "hedge", str(path), "--claim", "c")
        assert code == 2
        assert report["status"] == "infeasible"


class TestNumericalBreakdown:
    @pytest.mark.parametrize("argv", [
        ["price", "--claim", "call90"],
        ["price", "--claim", "call90", "--mode", "generators", "--generators", "S"],
        ["hedge", "--claim", "call90"],
        ["a0", "--claim", "call90"],
    ])
    def test_exits_three_with_one_line(self, capsys, fixture_paths, monkeypatch, argv):
        # a kernel answer off its program trips the residual gate
        def off(law, rhs, cost, n_free):
            x, y, ray = solve_batch(law, rhs, cost, n_free)
            return x + 1.0, y, ray

        monkeypatch.setattr(lp_module, "solve_batch", off)
        code, out, err = run(capsys, argv[0], str(fixture_paths["a"]), *argv[1:])
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("doobkit: ")

    @pytest.mark.parametrize("argv", [
        ["price", "--claim", "call90", "--mode", "generators", "--generators", "S"],
        ["hedge", "--claim", "call90"],
    ])
    @pytest.mark.parametrize("check", ["domination", "dual feasibility", "gap"])
    def test_uncertified_generator_price(self, capsys, fixture_paths, spoil_pricing_lp,
                                         argv, check):
        spoil_pricing_lp(check)
        code, out, err = run(capsys, argv[0], str(fixture_paths["a"]), *argv[1:])
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("doobkit: ")
        assert f"{check} check" in err


class TestTolerance:
    def test_env_var_overrides_default(self, capsys, fixture_paths, monkeypatch):
        # a huge tolerance makes the envelope process count as a supermartingale
        monkeypatch.setenv("DOOBKIT_TOL", "1.0")
        code, report, _ = jrun(
            capsys, "classify", str(fixture_paths["b"]), "--process", "envelope"
        )
        assert code == 0
        assert report["kind"] != "not-supermartingale"

    def test_flag_beats_env(self, capsys, fixture_paths, monkeypatch):
        monkeypatch.setenv("DOOBKIT_TOL", "1.0")
        code, report, _ = jrun(
            capsys, "classify", str(fixture_paths["b"]), "--process", "envelope",
            "--tol", "1e-9",
        )
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_flag_must_be_finite_and_nonnegative(self, capsys, fixture_paths, value):
        code, out, err = run(capsys, "classify", str(fixture_paths["b"]), "--process", "envelope",
                             "--tol", value)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("doobkit: --tol ")

    @pytest.mark.parametrize("value", ["abc", "nan", "-1e-9"])
    def test_env_var_must_be_finite_and_nonnegative(self, capsys, fixture_paths, monkeypatch,
                                                    value):
        monkeypatch.setenv("DOOBKIT_TOL", value)
        code, out, err = run(capsys, "decompose", str(fixture_paths["gen"]))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("doobkit: DOOBKIT_TOL ")

    def test_zero_is_accepted(self, capsys, fixture_paths):
        code, report, _ = jrun(capsys, "classify", str(fixture_paths["b"]), "--process", "envelope",
                               "--tol", "0")
        assert code == 1
        assert report["kind"] == "not-supermartingale"


class TestDeterminism:
    def test_identical_bytes(self, capsys, fixture_paths):
        _, out1, _ = run(capsys, "price", str(fixture_paths["a"]), "--claim", "call90")
        _, out2, _ = run(capsys, "price", str(fixture_paths["a"]), "--claim", "call90")
        assert out1 == out2

    def test_search_deterministic(self, capsys, fixture_paths):
        args = (
            "audit", str(fixture_paths["b"]), "--claim-id", "thm-fmars5",
            "--budget", "200", "--seed", "9",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_stamp_adds_timestamp(self, capsys, fixture_paths):
        _, report, _ = jrun(capsys, "validate", str(fixture_paths["b"]), "--stamp")
        assert "generated_at" in report


class TestReportSchemas:
    def test_pricing_report_validates(self, capsys, fixture_paths):
        for mode_args in ((), ("--mode", "generators", "--generators", "S")):
            _, report, _ = jrun(
                capsys, "price", str(fixture_paths["a"]), "--claim", "call90", *mode_args
            )
            jsonschema.validate(report, PRICING_SCHEMA)

    def test_hedge_report_validates(self, capsys, fixture_paths):
        _, report, _ = jrun(capsys, "hedge", str(fixture_paths["a"]), "--claim", "put80")
        jsonschema.validate(report, PRICING_SCHEMA)
        assert report["strategy"] is not None

    def test_decomposition_report_validates(self, capsys, fixture_paths):
        _, report, _ = jrun(capsys, "decompose", str(fixture_paths["gen"]), "--process", "f")
        jsonschema.validate(report, DECOMPOSITION_SCHEMA)
        _, report, _ = jrun(capsys, "decompose", str(fixture_paths["b"]), "--process", "envelope")
        jsonschema.validate(report, DECOMPOSITION_SCHEMA)

    def test_audit_report_validates_and_witness_reloads(self, capsys, fixture_paths):
        _, report, _ = jrun(
            capsys, "audit", str(fixture_paths["b"]), "--claim-id", "thm-fmars5"
        )
        jsonschema.validate(report, AUDIT_SCHEMA)
        from doobkit import parse_scenario

        witness = report["results"][0]["witness"]
        scenario = parse_scenario(witness)
        assert scenario.space.n_atoms == 4


class TestMultipleInputs:
    def test_two_inputs_give_two_reports_in_order(self, capsys, fixture_paths):
        paths = [str(fixture_paths["a"]), str(fixture_paths["b"])]
        code, out, _ = run(capsys, "validate", *paths)
        assert code == 0
        decoder = json.JSONDecoder()
        reports, at = [], 0
        while at < len(out):
            report, at = decoder.raw_decode(out, at)
            reports.append(report)
            at += 1  # the newline after each report
        assert [r["input"] for r in reports] == paths
        for report, path in zip(reports, paths):
            assert report == jrun(capsys, "validate", path)[1]
        assert run(capsys, "validate", *paths, "--jobs", "2")[0] == 3  # no such option

    def test_out_requires_single_input(self, capsys, fixture_paths, tmp_path):
        code, _, err = run(
            capsys, "validate", str(fixture_paths["a"]), str(fixture_paths["b"]),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 3
