"""Scenario file schema: parsing, validation, round trip."""

import json

import numpy as np
import pytest

from doobkit import SchemaError, load_scenario, parse_scenario
from doobkit.scenario import scenario_to_dict


def _minimal():
    return {
        "atoms": 4,
        "horizon": 2,
        "filtration": [[[1, 2, 3, 4]], [[1, 2], [3, 4]], [[1], [2], [3], [4]]],
        "measures": {"P1": [0.25, 0.25, 0.25, 0.25], "P2": [0.4, 0.1, 0.1, 0.4]},
        "processes": {"f": [[2.0], [1.0, 1.0], [0.5, 0.5, 0.5, 0.5]]},
        "claims": {"xi": {"time": 2, "values": [1.2, 0.8, 1.2, 0.8]}},
    }


def test_fixture_files_load(fixture_paths):
    for path in fixture_paths.values():
        scenario = load_scenario(path)
        assert scenario.space.n_atoms >= 2


def test_one_based_atoms_are_shifted():
    scenario = parse_scenario(_minimal())
    assert scenario.space.cells(1) == ((0, 1), (2, 3))


def test_claim_expansion():
    scenario = parse_scenario(_minimal())
    np.testing.assert_allclose(
        scenario.claims["xi"].atoms(scenario.space), [1.2, 0.8, 1.2, 0.8], atol=0
    )


def test_family_order_follows_file():
    scenario = parse_scenario(_minimal())
    family = scenario.family()
    np.testing.assert_allclose(family.extremes[0].probs, 0.25, atol=0)
    family = scenario.family(names=["P2", "P1"])
    np.testing.assert_allclose(family.extremes[0].probs, [0.4, 0.1, 0.1, 0.4], atol=0)
    with pytest.raises(SchemaError):
        scenario.family(names=["P3"])


def test_round_trip():
    scenario = parse_scenario(_minimal())
    doc = scenario_to_dict(
        scenario.space,
        measures=scenario.measures,
        processes=scenario.processes,
        claims=scenario.claims,
    )
    again = parse_scenario(json.loads(json.dumps(doc)))
    assert again.space == scenario.space
    np.testing.assert_allclose(
        again.processes["f"].at_cells(2), scenario.processes["f"].at_cells(2), atol=0
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("atoms"),
        lambda d: d.update(filtration=d["filtration"][:2]),
        lambda d: d["measures"].update(P1=[0.5, 0.5]),
        lambda d: d["measures"].update(P1=[0.5, 0.5, 0.5, -0.5]),
        lambda d: d["processes"].update(f=[[2.0], [1.0], [0.5] * 4]),
        lambda d: d["claims"].update(xi={"time": 9, "values": [1.0]}),
        lambda d: d["claims"].update(xi={"time": 2, "values": [1.0]}),
        lambda d: d.update(filtration=[[[1, 2]], [[1], [2]], [[1], [2]]]),
    ],
)
def test_schema_violations_raise(mutate):
    doc = _minimal()
    mutate(doc)
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_scenario(path)


@pytest.mark.parametrize("section", ["measures", "processes", "claims"])
@pytest.mark.parametrize("shape", ["list", "null", "string"])
def test_section_that_is_no_object_is_a_schema_error(section, shape):
    doc = _minimal()
    doc[section] = {
        "list": list(doc[section].values()),
        "null": None,
        "string": "xi",
    }[shape]
    with pytest.raises(SchemaError, match=f"'{section}' must be a JSON object"):
        parse_scenario(doc)
