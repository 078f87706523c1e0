from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doobkit import AdaptedProcess, MarketModel, Measure, MeasureFamily, build_space, pricing
from doobkit.lp import solve

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_paths():
    return {
        "a": FIXTURES / "fixture-a.json",
        "b": FIXTURES / "fixture-b.json",
        "arbitrage": FIXTURES / "arbitrage.json",
        "gen": FIXTURES / "genN-g.json",
    }


# halving the largest weight uncovers a row it held tight; raising a dual entry
# by 2 breaks the dual row of the constant slice, whose column is all ones;
# doubled weights still dominate, but their sum is twice the dual's value
def _lower_a_weight(out):
    w = out.x.copy()
    w[np.argmax(w)] /= 2.0
    return replace(out, x=w)


def _raise_a_dual_entry(out):
    y = out.y_ge.copy()
    y[0] += 2.0
    return replace(out, y_ge=y)


#: per certificate check of the generator price, an optimal outcome spoilt to fail it
SPOILS = {
    "domination": _lower_a_weight,
    "dual feasibility": _raise_a_dual_entry,
    "gap": lambda out: replace(out, x=2.0 * out.x),
}


@pytest.fixture()
def spoil_pricing_lp(monkeypatch):
    """``spoil(check)`` makes every pricing LP come back optimal but spoilt
    for that check of the generator-price certificate."""
    def spoil(check):
        monkeypatch.setattr(pricing, "solve", lambda lp: SPOILS[check](solve(lp)))
    return spoil


@pytest.fixture()
def space_a():
    return build_space(3, [[[0, 1, 2]], [[0], [1], [2]]])


@pytest.fixture()
def family_a(space_a):
    qa = Measure(np.array([0.3, 0.5, 0.2]))
    qb = Measure(np.array([0.57, 0.05, 0.38]))
    return MeasureFamily(space=space_a, extremes=(qa, qb))


@pytest.fixture()
def market_a(space_a):
    s = AdaptedProcess(
        space=space_a, per_time=(np.array([100.0]), np.array([120.0, 100.0, 70.0]))
    )
    return MarketModel(S=s, bounds=((100.0, 100.0), (70.0, 120.0)))


@pytest.fixture()
def call_a():
    return np.array([30.0, 10.0, 0.0])


@pytest.fixture()
def put_a():
    return np.array([0.0, 0.0, 10.0])


@pytest.fixture()
def space_b():
    return build_space(4, [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]])


@pytest.fixture()
def family_b(space_b):
    p1 = Measure(np.array([0.25, 0.25, 0.25, 0.25]))
    p2 = Measure(np.array([0.4, 0.1, 0.1, 0.4]))
    return MeasureFamily(space=space_b, extremes=(p1, p2))


@pytest.fixture()
def xi_b():
    return np.array([1.2, 0.8, 1.2, 0.8])
