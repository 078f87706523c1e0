"""Deterministic benchmark instances.

Every scale instance follows one recipe, drawn from a fresh
``numpy.random.default_rng(seed)`` stream in this order:

1. k extremes, each Dirichlet(2) over the atoms, floored at 0.1/n;
2. ``random_supermartingale`` (the process ``f`` to certify);
3. ``random_martingale(start=100, spread=5)`` (the price ``S``);
4. the claim ``(S_N - 100)+``.

The space is the complete b-ary tree of depth N: b**N atoms, and the
time-m cells are runs of b**(N-m) consecutive atoms, so the terminal
partition is atom-fine.  Each instance gets its own stream, so an
instance's numbers do not depend on which instances a workload builds
before it; seed 0 on the 243-atom 3-ary tree is the instance whose
free-mode price the simplex kernel gets wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import doobkit as dk
from doobkit import generators, scenario

from checks import Cells

#: seed of the instances whose timing is one large dense LP solve; see
#: ``workloads`` for why those do not follow ``--seed``
REFERENCE_SEED = 0


def tree_partitions(b: int, depth: int) -> list[list[list[int]]]:
    """Partitions of the b-ary tree: time-m cells are blocks of b**(depth-m) atoms."""
    return [
        [list(range(c * b ** (depth - m), (c + 1) * b ** (depth - m))) for c in range(b**m)]
        for m in range(depth + 1)
    ]


def tree_space(b: int, depth: int) -> dk.FilteredSpace:
    if b < 2 or depth < 1:
        raise ValueError("need branching b >= 2 and depth N >= 1")
    return dk.build_space(b**depth, tree_partitions(b, depth))


def tree_cells(b: int, depth: int) -> Cells:
    """The benchmark's own atom->cell maps of the b-ary tree (atom // b**(N-m))."""
    atoms = np.arange(b**depth)
    return Cells([atoms // b ** (depth - m) for m in range(depth + 1)])


@dataclass(frozen=True, eq=False)
class Instance:
    name: str
    family: dk.MeasureFamily
    cells: Cells
    f: Optional[dk.AdaptedProcess] = None
    market: Optional[dk.MarketModel] = None
    claim: Optional[np.ndarray] = None  # per atom

    @property
    def space(self) -> dk.FilteredSpace:
        return self.family.space

    @property
    def probs(self) -> list[np.ndarray]:
        return [p.probs for p in self.family]


def tree_instance(b: int, depth: int, k: int, seed) -> Instance:
    """The recipe above on the b-ary tree of depth N with k extremes; ``seed``
    is anything ``default_rng`` takes."""
    if b <= k:
        # with b <= k the k conditional rows of every node have full rank,
        # so the only martingale is constant and the claim is identically 0
        raise ValueError(f"need branching b > k extremes, got b={b}, k={k}")
    rng = np.random.default_rng(seed)
    space = tree_space(b, depth)
    n = space.n_atoms
    extremes = []
    for _ in range(k):
        p = 0.9 * rng.dirichlet(np.full(n, 2.0)) + 0.1 / n
        extremes.append(dk.Measure(p / p.sum()))
    family = dk.MeasureFamily(space=space, extremes=tuple(extremes))
    f, _, _ = generators.random_supermartingale(rng, space, family)
    s = generators.random_martingale(rng, space, family, start=100.0, spread=5.0)
    cells = tree_cells(b, depth)
    claim = np.maximum(s.at_cells(depth)[cells.maps[depth]] - 100.0, 0.0)
    return Instance(
        name=f"{b}^{depth}={n} atoms k={k} seed={seed}",
        family=family,
        cells=cells,
        f=f,
        market=dk.MarketModel(S=s),
        claim=claim,
    )


#: (atoms, periods, extremes) of the tiny instances.  Instance i gets shape
#: i mod len: every seed draws the same mix of sizes, which sets most of a
#: call's cost, so a verb's total over the tiny instances hardly moves
#: between seeds while the numbers in them do
SMALL_SHAPES = [(n, h, k) for n in range(2, 9) for h in (1, 2, 3) for k in (1, 2, 3)]


def small_space(rng: np.random.Generator, n_atoms: int, horizon: int) -> dk.FilteredSpace:
    """``generators.random_space`` redrawn until it has the given shape."""
    while True:
        space = generators.random_space(rng, max_atoms=n_atoms, max_periods=horizon)
        if space.n_atoms == n_atoms and space.horizon == horizon:
            return space


def small_family(rng: np.random.Generator, index: int) -> dk.MeasureFamily:
    """``generators.random_family`` on ``small_space``, redrawn until it has
    the extreme count of shape ``index``."""
    n_atoms, horizon, k = SMALL_SHAPES[index % len(SMALL_SHAPES)]
    space = small_space(rng, n_atoms, horizon)
    while True:
        family = generators.random_family(rng, space, max_extremes=k)
        if len(family.extremes) == k:
            return family


def small_market(rng: np.random.Generator, index: int) -> Instance:
    """A random tiny market of shape ``index`` whose extremes are martingale
    measures for S, with the claim (S_N - S_0)+."""
    family = small_family(rng, index)
    space = family.space
    s = generators.random_martingale(rng, space, family, start=100.0, spread=5.0)
    market = dk.MarketModel(S=s)
    cells = Cells.of(space)
    terminal = s.at_cells(space.horizon)[cells.maps[-1]]
    return Instance(
        name=f"market #{index}",
        family=family,
        cells=cells,
        market=market,
        claim=np.maximum(terminal - 100.0, 0.0),
    )


def small_supermartingale(rng: np.random.Generator, index: int) -> Instance:
    """A random tiny family of shape ``index`` with a decomposable supermartingale."""
    family = small_family(rng, index)
    space = family.space
    f, _, _ = generators.random_supermartingale(rng, space, family)
    return Instance(name=f"supermartingale #{index}", family=family, cells=Cells.of(space), f=f)


def fixture_market(path: Path, claim: str) -> Instance:
    """A market from a scenario file: its measures, price process ``S`` and
    the named claim."""
    scen = scenario.load_scenario(path)
    cells = Cells.of(scen.space)
    spec = scen.claims[claim]
    return Instance(
        name=f"{path.name} {claim}",
        family=scen.family(),
        cells=cells,
        market=dk.MarketModel(S=scen.processes["S"]),
        claim=cells.atoms(spec.time, spec.values),
    )


def scenario_doc(inst: Instance) -> dict:
    """The instance as a scenario document: measures P1.., processes f and S,
    claim ``call`` at the horizon."""
    space = inst.space
    processes = {}
    if inst.f is not None:
        processes["f"] = inst.f
    if inst.market is not None:
        processes["S"] = inst.market.S
    claims = None
    if inst.claim is not None:
        per_cell = np.bincount(
            inst.cells.maps[-1], weights=inst.claim, minlength=inst.cells.n_cells(-1)
        ) / np.bincount(inst.cells.maps[-1], minlength=inst.cells.n_cells(-1))
        claims = {"call": scenario.ClaimSpec(time=space.horizon, values=per_cell)}
    measures = {f"P{i + 1}": p for i, p in enumerate(inst.family)}
    return scenario.scenario_to_dict(space, measures=measures, processes=processes, claims=claims)


def write_scenario(inst: Instance, path: Path) -> int:
    """Write the instance's scenario file, read it back through
    ``load_scenario`` and check the round trip; returns the file's size."""
    text = json.dumps(scenario_doc(inst))
    path.write_text(text, encoding="utf-8")
    back = scenario.load_scenario(path)
    if back.space.partitions != inst.space.partitions or any(
        not np.array_equal(back.measures[f"P{i + 1}"].probs, p)
        for i, p in enumerate(inst.probs)
    ):
        raise RuntimeError(f"scenario round trip changed {path.name}")
    return len(text.encode("utf-8"))
