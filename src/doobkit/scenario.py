"""Scenario files: one JSON document describing a space, measures,
processes and claims.

Layout::

    {
      "atoms": 4,
      "horizon": 2,
      "filtration": [[[1,2,3,4]], [[1,2],[3,4]], [[1],[2],[3],[4]]],
      "measures": {"P1": [0.25, 0.25, 0.25, 0.25], ...},
      "processes": {"f": [[1.0], [1.12, 1.0], [1.2, 0.8, 1.2, 0.8]], ...},
      "claims": {"call90": {"time": 2, "values": [...]}, ...}
    }

Atom indices are 1-based in files and 0-based in memory.  Process values
are per cell per time; claim values are per cell of the claim's time.
Measure insertion order in the file fixes the family's extreme order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .space import (
    AdaptedProcess,
    FilteredSpace,
    Measure,
    MeasureFamily,
    SpaceError,
    build_space,
)

__all__ = ["SchemaError", "ClaimSpec", "Scenario", "parse_scenario", "load_scenario", "scenario_to_dict"]


class SchemaError(ValueError):
    """The scenario document does not match the schema."""


@dataclass(frozen=True, eq=False)
class ClaimSpec:
    """A payoff pinned to one time, one value per cell of that time."""

    time: int
    values: np.ndarray  # per cell of the filtration at `time`

    def atoms(self, space: FilteredSpace) -> np.ndarray:
        return space.expand(self.time, self.values)


@dataclass(frozen=True, eq=False)
class Scenario:
    space: FilteredSpace
    measures: dict[str, Measure]
    processes: dict[str, AdaptedProcess]
    claims: dict[str, ClaimSpec]

    def family(self, names: Optional[Sequence[str]] = None) -> MeasureFamily:
        """The measure family, in file order or the given name order."""
        if names is None:
            names = list(self.measures)
        try:
            extremes = tuple(self.measures[n] for n in names)
        except KeyError as exc:
            raise SchemaError(f"unknown measure {exc.args[0]!r}") from exc
        if not extremes:
            raise SchemaError("scenario defines no measures")
        return MeasureFamily(space=self.space, extremes=extremes)


def parse_scenario(doc: dict) -> Scenario:
    """Validate a decoded JSON document into a :class:`Scenario`."""
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")
    try:
        n_atoms = int(doc["atoms"])
        horizon = int(doc["horizon"])
        filtration = doc["filtration"]
    except KeyError as exc:
        raise SchemaError(f"missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad atoms/horizon: {exc}") from exc
    if not isinstance(filtration, list) or len(filtration) != horizon + 1:
        raise SchemaError("filtration must list horizon + 1 partitions")
    try:
        partitions = [
            [[int(a) - 1 for a in cell] for cell in level] for level in filtration
        ]
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad filtration entry: {exc}") from exc
    try:
        space = build_space(n_atoms, partitions)
    except SpaceError as exc:
        raise SchemaError(str(exc)) from exc

    sections = {key: doc.get(key, {}) for key in ("measures", "processes", "claims")}
    for key, section in sections.items():
        if not isinstance(section, dict):
            raise SchemaError(f"{key!r} must be a JSON object of named entries")

    measures: dict[str, Measure] = {}
    for name, probs in sections["measures"].items():
        try:
            measures[name] = Measure(np.asarray(probs, dtype=float))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"measure {name!r}: {exc}") from exc
        if len(measures[name]) != n_atoms:
            raise SchemaError(f"measure {name!r} has wrong length")

    processes: dict[str, AdaptedProcess] = {}
    for name, levels in sections["processes"].items():
        try:
            processes[name] = AdaptedProcess(
                space=space, per_time=tuple(np.asarray(lvl, dtype=float) for lvl in levels)
            )
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"process {name!r}: {exc}") from exc

    claims: dict[str, ClaimSpec] = {}
    for name, entry in sections["claims"].items():
        try:
            time = int(entry["time"])
            values = np.asarray(entry["values"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"claim {name!r}: {exc}") from exc
        if not 0 <= time <= horizon:
            raise SchemaError(f"claim {name!r}: time {time} outside 0..{horizon}")
        if values.shape != (space.n_cells(time),):
            raise SchemaError(
                f"claim {name!r}: expected {space.n_cells(time)} values at time {time}"
            )
        if not np.isfinite(values).all():
            raise SchemaError(f"claim {name!r}: non-finite values")
        claims[name] = ClaimSpec(time=time, values=values)

    return Scenario(space=space, measures=measures, processes=processes, claims=claims)


def load_scenario(path: str | Path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario(doc)


def scenario_to_dict(
    space: FilteredSpace,
    measures: Optional[dict[str, Measure]] = None,
    processes: Optional[dict[str, AdaptedProcess]] = None,
    claims: Optional[dict[str, ClaimSpec]] = None,
) -> dict:
    """Serialize back to the (1-based) file layout."""
    doc: dict = {
        "atoms": space.n_atoms,
        "horizon": space.horizon,
        "filtration": [
            [[a + 1 for a in cell] for cell in level] for level in space.partitions
        ],
    }
    if measures:
        doc["measures"] = {name: list(map(float, p.probs)) for name, p in measures.items()}
    if processes:
        doc["processes"] = {
            name: [list(map(float, proc.at_cells(m))) for m in range(space.horizon + 1)]
            for name, proc in processes.items()
        }
    if claims:
        doc["claims"] = {
            name: {"time": c.time, "values": list(map(float, c.values))}
            for name, c in claims.items()
        }
    return doc
