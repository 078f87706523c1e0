"""Filtered spaces, measures, and the conditional-expectation calculus."""

import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doobkit import (
    AdaptedProcess,
    BadCover,
    Measure,
    MeasureFamily,
    NonRefining,
    ShapeMismatch,
    TrivialRootMissing,
    build_space,
)
from doobkit.generators import product_family, random_family, random_space
from doobkit.space import (
    _atom_cell,
    _cell_bins,
    _cond_exp_back,
    _step_bins,
    compose_laws,
    cond_exp_cells,
    cond_exp_step,
    ess_sup_cond_exp_cells,
    node_laws,
)

from .oracles import (
    brute_atom_to_cell,
    brute_cell_masses,
    brute_children,
    brute_cond_exp,
    brute_parent_cell,
    brute_restrict,
    chained_masses,
    mixture,
)
from .trees import tree_draw, tree_space

XI = np.array([1.0, 3.0, 2.0, 6.0])
NOT_A_COVER = "cells do not partition the 3 atoms exactly once"
NO_ROOT = "partition 0 must be the single cell of all atoms"


def _exactly(message):
    return f"^{re.escape(message)}$"


class TestBuildSpace:
    def test_fixture_b_valid(self, space_b):
        assert space_b.horizon == 2
        assert space_b.n_cells(1) == 2
        assert space_b.cells(1) == ((0, 1), (2, 3))

    def test_fixture_a_valid(self, space_a):
        assert space_a.horizon == 1
        assert space_a.n_cells(1) == 3

    def test_cells_canonicalized(self):
        space = build_space(4, [[[3, 1, 0, 2]], [[2, 3], [1, 0]], [[3], [1], [0], [2]]])
        assert space.cells(1) == ((0, 1), (2, 3))
        assert space.cells(2) == ((0,), (1,), (2,), (3,))

    def test_bad_cover(self):
        with pytest.raises(BadCover, match=_exactly(f"time 0: {NOT_A_COVER}")):
            build_space(3, [[[0, 1]], [[0], [1], [2]]])

    def test_overlap_is_bad_cover(self):
        with pytest.raises(BadCover, match=_exactly(f"time 1: {NOT_A_COVER}")):
            build_space(3, [[[0, 1, 2]], [[0, 1], [1, 2]]])

    def test_trivial_root_missing(self):
        with pytest.raises(TrivialRootMissing, match=_exactly(NO_ROOT)):
            build_space(3, [[[0], [1, 2]], [[0], [1], [2]]])

    def test_non_refining(self):
        with pytest.raises(NonRefining, match=_exactly("time 2: cell (1, 2) straddles time-1 cells [0, 1]")):
            build_space(4, [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1, 2], [3]]])

    @pytest.mark.parametrize(
        "cells",
        [
            [[0, 1], [3]],  # atom out of range, one missing
            [[-1, 1], [2]],  # negative atom, one missing
            [[-1, 0], [1]],  # negative atom in place of the missing one
            [[0, 0, 1], [2]],  # atom listed twice in one cell
            [[0, 1], [2, 5]],  # one atom too many
            [],  # no cells at all
        ],
    )
    def test_out_of_range_or_repeated_atoms_are_bad_cover(self, cells):
        with pytest.raises(BadCover, match=_exactly(f"time 1: {NOT_A_COVER}")):
            build_space(3, [[[0, 1, 2]], cells])

    @pytest.mark.parametrize(
        "n_atoms, partitions, error, message",
        [
            # an empty cell is named before the cover of its own level
            (3, [[[0, 1, 2]], [[], [0, 1]]], BadCover, "time 1: empty cell"),
            # a level's cover is checked before a later level's empty cell
            (3, [[[0, 1, 2]], [[0], [1]], [[0], [1], [2], []]], BadCover, f"time 1: {NOT_A_COVER}"),
            # every cover is checked before the root
            (3, [[[0], [1, 2]], [[0], [1]]], BadCover, f"time 1: {NOT_A_COVER}"),
            (3, [[[0], [1, 2]], [[], [0], [1], [2]]], BadCover, "time 1: empty cell"),
            # the root before refinement
            (4, [[[0, 1], [2, 3]], [[0, 2], [1, 3]]], TrivialRootMissing, NO_ROOT),
            # the first straddling cell of the first such level, its owners sorted
            (
                6,
                [[[0, 1, 2, 3, 4, 5]], [[0, 1], [2, 3], [4, 5]], [[4, 2, 0], [5, 3, 1]]],
                NonRefining,
                "time 2: cell (0, 2, 4) straddles time-1 cells [0, 1, 2]",
            ),
            (
                6,
                [
                    [[0, 1, 2, 3, 4, 5]],
                    [[3, 4, 5], [0, 1, 2]],
                    [[0, 3], [1, 2], [4], [5]],
                    [[0], [3], [1, 4], [2, 5]],
                ],
                NonRefining,
                "time 2: cell (0, 3) straddles time-1 cells [0, 1]",
            ),
        ],
    )
    def test_first_fault_wins(self, n_atoms, partitions, error, message):
        with pytest.raises(error, match=_exactly(message)):
            build_space(n_atoms, partitions)


class TestNodeTable:
    # the children of time-1 cell 0 are cells 0 and 2, not a run of cells
    INTERLEAVED = [[[0, 1, 2, 3]], [[0, 2], [1, 3]], [[0], [1], [2], [3]]]

    def _spaces(self):
        yield build_space(4, self.INTERLEAVED)
        for seed in range(40):
            yield random_space(np.random.default_rng(seed), max_atoms=8, max_periods=3)

    def test_matches_partition_scans(self):
        rng = np.random.default_rng(0)
        for space in self._spaces():
            for m in range(space.horizon + 1):
                assert space.atom_to_cell(m).tolist() == brute_atom_to_cell(space, m)
                if m:
                    assert space.parent_cell(m).tolist() == brute_parent_cell(space, m)
                    for b in range(space.n_cells(m - 1)):
                        assert space.children(m, b).tolist() == brute_children(space, m, b)
                measurable = space.expand(m, rng.normal(size=space.n_cells(m)))
                want, _ = brute_restrict(space, m, measurable)
                assert space.restrict(m, measurable).tolist() == want
                rough = rng.normal(size=space.n_atoms)
                _, bad = brute_restrict(space, m, rough)
                if bad is None:
                    assert space.restrict(m, rough).tolist() == rough.tolist()
                else:
                    with pytest.raises(ShapeMismatch, match=f"cell {bad} spans"):
                        space.restrict(m, rough)

    def test_build_space_seeds_atom_to_cell(self):
        spaces = [*self._spaces(), tree_space(3, 6), tree_space(9, 3)]
        for space in spaces:
            for m in range(space.horizon + 1):
                seeded = space._table[_atom_cell, m]
                assert seeded.tolist() == brute_atom_to_cell(space, m)
                assert not seeded.flags.writeable
                # read from the table, not built again
                assert space.atom_to_cell(m) is seeded

    def test_interleaved_children(self):
        space = build_space(4, self.INTERLEAVED)
        assert space.children(2, 0).tolist() == [0, 2]
        assert space.children(2, 1).tolist() == [1, 3]
        assert space.children(1, 0).tolist() == [0, 1]

    def test_arrays_read_only(self, space_b):
        order, starts = space_b.children_table(2)
        for arr in (space_b.atom_to_cell(1), space_b.parent_cell(2), space_b.children(2, 1), order, starts):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 5

    def test_table_invisible_to_eq_hash_repr(self):
        used = build_space(4, self.INTERLEAVED)
        fresh = build_space(4, self.INTERLEAVED)
        used.children(2, 1)
        used.restrict(1, np.zeros(4))
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == (
            "FilteredSpace(n_atoms=4, partitions=(((0, 1, 2, 3),), ((0, 2), (1, 3)), "
            "((0,), (1,), (2,), (3,))))"
        )

    def test_restrict_tolerance_edges(self, space_b):
        # cells (0, 1) and (2, 3); measurability is exact equality
        np.testing.assert_array_equal(space_b.restrict(1, [2.0, 2.0, 1.0, 1.0]), [2.0, 1.0])
        np.testing.assert_array_equal(space_b.restrict(1, [0.0, -0.0, 1.0, 1.0]), [0.0, 1.0])
        for rough in ([2.0, 2.0, 1.0, 1.5], [2.0, 2.0, 1.5, 1.0]):
            with pytest.raises(ShapeMismatch) as exc:
                space_b.restrict(1, rough)
            assert str(exc.value) == "values are not measurable at time 1: cell 1 spans [1.0, 1.5]"
        with pytest.raises(ShapeMismatch, match="cell 0 spans"):
            space_b.restrict(1, [2.0, 2.5, 1.0, 1.5])
        up = np.nextafter(1.0, 2.0)  # one ulp apart is not measurable
        with pytest.raises(ShapeMismatch) as exc:
            space_b.restrict(1, [2.0, 2.0, 1.0, up])
        assert str(exc.value) == f"values are not measurable at time 1: cell 1 spans [1.0, {up}]"

    @pytest.mark.parametrize("atom", [1, 3])
    def test_restrict_refuses_nan_behind_a_cells_first_atom(self, space_b, atom):
        values = np.array([1.0, 1.0, 2.0, 2.0])
        values[atom] = np.nan
        with pytest.raises(ShapeMismatch, match=f"cell {atom // 2} spans"):
            space_b.restrict(1, values)


class TestCondExpKernel:
    def _families(self):
        """Random draws, the interleaved space and atom-fine ternary trees of
        3 to 729 atoms, each with its own family."""
        for seed in range(40):
            rng = np.random.default_rng(seed)
            space = random_space(rng, max_atoms=8, max_periods=3)
            yield random_family(rng, space), rng
        rng = np.random.default_rng(99)
        spaces = [build_space(4, TestNodeTable.INTERLEAVED)]
        spaces += [tree_space(3, depth) for depth in range(1, 7)]
        for space in spaces:
            yield random_family(rng, space, max_extremes=3), rng

    def test_equals_brute_sums_bit_for_bit(self):
        for family, rng in self._families():
            space = family.space
            xi = rng.normal(size=space.n_atoms)
            for m in range(space.horizon + 1):
                for p in family:
                    got = space.expand(m, cond_exp_cells(space, xi, p, m))
                    assert got.tobytes() == brute_cond_exp(space, xi, p.probs, m).tobytes()

    def test_rows_equal_single_measure_calls(self):
        for family, rng in self._families():
            space = family.space
            k = len(family)
            xi = rng.normal(size=space.n_atoms)
            paired = rng.normal(size=(k, space.n_atoms))
            for m in range(space.horizon + 1):
                shared = cond_exp_cells(space, xi, family.probs, m)
                rows = cond_exp_cells(space, paired, family.probs, m)
                assert shared.shape == rows.shape == (k, space.n_cells(m))
                for i, p in enumerate(family):
                    assert shared[i].tobytes() == cond_exp_cells(space, xi, p, m).tobytes()
                    assert rows[i].tobytes() == cond_exp_cells(space, paired[i], p, m).tobytes()

    def test_one_measure_takes_one_random_variable(self, family_b):
        space = family_b.space
        paired = np.ones((len(family_b), space.n_atoms))
        with pytest.raises(ShapeMismatch):
            cond_exp_cells(space, paired, family_b.extremes[0], 1)
        with pytest.raises(ShapeMismatch):
            cond_exp_cells(space, np.ones(space.n_atoms + 1), family_b.probs, 1)

    def test_ess_sup_is_max_over_extremes(self):
        for family, rng in self._families():
            space = family.space
            xi = rng.uniform(0.0, 3.0, size=space.n_atoms)
            for m in range(space.horizon + 1):
                per_extreme = np.vstack([cond_exp_cells(space, xi, p, m) for p in family])
                got = ess_sup_cond_exp_cells(space, xi, family, m)
                assert got.tobytes() == per_extreme.max(axis=0).tobytes()

    def test_family_probs_read_only(self, family_b):
        probs = family_b.probs
        np.testing.assert_array_equal(probs, [p.probs for p in family_b])
        assert family_b.probs is probs
        assert not probs.flags.writeable
        with pytest.raises(ValueError):
            probs[0, 0] = 0.5
        assert [f.name for f in fields(family_b)] == ["space", "extremes"]


class TestCellKernel:
    """``node_laws`` against each child's chained mass over its parent's, bit
    for bit, and against one ``.sum()`` per cell to round-off."""

    def _families(self):
        """Random draws with mixed cell sizes, many cells and nodes of 8 or
        more, and the families of the tree recipe (3^6 atoms k = 2, 9^3
        atoms k = 3)."""
        for seed in range(40):
            rng = np.random.default_rng(seed)
            space = random_space(rng, max_atoms=40, max_periods=3)
            yield random_family(rng, space)
        for b, depth, k in ((3, 6, 2), (9, 3, 3)):
            yield tree_draw(b, depth, k, 0)[0]

    def test_node_laws_equal_per_row_division(self):
        counts = set()
        for family in self._families():
            space = family.space
            chained = chained_masses(space, family)
            for m in range(1, space.horizon + 1):
                mass = brute_cell_masses(space, family, m)
                seen = []
                for parents, children, law in node_laws(family, m):
                    assert law.shape == (parents.size, len(family), children.shape[1])
                    for b, kids, rows in zip(parents.tolist(), children, law):
                        assert kids.tolist() == brute_children(space, m, b)
                        assert np.array_equal(rows, chained[m][:, kids] / chained[m - 1][:, b, None])
                        want = np.vstack([row / row.sum() for row in mass[:, kids]])
                        np.testing.assert_allclose(rows, want, rtol=1e-13, atol=0)
                    seen.extend(parents.tolist())
                    counts.add(children.shape[1])
                assert sorted(seen) == list(range(space.n_cells(m - 1)))
        assert len(counts) > 10 and max(counts) >= 9

    def test_compose_laws_inverts_node_laws(self):
        for family in self._families():
            space = family.space
            terminal = space.atom_to_cell(space.horizon)
            for p in family:
                single = MeasureFamily(space=space, extremes=(p,))
                steps = []
                for m in range(1, space.horizon + 1):
                    step = np.empty(space.n_cells(m))
                    for _, children, law in node_laws(single, m):
                        step[children] = law[:, 0]
                    steps.append(step)
                within = p.probs / single.masses(space.horizon)[0][terminal]
                got = compose_laws(space, steps, within)
                np.testing.assert_allclose(got, p.probs, rtol=1e-14, atol=0)

    def test_groupings_read_only(self, family_b):
        for parents, children, _ in node_laws(family_b, 2):
            for arr in (parents, children):
                assert not arr.flags.writeable


class TestOneStepCondExp:
    """``cond_exp_step`` on cached cell masses against ``brute_cond_exp``
    of the values laid out on atoms, under the family's rows, mixture rows
    and tiled rows, within 1e-13 relative."""

    def _families(self):
        """Random draws whose cells hold several atoms, and the families of
        the 3^6 (k = 2) and 5^3 (k = 3) trees."""
        for seed in range(40):
            rng = np.random.default_rng(seed)
            space = random_space(rng, max_atoms=40, max_periods=3)
            yield random_family(rng, space), rng
        for b, depth, k in ((3, 6, 2), (5, 3, 3)):
            yield tree_draw(b, depth, k, 0)[0], np.random.default_rng(b)

    @staticmethod
    def _want(space, probs, values, m):
        """Per time-``m - 1`` cell, from raw sums over atoms."""
        xi = np.empty(space.n_atoms)
        for value, cell in zip(values, space.cells(m)):
            xi[list(cell)] = value
        out = brute_cond_exp(space, xi, probs, m - 1)
        return np.array([out[cell[0]] for cell in space.cells(m - 1)])

    def test_family_rows(self):
        multi = 0
        for family, rng in self._families():
            space = family.space
            multi += max(map(len, space.cells(space.horizon))) > 1
            for m in range(1, space.horizon + 1):
                values = rng.uniform(0.5, 2.0, size=space.n_cells(m))
                got = cond_exp_step(space, family.masses(m), values, m)
                assert got.shape == (len(family), space.n_cells(m - 1))
                for row, p in zip(got, family.probs):
                    np.testing.assert_allclose(row, self._want(space, p, values, m), rtol=1e-13, atol=0)
        assert multi > 20

    def test_mixture_rows(self):
        for family, rng in self._families():
            space = family.space
            weights = rng.dirichlet(np.ones(len(family)), size=5)
            mixes = weights @ family.probs
            for m in range(1, space.horizon + 1):
                values = rng.uniform(0.5, 2.0, size=space.n_cells(m))
                masses = weights @ family.masses(m) / (weights @ family.masses(0))
                got = cond_exp_step(space, masses, values, m)
                for row, p in zip(got, mixes):
                    np.testing.assert_allclose(row, self._want(space, p, values, m), rtol=1e-13, atol=0)

    def test_tiled_rows(self):
        for family, rng in self._families():
            space = family.space
            k = len(family)
            for m in range(1, space.horizon + 1):
                values = rng.uniform(0.5, 2.0, size=(k * k, space.n_cells(m)))
                got = cond_exp_step(space, np.tile(family.masses(m), (k, 1)), values, m)
                for r in range(k * k):
                    want = self._want(space, family.probs[r % k], values[r], m)
                    np.testing.assert_allclose(got[r], want, rtol=1e-13, atol=0)

    def test_unit_row_is_exact(self):
        for family, rng in self._families():
            space = family.space
            weights = rng.dirichlet(np.ones(len(family)), size=5)
            for m in range(1, space.horizon + 1):
                ones = np.ones(space.n_cells(m))
                for masses in (family, family.masses(m), weights @ family.masses(m)):
                    assert np.all(cond_exp_step(space, masses, ones, m) == 1.0)

    def test_masses_cached_read_only_and_per_cell_sums(self, family_b):
        for family, _ in self._families():
            space = family.space
            chained = chained_masses(space, family)
            for m in range(space.horizon + 1):
                mass = family.masses(m)
                assert family.masses(m) is mass and not mass.flags.writeable
                assert mass.tobytes() == chained[m].tobytes()
                np.testing.assert_allclose(mass, brute_cell_masses(space, family, m),
                                           rtol=1e-14, atol=0)
        with pytest.raises(ValueError):
            family_b.masses(1)[0, 0] = 0.5


class TestFamilyForm:
    """Given the family instead of its masses or ``probs``, both conditional
    expectations read the family's cached bins and totals and return the
    same bits as the explicit-array call.  The one-step form's masses are
    chained up from one atom pass at the horizon, as
    :func:`~tests.oracles.chained_masses` makes them, and match one
    ``.sum()`` per cell to round-off."""

    def _families(self):
        """Random and pasting-stable draws of up to 40 atoms, and the families
        of the 3^6 (k = 2) and 5^3 (k = 3) trees."""
        for seed in range(30):
            rng = np.random.default_rng(seed)
            yield random_family(rng, random_space(rng, max_atoms=40, max_periods=3)), rng
            yield product_family(rng, random_space(rng, max_atoms=12, max_periods=4)), rng
        for b, depth, k in ((3, 6, 2), (5, 3, 3)):
            yield tree_draw(b, depth, k, 0)[0], np.random.default_rng(b)

    def test_step_equals_explicit_masses_bit_for_bit(self):
        for family, rng in self._families():
            space = family.space
            k = len(family)
            chained = chained_masses(space, family)
            for m in range(1, space.horizon + 1):
                for values in (rng.normal(size=space.n_cells(m)),
                               rng.normal(size=(k, space.n_cells(m)))):
                    got = cond_exp_step(space, family, values, m)
                    want = cond_exp_step(space, chained[m], values, m)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                unit = cond_exp_step(space, family, np.ones(space.n_cells(m)), m)
                assert (unit == 1.0).all()

    def test_chained_masses_match_cell_sums_to_round_off(self):
        for family, _ in self._families():
            space = family.space
            chained = chained_masses(space, family)
            for m in range(space.horizon + 1):
                got = family.masses(m)
                assert got.tobytes() == chained[m].tobytes()
                np.testing.assert_allclose(got, brute_cell_masses(space, family, m),
                                           rtol=1e-14, atol=0)

    def test_cells_equal_explicit_probs_bit_for_bit(self):
        for family, rng in self._families():
            space = family.space
            n = space.horizon
            for xi in (rng.normal(size=space.n_atoms), rng.normal(size=(len(family), space.n_atoms))):
                got = cond_exp_cells(space, xi, family, n)
                want = cond_exp_cells(space, xi, family.probs, n)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_entries_cached_read_only(self, family_b):
        space = family_b.space
        chained = chained_masses(space, family_b)
        for m in range(1, space.horizon + 1):
            values = np.arange(space.n_cells(m), dtype=float)
            first = cond_exp_step(space, family_b, values, m)
            cond_exp_cells(space, np.ones(space.n_atoms), family_b, m)
            step, cells = family_b._table[_step_bins, m], family_b._table[_cell_bins, m]
            again = cond_exp_step(space, family_b, values, m)
            cond_exp_cells(space, np.ones(space.n_atoms), family_b, m)
            assert family_b._table[_step_bins, m] is step and family_b._table[_cell_bins, m] is cells
            assert again.tobytes() == first.tobytes()
            assert step[0].tobytes() == chained[m].tobytes()
            # the one cell-mass table is the cache's own arrays
            assert family_b.masses(m) is step[0] and family_b.masses(m - 1) is step[2]
            for entry in (step, cells):
                for arr in entry:
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr[0] = 0

    def test_family_on_another_space_is_refused(self, family_b):
        other = build_space(4, [[[0, 1, 2, 3]], [[0, 1, 2], [3]]])
        with pytest.raises(ShapeMismatch):
            cond_exp_step(other, family_b, np.ones(2), 1)
        with pytest.raises(ShapeMismatch):
            cond_exp_cells(other, np.ones(4), family_b, 1)


class TestCondExpBack:
    """``_cond_exp_back`` against ``brute_cond_exp`` at every level, within
    1e-12 relative: from time-``n`` cell values shared by every extreme or
    one row per extreme, and from a per-atom variable conditioned at the
    horizon."""

    def _families(self):
        """Random and pasting-stable draws of up to four periods, and the
        families of the 3^6 (k = 2) and 5^3 (k = 3) trees."""
        for seed in range(30):
            rng = np.random.default_rng(seed)
            space = random_space(rng, max_atoms=30, max_periods=4)
            yield random_family(rng, space), rng
            yield product_family(rng, random_space(rng, max_atoms=12, max_periods=4)), rng
        for b, depth, k in ((3, 6, 2), (5, 3, 3)):
            yield tree_draw(b, depth, k, 0)[0], np.random.default_rng(b)

    @staticmethod
    def _check(family, xi, levels, n):
        """``levels[m][i]`` is E_i[xi | F_m] for every m <= n and extreme i
        (a shared row at n stands for every extreme)."""
        space = family.space
        shape = family.probs.shape
        assert len(levels) == n + 1
        for m, level in enumerate(levels):
            assert m == n or level.shape == (shape[0], space.n_cells(m))
            rows = np.broadcast_to(level, (shape[0], space.n_cells(m)))
            first = [cell[0] for cell in space.cells(m)]
            for row, p, x in zip(rows, family.probs, np.broadcast_to(xi, shape)):
                want = brute_cond_exp(space, x, p, m)[first]
                np.testing.assert_allclose(row, want, rtol=1e-12, atol=0)

    def test_from_cell_values(self):
        for family, rng in self._families():
            space = family.space
            k = len(family)
            for n in range(1, space.horizon + 1):
                cells = space.atom_to_cell(n)
                for values in (rng.uniform(0.0, 2.0, size=space.n_cells(n)),
                               rng.uniform(0.0, 2.0, size=(k, space.n_cells(n)))):
                    levels = _cond_exp_back(family, values, n)
                    assert levels[n] is values
                    self._check(family, values[..., cells], levels, n)

    def test_from_atoms_at_the_horizon(self):
        for family, rng in self._families():
            space = family.space
            n = space.horizon
            xi = rng.uniform(0.0, 2.0, size=space.n_atoms)
            top = cond_exp_cells(space, xi, family.probs, n)
            self._check(family, xi, _cond_exp_back(family, top, n), n)


class TestMeasure:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Measure(np.array([0.5, 0.5, 0.0]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Measure(np.array([0.5, 0.6]))

    def test_family_rejects_duplicates(self, space_b):
        p = Measure(np.full(4, 0.25))
        q = Measure(np.full(4, 0.25))
        with pytest.raises(ValueError, match="duplicate"):
            MeasureFamily(space=space_b, extremes=(p, q))

    def test_family_rejects_wrong_length(self, space_b):
        with pytest.raises(ShapeMismatch):
            MeasureFamily(space=space_b, extremes=(Measure(np.array([0.5, 0.5])),))


class TestAdaptedProcess:
    def test_shape_checked(self, space_b):
        with pytest.raises(ShapeMismatch):
            AdaptedProcess(space=space_b, per_time=(np.array([1.0]), np.array([1.0])))

    @staticmethod
    def _from_atoms(space, levels):
        return AdaptedProcess(
            space=space, per_time=tuple(space.restrict(m, lvl) for m, lvl in enumerate(levels))
        )

    def test_restricted_levels_check_measurability(self, space_b):
        levels = [np.full(4, 2.0), np.array([1.0, 1.0, 3.0, 3.0]), np.arange(4.0)]
        proc = self._from_atoms(space_b, levels)
        assert list(proc.at_cells(1)) == [1.0, 3.0]
        levels[1] = np.array([1.0, 2.0, 3.0, 3.0])  # straddles the first cell
        with pytest.raises(ShapeMismatch):
            self._from_atoms(space_b, levels)

    def test_restricted_levels_refuse_nan_behind_a_cells_first_atom(self, space_b):
        levels = [np.full(4, 2.0), np.array([1.0, np.nan, 3.0, 3.0]), np.arange(4.0)]
        with pytest.raises(ShapeMismatch, match="time 1: cell 0 spans"):
            self._from_atoms(space_b, levels)


class TestCondExp:
    def test_uniform_averages(self, space_b, family_b):
        got = space_b.expand(1, cond_exp_cells(space_b, XI, family_b.extremes[0], 1))
        np.testing.assert_allclose(got, [2.0, 2.0, 4.0, 4.0], atol=1e-14)

    def test_weighted_averages(self, space_b, family_b):
        got = space_b.expand(1, cond_exp_cells(space_b, XI, family_b.extremes[1], 1))
        oracle = brute_cond_exp(space_b, XI, [0.4, 0.1, 0.1, 0.4], 1)
        np.testing.assert_allclose(got, [1.4, 1.4, 5.2, 5.2], atol=1e-14)
        np.testing.assert_allclose(got, oracle, atol=1e-14)

    def test_atom_fine_identity(self, space_b, family_b):
        got = space_b.expand(2, cond_exp_cells(space_b, XI, family_b.extremes[1], 2))
        np.testing.assert_allclose(got, XI, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_tower_property(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        family = random_family(rng, space, max_extremes=1)
        p = family.extremes[0]
        xi = rng.normal(size=space.n_atoms)
        n = space.horizon
        m = int(rng.integers(0, n + 1))
        k = int(rng.integers(0, m + 1))
        inner = space.expand(m, cond_exp_cells(space, xi, p, m))
        np.testing.assert_allclose(
            cond_exp_cells(space, inner, p, k), cond_exp_cells(space, xi, p, k), atol=1e-12
        )


class TestMixture:
    def test_degenerate_weights(self, space_b, family_b):
        q = mixture(family_b, [1.0, 0.0])
        np.testing.assert_allclose(q.probs, family_b.extremes[0].probs, atol=0)

    def test_fixture_b_blend(self, family_b):
        q = mixture(family_b, [0.5, 0.5])
        np.testing.assert_allclose(q.probs, [0.325, 0.175, 0.175, 0.325], atol=1e-15)

    def test_sums_to_one(self, family_b):
        assert abs(mixture(family_b, [0.3, 0.7]).probs.sum() - 1.0) < 1e-15


class TestEssSup:
    def test_singleton_equals_cond_exp(self, space_b, family_b):
        fam = MeasureFamily(space=space_b, extremes=(family_b.extremes[1],))
        got = ess_sup_cond_exp_cells(space_b, XI, fam, 1)
        np.testing.assert_allclose(got, cond_exp_cells(space_b, XI, fam.extremes[0], 1), atol=0)

    def test_fixture_b_value(self, space_b, family_b):
        got = space_b.expand(1, ess_sup_cond_exp_cells(space_b, XI, family_b, 1))
        np.testing.assert_allclose(got, [2.0, 2.0, 5.2, 5.2], atol=1e-13)

    def test_atom_fine_identity(self, space_b, family_b):
        got = space_b.expand(2, ess_sup_cond_exp_cells(space_b, XI, family_b, 2))
        np.testing.assert_allclose(got, XI, atol=1e-13)

    def test_dominates_sampled_mixtures_and_attained(self):
        # cond exp under any mixture stays at or below the envelope, and the
        # envelope value is hit cellwise by some extreme
        for seed in range(30):
            rng = np.random.default_rng(seed)
            space = random_space(rng)
            family = random_family(rng, space)
            xi = rng.uniform(0, 3, size=space.n_atoms)
            m = int(rng.integers(0, space.horizon + 1))
            env = ess_sup_cond_exp_cells(space, xi, family, m)
            per_extreme = np.vstack([cond_exp_cells(space, xi, p, m) for p in family])
            assert np.abs(per_extreme.max(axis=0) - env).max() == 0.0
            for _ in range(10):
                q = mixture(family, rng.dirichlet(np.ones(len(family))))
                assert np.all(cond_exp_cells(space, xi, q, m) <= env + 1e-12)

    def test_cond_exp_of_max_dominates_max_of_cond_exp(self):
        # pulling the max outside conditioning only loses mass
        for seed in range(30):
            rng = np.random.default_rng(seed)
            space = random_space(rng)
            family = random_family(rng, space, max_extremes=1)
            p = family.extremes[0]
            fs = rng.uniform(0, 2, size=(int(rng.integers(2, 5)), space.n_atoms))
            m = int(rng.integers(0, space.horizon + 1))
            lhs = cond_exp_cells(space, fs.max(axis=0), p, m)
            rhs = np.vstack([cond_exp_cells(space, f, p, m) for f in fs]).max(axis=0)
            assert np.all(lhs >= rhs - 1e-12)


class TestDensityBoundsAndContractions:
    def test_contract_time_zero(self, family_b):
        got = family_b.masses(0)
        np.testing.assert_allclose(got, [[1.0], [1.0]], atol=1e-15)

    def test_contract_fixture_b(self, family_b):
        got = family_b.masses(1)[1]
        np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-15)

    def test_contract_atom_fine(self, family_b):
        got = family_b.masses(2)
        np.testing.assert_allclose(got, family_b.probs, atol=0)
