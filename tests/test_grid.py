import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avoidrec.autodiff as ad
from avoidrec.grid import EngagementEmbeddingTable, cell_index, grid_cell_counts, write_grid_csv
from avoidrec.corpus import ImpressionLog, ImpressionRecord
from avoidrec.stats import StatsSnapshot, build_timeline
from avoidrec.training import Adam
from conftest import total


class TestQuantize:
    """Each axis of ``cell_index`` on its own: the other ratio is 0."""

    def test_lower_edge(self):
        assert cell_index(0.0, 0.0, 5) == 0

    def test_upper_edge_clamps_to_last_bin(self):
        assert cell_index(1.0, 0.0, 5) == 4
        assert cell_index(0.0, 1.0, 5) == 5 * 4

    def test_interior(self):
        # floor(0.6 * 5) = 3; edges 0.6 <= v < 0.8 map to bin 3
        assert cell_index(0.6, 0.0, 5) == 3
        assert cell_index(0.0, 0.6, 5) == 5 * 3

    def test_out_of_range_clamped(self):
        assert cell_index(-0.5, 0.0, 5) == 0
        assert cell_index(1.5, 0.0, 5) == 4
        assert cell_index(0.0, -0.5, 5) == 0
        assert cell_index(0.0, 1.5, 5) == 5 * 4
        assert cell_index(math.nan, math.nan, 5) == 0  # NaN counts as 0

    def test_bad_resolution(self):
        for d in (0, -3):
            with pytest.raises(ValueError):
                cell_index(0.5, 0.5, d)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    def test_in_range(self, value, d):
        assert 0 <= cell_index(value, 0.0, d) < d
        assert 0 <= cell_index(0.0, value, d) < d * d

    @given(st.integers(2, 20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, d, data):
        a = data.draw(st.floats(min_value=0.0, max_value=1.0))
        b = data.draw(st.floats(min_value=0.0, max_value=1.0))
        lo, hi = min(a, b), max(a, b)
        assert cell_index(lo, 0.0, d) <= cell_index(hi, 0.0, d)
        assert cell_index(0.0, lo, d) <= cell_index(0.0, hi, d)


class TestEngagementIndex:
    """The flat layout ``D * epi_idx + av_idx``; ``divmod(cell, D)`` inverts it."""

    def test_origin_cell(self):
        assert cell_index(0.0, 0.0, 5) == 0

    def test_flat_index_formula(self):
        # av bin 3, epi bin 2 -> flat = 5 * 2 + 3
        cell = cell_index(0.7, 0.45, 5)
        assert cell == 13
        assert divmod(cell, 5) == (2, 3)

    def test_d5_has_25_reachable_cells(self):
        cells = {cell_index((a + 0.5) / 5, (e + 0.5) / 5, 5) for a in range(5) for e in range(5)}
        assert cells == set(range(25))

    @pytest.mark.parametrize("d", [5, 7, 10, 15, 20])
    def test_round_trip_bijection(self, d):
        seen = set()
        for av_bin in range(d):
            for epi_bin in range(d):
                cell = cell_index((av_bin + 0.5) / d, (epi_bin + 0.5) / d, d)
                assert divmod(cell, d) == (epi_bin, av_bin)
                seen.add(cell)
        assert seen == set(range(d * d))

    @given(st.floats(0, 1), st.floats(0, 1), st.integers(2, 25))
    @settings(max_examples=300, deadline=None)
    def test_identity_holds(self, av, epi_value, d):
        av_idx, epi_idx = min(math.floor(av * d), d - 1), min(math.floor(epi_value * d), d - 1)
        assert cell_index(av, epi_value, d) == d * epi_idx + av_idx

    def test_epi_bin_step_moves_index_by_d(self):
        d = 7
        base = cell_index(0.3, 0.2, d)
        shifted = cell_index(0.3, 0.2 + 1.0 / d, d)
        assert shifted - base == d


class TestEmbeddingTable:
    def test_lookup_deterministic(self):
        table = EngagementEmbeddingTable(5, 8, np.random.default_rng(0))
        a = table.lookup(7).data
        b = table.lookup(7).data
        assert np.array_equal(a, b)

    def test_out_of_range_lookup(self):
        table = EngagementEmbeddingTable(5, 8, np.random.default_rng(0))
        with pytest.raises(IndexError):
            table.lookup(25)
        with pytest.raises(IndexError):
            table.lookup(-1)

    def test_same_cell_same_vector(self):
        table = EngagementEmbeddingTable(5, 8, np.random.default_rng(0))
        a = cell_index(0.61, 0.21, 5)
        b = cell_index(0.79, 0.39, 5)
        assert a == b
        assert np.array_equal(table.lookup(a).data, table.lookup(b).data)

    def test_gradient_step_touches_only_looked_up_row(self):
        # Oracle: compare the full table before/after one optimizer step.
        table = EngagementEmbeddingTable(5, 8, np.random.default_rng(0))
        before = table.table.data.copy()
        with ad.ComputationRecord() as rec:
            loss = total(table.lookup(7))
        rec.backward(loss)
        opt = Adam({"table": table.table}, lr=0.05)
        opt.step()
        after = table.table.data
        changed = np.flatnonzero(np.abs(after - before).sum(axis=1))
        assert changed.tolist() == [7]


class TestGridDump:
    def test_cell_counts_and_csv(self, tmp_path):
        # Ten impressions: A shown and clicked in each, B shown in each, C once.
        log = ImpressionLog([
            ImpressionRecord(str(i), "U", 0, [], [("A", 1), ("B", 0)] + [("C", 0)] * (i == 0))
            for i in range(10)])
        snap = StatsSnapshot(build_timeline(log, 3600), 3600)
        # A: av=0, epi=1 -> (0, 4); B: av=1, epi=1 -> (4, 4); C: av=1, epi=0.1 -> (4, 0)
        counts = grid_cell_counts(snap, 5)
        assert counts == {5 * 4 + 0: 1, 5 * 4 + 4: 1, 5 * 0 + 4: 1}
        path = tmp_path / "grid.csv"
        write_grid_csv(snap, 5, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# schema:")
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 25
        total = sum(int(r["article_count"]) for r in rows)
        assert total == 3
        for row in rows:
            i_ue = int(row["i_ue"])
            assert i_ue == 5 * int(row["epi_idx"]) + int(row["av_idx"])
