import math

import numpy as np
import pytest

from etkit.tables import SweepTable, format_number


class TestFormatNumber:
    def test_ten_significant_digits(self):
        assert format_number(math.pi) == "3.141592654"
        assert format_number(1.0) == "1"
        assert format_number(0.1234567891) == "0.1234567891"

    def test_nan_renders_empty(self):
        assert format_number(math.nan) == ""

    def test_scientific_notation_for_extremes(self):
        assert format_number(2.5e-12) == "2.5e-12"

    @pytest.mark.parametrize("cell", ["eff", "true", "1.23456789012"])
    def test_string_written_as_it_is(self, cell):
        assert format_number(cell) == cell


class TestSweepTable:
    def make(self):
        return SweepTable(
            columns=["x", "y"],
            rows=[[0.0, 1.0], [0.5, math.nan], [1.0, 3.0]],
        )

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            SweepTable(columns=["x", "y"], rows=[[1.0]])

    def test_column_extraction(self):
        t = self.make()
        assert np.allclose(t.column("x"), [0.0, 0.5, 1.0])
        y = t.column("y")
        assert math.isnan(y[1])

    def test_csv_dialect(self):
        text = self.make().to_csv()
        assert text == "x,y\n0,1\n0.5,\n1,3\n"

    def test_string_cells_in_csv(self):
        t = SweepTable(
            columns=["method", "E_star_eV", "activationless"],
            rows=[["eff", 0.25, "false"], ["exact", math.nan, ""]],
        )
        assert t.to_csv() == (
            "method,E_star_eV,activationless\neff,0.25,false\nexact,,\n"
        )
        assert np.allclose(t.column("E_star_eV")[:1], [0.25])

    def test_roundtrip(self):
        t = self.make()
        back = SweepTable.from_csv(t.to_csv())
        assert back.columns == t.columns
        assert back.rows[0] == [0.0, 1.0]
        assert math.isnan(back.rows[1][1])

    def test_from_csv_splits_crlf_lines(self):
        back = SweepTable.from_csv("eta_f_V,log10k_eff\r\n-1.0,2.0\r\n")
        assert back.columns == ["eta_f_V", "log10k_eff"]
        assert back.rows == [[-1.0, 2.0]]

    def test_from_csv_rejects_malformed(self):
        with pytest.raises(ValueError):
            SweepTable.from_csv("x,y\n1,2,3\n")
        with pytest.raises(ValueError):
            SweepTable.from_csv("")
