"""Tests for table rendering."""

import pytest

from repro.utils.tables import Table


class TestTable:
    def test_render_contains_rows(self):
        table = Table("demo", ["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("beta", 2)
        text = table.render()
        assert "demo" in text
        assert "alpha" in text
        assert "1.500" in text

    def test_row_arity_checked(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("demo", [])

    def test_extend(self):
        table = Table("demo", ["a"])
        table.extend([[1], [2], [3]])
        assert len(table.rows) == 3

    def test_scientific_for_extremes(self):
        table = Table("demo", ["v"])
        table.add_row(1e-9)
        assert "e-09" in table.render()
