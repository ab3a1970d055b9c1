from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knncert as kc
from knncert import InputError, ingest, models


class TestScalars:
    def test_integer(self):
        assert ingest.parse_scalar("42") == 42
        assert isinstance(ingest.parse_scalar("42"), int)

    def test_fraction(self):
        assert ingest.parse_scalar("1/2") == Fraction(1, 2)

    def test_decimal_is_exact(self):
        assert ingest.parse_scalar("2.5") == Fraction(5, 2)

    def test_symbol(self):
        assert ingest.parse_scalar("ab c") == "ab c"

    def test_point(self):
        point = ingest.parse_point("1/2, 3", 2)
        assert point.coords == (Fraction(1, 2), 3)

    def test_point_arity_mismatch(self):
        with pytest.raises(InputError):
            ingest.parse_point("1,2,3", 2)

    def test_format_round_trip(self):
        for v in (7, Fraction(1, 3), Fraction(4, 2)):
            assert ingest.parse_scalar(ingest.format_value(v)) == v


def reference_scalar(text):
    """What a cell meant before the fast path: Fraction(text) or a symbol."""
    text = text.strip()
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return text
    return int(value) if value.denominator == 1 else value


SCALAR_CORPUS = [
    "42", "-0.500", "+3", ".5", "5.", "1e3", "1.5e-2", "1_000", " 2 ", "1/2", "1/0",
    "\u0663", "\uff11", "nan", "inf", "k12", "", "-0", "007.250", "-12.000", "1.2.3", "+-1",
]
NUMERIC_TEXT = st.from_regex(
    r"\s?[+-]?[0-9]{0,22}(\.[0-9]{0,22})?([eE][+-]?[0-9]{1,3}|/[0-9]{1,4})?\s?", fullmatch=True
)


class TestScalarFastPath:
    @pytest.mark.parametrize("text", SCALAR_CORPUS)
    def test_corpus_matches_fraction_reading(self, text):
        got, want = ingest.parse_scalar(text), reference_scalar(text)
        assert type(got) is type(want) and got == want

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.one_of(NUMERIC_TEXT, st.text(max_size=12)))
    def test_matches_fraction_reading(self, text):
        got, want = ingest.parse_scalar(text), reference_scalar(text)
        assert type(got) is type(want) and got == want


class TestCells:
    def test_orset(self):
        cell = ingest.parse_cell("<2|5|10>")
        assert isinstance(cell, models.OrSetCell)
        assert cell.choices == (2, 5, 10)

    def test_interval(self):
        cell = ingest.parse_cell("[1,4]")
        assert isinstance(cell, models.CoddCell)
        assert (cell.low, cell.high) == (1, 4)

    def test_bad_interval(self):
        with pytest.raises(InputError):
            ingest.parse_cell("[1,2,3]")

    def test_plain(self):
        assert ingest.parse_cell(" 3 ") == 3


class TestDatasetCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        return str(path)

    def test_fractional_values_and_weights(self, tmp_path):
        path = self.write(tmp_path, "A,label,weight\n1/2,0,2\n3.5,1,1/4\n")
        ds, ranks, uncertain = ingest.load_dataset(path, None, ["A"])
        assert ds.tuples[0].values == (Fraction(1, 2),)
        assert ds.tuples[1].values == (Fraction(7, 2),)
        assert ds.tuples[0].weight == 2
        assert ds.tuples[1].weight == Fraction(1, 4)
        assert ranks is None and uncertain is None

    def test_rank_column(self, tmp_path):
        path = self.write(tmp_path, "A,label,rank\n5,0,2\n6,1,1\n")
        _, ranks, _ = ingest.load_dataset(path, None, ["A"])
        assert ingest.ordering_from_ranks(ranks).ranked == (1, 0)

    def test_duplicate_ranks_rejected(self, tmp_path):
        path = self.write(tmp_path, "A,label,rank\n5,0,1\n6,1,1\n")
        with pytest.raises(InputError):
            ingest.load_dataset(path, None, ["A"])

    def test_schema_column_mismatch(self, tmp_path):
        path = self.write(tmp_path, "A,label\n1,0\n")
        schema = kc.FdSchema.of(("A", "B"), [])
        with pytest.raises(InputError):
            ingest.load_dataset(path, schema, ["A"])

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = self.write(tmp_path, "A,label,weight\n1,0,0\n")
        with pytest.raises(InputError):
            ingest.load_dataset(path, None, ["A"])

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "A,B,label\n1,2,0\n1\n")
        with pytest.raises(InputError):
            ingest.load_dataset(path, None, ["A"])

    def test_write_then_load(self, tmp_path):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        ds = kc.make_dataset(
            schema, [((Fraction(1, 2), 3), "0"), ((4, 5), "1")], features=("A",)
        )
        path = tmp_path / "out.csv"
        ingest.write_dataset_csv(str(path), ds)
        loaded, _, _ = ingest.load_dataset(str(path), schema, ["A"])
        assert [t.values for t in loaded.tuples] == [t.values for t in ds.tuples]
        assert [t.label for t in loaded.tuples] == ["0", "1"]


class TestFormulaFiles:
    def test_round_trip(self, tmp_path):
        from knncert.hardgen import Sat3R

        phi = Sat3R(2, ((1, 2), (1, 2), (-1, -2)))
        path = tmp_path / "phi.cnf3r"
        ingest.write_formula(str(path), phi)
        assert ingest.load_formula(str(path)) == phi

    def test_comments_and_headers_skipped(self, tmp_path):
        path = tmp_path / "phi.cnf3r"
        path.write_text("c a comment\np cnf 2 3\n1 2 0\n1 2 0\n-1 -2 0\n")
        phi = ingest.load_formula(str(path))
        assert phi.num_vars == 2 and len(phi.clauses) == 3
