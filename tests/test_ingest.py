import csv
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knncert as kc
from knncert import InputError, NotPrimaryKeyError, dataset, fastscan, ingest, models


def load_uncertain(path):
    """The uncertain table at ``path``, loaded as orset- and codd-certify load it."""
    return ingest.load_dataset(path, None, (), read=ingest.parse_cell)[0]


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
        # Output writes a number with str(), which parse_scalar reads back.
        for v in (7, Fraction(1, 3), Fraction(4, 2), Fraction(-5, 3)):
            assert ingest.parse_scalar(str(v)) == v


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

    @pytest.mark.parametrize("cell, error", [
        ('"[4,1]"', "interval low must not exceed high"),
        ('"[4,x]"', "expected a number, got 'x'"),
    ])
    def test_table_cell_errors_name_their_row(self, tmp_path, cell, error):
        path = tmp_path / "d.csv"
        path.write_text(f"A,label\n1,0\n{cell},1\n")
        with pytest.raises(InputError, match=f"^row 1: {error}$"):
            load_uncertain(str(path))

    def test_plain_batches_read_as_parse_cell_reads_them(self, tmp_path):
        # Whole values come back as ints, others as Fractions, in a batch
        # of plain decimals as in a batch that holds an or-set cell.
        texts = ["2.000", "-0.50", "7", "+3.25", "-0", "0.125", "10.10"]
        path = tmp_path / "d.csv"
        path.write_text("A,B,label\n" + "".join(f"{t},<{t}|1>,0\n" for t in texts))
        rows = load_uncertain(str(path)).tuples
        plain = [cells[0] for cells in rows]
        assert [(type(c), c) for c in plain] == [(type(v), v) for v in map(ingest.parse_cell, texts)]
        assert [cells[1].choices[0] for cells in rows] == plain
        assert [type(c) for c in plain] == [int, Fraction, int, Fraction, int, Fraction, Fraction]

    def test_cell_faults_come_first_in_their_row(self, tmp_path):
        # Cells in attribute order, then the label; an earlier row first.
        path = tmp_path / "d.csv"
        path.write_text('A,B,label\n1,2,0\n"[4,1]","[4,x]",\n')
        with pytest.raises(InputError, match="^row 1: interval low must not exceed high$"):
            load_uncertain(str(path))
        path.write_text('A,B,label\n1,"[4,x]",0\n"[4,1]",1,\n')
        with pytest.raises(InputError, match="^row 0: expected a number, got 'x'$"):
            load_uncertain(str(path))


# Every input file, each with a loader and its text, to be read with a BOM.
BOM_FILES = {
    "label-first": (lambda p: ingest.load_dataset(p, None, ["A"])[0].tuples, "label,A\n0,1\n"),
    "label-last": (lambda p: ingest.load_dataset(p, None, ["A"])[0].tuples, "A,label\n1,0\n"),
    "uncertain-table": (lambda p: load_uncertain(p).tuples, 'A,label\n"[1,2]",0\n'),
    "schema": (ingest.load_schema, '{"attributes": ["A"], "fds": []}'),
    "formula": (ingest.load_formula, "1 -2 3 0\n"),
}


@pytest.mark.parametrize("kind", list(BOM_FILES))
def test_byte_order_mark_is_skipped(tmp_path, kind):
    # Excel's "CSV UTF-8" export starts with one.
    load, text = BOM_FILES[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert load(str(marked)) == load(str(plain))


@pytest.mark.parametrize("kind", ["schema", "formula"])
def test_undecodable_schema_or_formula_rejected(tmp_path, kind):
    path = tmp_path / "f"
    path.write_bytes(b"\xe9")
    with pytest.raises(InputError, match=f"^cannot read {kind} .*: 'utf-8' codec can't decode"):
        getattr(ingest, f"load_{kind}")(str(path))


class TestDatasetCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        return str(path)

    def test_fractional_values_and_weights(self, tmp_path):
        path = self.write(tmp_path, "A,label,weight\n1/2,0,2\n3.5,1,1/4\n")
        ds, ranks, uncertain = ingest.load_dataset(path, None, ["A"])
        assert ds.tuples[0] == (Fraction(1, 2),)
        assert ds.tuples[1] == (Fraction(7, 2),)
        assert (list(ds.weights.data), ds.weights.scale) == ([8, 1], 4)
        assert ds.weights.values() == [2, Fraction(1, 4)]
        assert ranks is None and uncertain is None

    def test_weights_span_batches(self, tmp_path):
        # A new denominator in a later batch rescales the weights read so
        # far; a blank cell weighs 1.
        texts = ["2", " 0.5", ""] * ingest._BATCH_ROWS + ["1/3", "7"]
        rows = "".join(f"{i},0,{text}\n" for i, text in enumerate(texts))
        ds, _, _ = ingest.load_dataset(self.write(tmp_path, "A,label,weight\n" + rows), None, [])
        assert ds.weights.scale == 6
        assert ds.weights.values() == [ingest.parse_scalar(t) if t else 1 for t in texts]

    def test_columns_do_not_depend_on_batch_ends(self, tmp_path, monkeypatch):
        # Wherever the batches end, each column and the weights come out the
        # same: a later batch with more places, a later switch to values,
        # padded cells, and blank, fractional and decimal weights.
        places = ["1", "-2", "3.5", "4", "5.25", "6", "0.125", "-7", "8.5", "9"] * 2
        switch = list(places)
        switch[13] = "x"
        padded = [" 1.5", "2 ", "\t3.25", "4", "-5.5 ", "6"] * 3 + ["7", " 8"]
        symbols = [f"k{i % 4}" for i in range(19)] + ["2.5"]
        weights = ["", "1/2", "0.25", "3", " 2.5 ", "1/3", "", "4", "0.5", "2/3"] * 2
        path = write_columns(tmp_path / "d.csv", [places, switch, padded, symbols, weights],
                             ["A", "B", "C", "D", "weight"])
        seen = set()
        for rows in (1, 2, 3, 7, 1024):
            monkeypatch.setattr(ingest, "_BATCH_ROWS", rows)
            ds, _, _ = ingest.load_dataset(path, None, [])
            columns = (*ds.columns, ds.weights)
            seen.add(tuple((tuple(c.data), c.scale) for c in columns))
            for column, texts in zip(columns, [places, switch, padded, symbols]):
                want = [ingest.parse_scalar(t) for t in texts]
                assert [(type(v), v) for v in column.values()] == [(type(v), v) for v in want]
            assert ds.weights.values() == [ingest.parse_scalar(t.strip() or "1") for t in weights]
        assert len(seen) == 1
        assert [scale for _, scale in seen.pop()] == [1000, None, 100, None, 12]

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

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"A,label\n1,0\n\xe9,0\n")
        with pytest.raises(InputError, match=r"^cannot read .*d\.csv: 'utf-8' codec can't decode"):
            ingest.load_dataset(str(path), None, ["A"])

    def test_uncertain_spellings(self, tmp_path):
        cells = ["1", "true", " yes ", "0", "false", "no", "", " "]
        path = self.write(tmp_path, "A,label,uncertain\n" + "".join(
            f"{i},0,{cell}\n" for i, cell in enumerate(cells)))
        _, _, uncertain = ingest.load_dataset(path, None, ["A"])
        assert uncertain == frozenset({0, 1, 2})

    def test_write_then_load(self, tmp_path):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        ds = kc.make_dataset(
            schema, [((Fraction(1, 2), 3), "0"), ((4, 5), "1")], features=("A",)
        )
        path = tmp_path / "out.csv"
        ingest.write_all({str(path): ingest.dataset_csv(ds)})
        loaded, _, _ = ingest.load_dataset(str(path), schema, ["A"])
        assert list(loaded.tuples) == list(ds.tuples)
        assert list(loaded.row_labels) == ["0", "1"]


def write_columns(path, columns, header=None):
    """A CSV with the given cell texts column by column, every label 0."""
    header = header or [f"C{j}" for j in range(len(columns))]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header) + ["label"])
        for cells in zip(*columns):
            writer.writerow(list(cells) + ["0"])
    return str(path)


# Plain decimals with a varying number of places, and the forms around them
# that take other routes: no digits on one side of the dot, exponents,
# fractions, non-ASCII digits, padding, and symbols.
PLAIN_CELL = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "+", "-", "-00"]),
    st.integers(0, 10**7),
    st.one_of(
        st.just(""),
        st.integers(1, 5).flatmap(lambda places: st.integers(0, 10**places - 1).map(
            lambda digits: "." + str(digits).zfill(places))),
    ),
)
OTHER_CELL = st.sampled_from([
    "2.000", "-0.000", "+0", "007.250", "5.", ".5", "-.5", "1/3", "-4/6", "1e3", "2.5E-1",
    "1_000", "\u0663", "\uff11.5", " 2 ", "\t-1.25 ", "\u00a012", "x", "k12", "", "nan",
    "1/0", "1.2.3", "+-1", "9" * 30 + "." + "9" * 30,
])
CELL = st.one_of(
    PLAIN_CELL, PLAIN_CELL, OTHER_CELL,
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=5),
)


@st.composite
def cell_columns(draw):
    rows = draw(st.integers(1, 12))
    width = draw(st.integers(1, 3))
    return [draw(st.lists(CELL, min_size=rows, max_size=rows)) for _ in range(width)]


def filler_cells(form, rows):
    """``rows`` cells of one form: decimals with two places, or symbols."""
    return [f"{i}.{i % 100:02d}" if form == "decimals" else f"k{i}" for i in range(rows)]


@pytest.fixture(scope="module")
def cells_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cells") / "d.csv"


class TestColumnarIngest:
    """Columns parsed as they stream must read exactly as parse_scalar."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(cell_columns())
    def test_values_match_parse_scalar(self, cells_path, columns):
        path = write_columns(cells_path, columns)
        ds, _, _ = ingest.load_dataset(path, None, [])
        for j, column in enumerate(columns):
            for i, text in enumerate(column):
                got, want = ds.tuples[i][j], ingest.parse_scalar(text)
                assert type(got) is type(want) and got == want, (i, j, text)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.sampled_from(["decimals", "symbols"]),
        st.integers(ingest._BATCH_ROWS - 6, ingest._BATCH_ROWS + 2),
        st.lists(CELL, min_size=1, max_size=12),
    )
    def test_values_match_parse_scalar_across_batches(self, cells_path, filler, offset, cells):
        # A filler run of one form, then the drawn cells, all in one column
        # and each alone in a column of its own. They sit at the end of the
        # first batch or in the second, where the column is already numeric
        # or already holds values.
        fill = filler_cells(filler, offset)
        columns = [fill + cells] + [fill + [cell] + fill[:len(cells) - 1] for cell in cells]
        path = write_columns(cells_path, columns)
        ds, _, _ = ingest.load_dataset(path, None, [])
        for j, column in enumerate(columns):
            for i, text in enumerate(column):
                got, want = ds.tuples[i][j], ingest.parse_scalar(text)
                assert type(got) is type(want) and got == want, (i, j, text)
            plain = [ingest._plain_run([text.strip()]) for text in column]
            if None not in plain:
                assert ds.columns[j].scale == 10 ** max(places for _, places in plain)

    @pytest.mark.parametrize(
        "text",
        ["1" * 3000 + "." + "1" * 3000, "-" + "2" * 5000, "3." + "0" * 4400],
        ids=["groups-within-limit", "whole-past-limit", "places-past-limit"],
    )
    def test_digit_runs_past_the_int_limit(self, tmp_path, text):
        # int() converts at most 4300 digits; Fraction converts the whole
        # and fractional digit groups separately.
        want = reference_scalar(text)
        got = ingest.parse_scalar(text)
        assert type(got) is type(want) and got == want
        path = write_columns(tmp_path / "d.csv", [["1.5", text]])
        ds, _, _ = ingest.load_dataset(path, None, [])
        assert ds.tuples[1] == (want,) and type(ds.tuples[1][0]) is type(want)

    def test_columns_span_batches(self, tmp_path):
        rows = 2 * ingest._BATCH_ROWS + 5
        plain = [f"{i}.{i % 7}" if i % 3 else str(-i) for i in range(rows)]
        plain[ingest._BATCH_ROWS + 3] = "1.23456"  # more places, in a later batch
        mixed = list(plain)
        mixed[-3] = "x"  # the switch to values, in the last batch
        path = write_columns(tmp_path / "d.csv", [plain, mixed])
        ds, _, _ = ingest.load_dataset(path, None, [])
        assert ds.size == rows and ds.columns[0].scale == 10**5
        for j, column in enumerate([plain, mixed]):
            got = [t[j] for t in ds.tuples]
            want = [ingest.parse_scalar(text) for text in column]
            assert got == want and [type(v) for v in got] == [type(v) for v in want]

    def test_mixed_places_share_one_scale(self, tmp_path):
        path = write_columns(tmp_path / "d.csv", [["1.5", "-2", "0.125", "3.10"]])
        ds, _, _ = ingest.load_dataset(path, None, [])
        (column,) = ds.columns
        assert column.scale == 1000 and list(column.data) == [1500, -2000, 125, 3100]
        assert ds.tuples[3] == (Fraction(31, 10),)

    def test_padded_decimals_keep_the_places_scale(self, tmp_path):
        path = write_columns(tmp_path / "d.csv", [[" 0.5", "1.25 ", "\t2"]])
        ds, _, _ = ingest.load_dataset(path, None, [])
        (column,) = ds.columns
        assert column.scale == 100 and list(column.data) == [50, 125, 200]

    def test_symbol_after_decimals_keeps_values(self, tmp_path):
        path = write_columns(tmp_path / "d.csv", [["1.50", "2", "abc", "1/4"]])
        ds, _, _ = ingest.load_dataset(path, None, [])
        assert ds.columns[0].scale is None
        assert [t[0] for t in ds.tuples] == [Fraction(3, 2), 2, "abc", Fraction(1, 4)]

    def test_equal_values_in_any_form_share_a_block(self, tmp_path):
        schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
        path = write_columns(tmp_path / "d.csv", [["1.5", "1.50", "3/2"], ["1", "2", "3"]], "KV")
        ds, _, _ = ingest.load_dataset(path, schema, [])
        assert fastscan.as_keyed(ds).num_blocks == 1

    def test_rows_equal_in_value_are_identical(self, tmp_path):
        schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
        path = write_columns(tmp_path / "d.csv", [["a", "a"], ["2", "2.000"]], "KV")
        ds, _, _ = ingest.load_dataset(path, schema, [])
        with pytest.raises(NotPrimaryKeyError, match=r"^block \('a',\) holds identical rows$"):
            fastscan.as_keyed(ds)
        # The error names the first block, by first appearance, with such rows.
        keys, values = ["x", "c", "b", "c", "b"], ["9", "5", "1.5", "5.0", "3/2"]
        path = write_columns(tmp_path / "e.csv", [keys, values], "KV")
        ds, _, _ = ingest.load_dataset(path, schema, [])
        with pytest.raises(NotPrimaryKeyError, match=r"^block \('c',\) holds identical rows$"):
            fastscan.as_keyed(ds)


# Cells that parse_cell reads as or-sets or intervals, or refuses.
UNCERTAIN_CELL = st.sampled_from([
    "<1|2>", "<a|1.5>", " <0.25|-3> ", "<x>", "<1|>", "<>", "[1,2]", "[-0.5,1/2]", " [2,3] ",
    "[2,1]", "[x,1]", "[1]", "<1|2", "[1,2", "a>", "[<1|2>]",
])


def first_cell_error(columns):
    """``row i: message`` for the first cell, rows first, that parse_cell
    refuses; None when it reads them all."""
    for i, cells in enumerate(zip(*columns)):
        for text in cells:
            try:
                ingest.parse_cell(text)
            except InputError as exc:
                return f"row {i}: {exc}"
    return None


class TestUncertainColumns:
    """An uncertain table's columns, read by ``_ColumnBuilder(parse_cell)``,
    hold what parse_cell reads, and a refusal names the first row."""

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        st.sampled_from(["decimals", "symbols"]),
        st.integers(ingest._BATCH_ROWS - 6, ingest._BATCH_ROWS + 2),
        st.lists(st.one_of(CELL, UNCERTAIN_CELL), min_size=1, max_size=12),
    )
    def test_cells_match_parse_cell_across_batches(self, cells_path, filler, offset, cells):
        # As for load_dataset above, and then a third batch of filler, read
        # after the column holds values.
        fill = filler_cells(filler, offset)
        tail = filler_cells(filler, ingest._BATCH_ROWS + 3)
        columns = [fill + cells + tail] + [fill + [cell] + tail[:len(cells) - 1] + tail
                                           for cell in cells]
        path = write_columns(cells_path, columns)
        error = first_cell_error(columns)
        if error is not None:
            with pytest.raises(InputError, match=f"^{re.escape(error)}$"):
                load_uncertain(path)
            return
        rows = load_uncertain(path).tuples
        for j, column in enumerate(columns):
            for i, text in enumerate(column):
                got, want = rows[i][j], ingest.parse_cell(text)
                assert type(got) is type(want) and got == want, (i, j, text)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(PLAIN_CELL, PLAIN_CELL.map(" {}\t".format), st.sampled_from([
            "<1|2>", "<a|1.5>", " <0.25|-3> ", "<x>", "[1,2]", "[-0.5,1/2]", " [2,3] ", "<1|2",
            "[1,2"])), min_size=1, max_size=40),
        st.sampled_from(["", "", "", "x", "1/3", " 2.50", "<1|>", "[2,1]"]),
        st.integers(0, 40),
        st.integers(0, 2),
    )
    def test_mixed_batches_hold_parse_cell_values(self, cells_path, cells, other, at, second):
        # One batch of plain decimals, padded or not, next to <...> and
        # [...] cells, now and then with a symbol, a fraction or a refused
        # cell among them, in the first batch or after full ones: each cell
        # holds parse_cell's value and type, and the first refused names its
        # row.
        cells = cells[:at] + [other] + cells[at:] if other else cells
        texts = filler_cells("decimals", second * ingest._BATCH_ROWS) + cells
        path = write_columns(cells_path, [texts])
        error = first_cell_error([texts])
        if error is not None:
            with pytest.raises(InputError, match=f"^{re.escape(error)}$"):
                load_uncertain(path)
            return
        got = [row[0] for row in load_uncertain(path).tuples]
        want = list(map(ingest.parse_cell, texts))
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]

    def test_plain_batches_after_an_orset_batch(self, tmp_path):
        # The first batch switches the column to values; later plain batches
        # are read as their numbers, with parse_cell's types.
        rows = 3 * ingest._BATCH_ROWS
        texts = ["<1|2.5>"] + [f"{i}.{i % 4 * 25}" if i % 3 else str(-i) for i in range(1, rows)]
        path = write_columns(tmp_path / "d.csv", [texts])
        got = load_uncertain(path).tuples
        want = list(map(ingest.parse_cell, texts))
        assert [(type(cells[0]), cells[0]) for cells in got] == [(type(v), v) for v in want]
        assert {type(v) for v in want} == {models.OrSetCell, int, Fraction}

    @pytest.mark.parametrize("bad", [["[4,x]", "[4,x]"], ["[4,x]", "<1|>"]],
                             ids=["repeated", "two-texts"])
    def test_a_refused_cell_names_its_first_row(self, tmp_path, bad):
        # In the second batch, after good cells, the first refused cell is
        # the first reported, however often its text repeats.
        texts = [str(i) for i in range(ingest._BATCH_ROWS)] + ["5", "<1|2>", bad[0], "6", bad[1]]
        path = write_columns(tmp_path / "d.csv", [texts])
        message = str(pytest.raises(InputError, ingest.parse_cell, bad[0]).value)
        with pytest.raises(InputError) as err:
            load_uncertain(path)
        assert str(err.value) == f"row {ingest._BATCH_ROWS + 2}: {message}"

    def test_a_symbol_key_column_loads_as_symbols(self, tmp_path):
        rows = 2 * ingest._BATCH_ROWS + 7
        keys = [f"k{i}" for i in range(rows)]
        values = [f"<{i}|{i + 1}>" if i % 500 == 0 else str(i) for i in range(rows)]
        path = write_columns(tmp_path / "d.csv", [keys, values], ["K", "X"])
        table = load_uncertain(path)
        attrs, got = table.schema.attributes, table.tuples
        assert attrs == ("K", "X")
        assert [cells[0] for cells in got] == keys
        assert {type(cells[0]) for cells in got} == {str}

    def test_orset_and_interval_texts_stay_symbols_in_a_dataset(self, tmp_path):
        # load_dataset reads with parse_scalar: "<a|b>" and "[x]" are symbols,
        # in a batch of symbols and in a batch of numbers alike.
        texts = ["a", "<a|b>", "[x]", "b"]
        path = write_columns(tmp_path / "d.csv", [texts, ["1", "<a|b>", "[x]", "2.5"]])
        ds, _, _ = ingest.load_dataset(path, None, [])
        assert [t[0] for t in ds.tuples] == texts
        assert [t[1] for t in ds.tuples] == [1, "<a|b>", "[x]", Fraction(5, 2)]


def plain_decimal(places):
    """Unsigned plain decimals with ``places`` places."""
    return st.integers(0, 10**7).map(
        lambda v: f"{v // 10**places}.{v % 10**places:0{places}d}" if places else str(v))


WEIGHT_CELL = st.one_of(
    st.integers(0, 5).flatmap(plain_decimal),
    st.sampled_from(["", "  ", " 2.5 ", "\t7", "1/3", "0", "-1", "-0.25", "w"]),
)


def reference_weights(texts):
    """The weight column by the rule the plain-decimal reading replaced: each
    text through parse_scalar, a blank one read as 1; (data, scale), or the
    error text of the first failing row."""
    values = []
    for i, text in enumerate(texts):
        value = ingest.parse_scalar(text) if text.strip() else 1
        if isinstance(value, str):
            return f"row {i}: expected a number, got {text!r}"
        if value <= 0:
            return f"row {i}: weight must be positive"
        values.append(value)
    column = dataset.Column.of(values)
    return list(column.data), column.scale


class TestPlainRun:
    def test_mixed_places_scale_to_the_most(self):
        assert ingest._plain_run(["1.5", "-2", "0.125"]) == ([1500, -2000, 125], 3)

    @pytest.mark.parametrize("texts", [[" 1.5"], ["1.5", "2."], ["1.5", ".5"], ["1", "1e3"],
                                       ["1.5\n2"], ["\u0663"], ["1" * 5000]])
    def test_other_forms(self, texts):
        assert ingest._plain_run(texts) is None

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.sampled_from([0, ingest._BATCH_ROWS - 3]),
           st.lists(WEIGHT_CELL, min_size=1, max_size=30))
    def test_weights_read_as_parse_scalar_reads_them(self, cells_path, offset, cells):
        # Distinct four-place weights first, so the drawn cells may sit in
        # the second batch, after weights over another scale.
        texts = [f"{i + 1}.{i % 9999 + 1:04d}" for i in range(offset)] + cells
        path = write_columns(cells_path, [["1"] * len(texts), texts], ["A", "weight"])
        try:
            ds, _, _ = ingest.load_dataset(path, None, [])
            got = list(ds.weights.data), ds.weights.scale
        except InputError as exc:
            got = str(exc)
        assert got == reference_weights(texts)


# One fault per kind, as the cells of one row of "A,label,weight,rank", with
# the message that names it when it is the first faulty row.
FAULTS = {
    "ragged": ("1,0,1", "row {row}: expected 4 cells, got 3"),
    "label": ("1, ,1,{row}", "row {row}: empty label"),
    "weight": ("1,0,-2,{row}", "row {row}: weight must be positive"),
    "weight-text": ("1,0,w,{row}", "row {row}: expected a number, got 'w'"),
    "rank": ("1,0,1,r", "row {row}: rank must be an integer"),
}


def faulty_csv(path, rows, faults):
    """``rows`` good rows, with the row at each index of ``faults`` replaced
    by that kind of fault."""
    lines = ["A,label,weight,rank"]
    for i in range(rows):
        cells = FAULTS[faults[i]][0] if i in faults else "1,0,1,{row}"
        lines.append(cells.format(row=i))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestErrorPrecedence:
    """The first faulty row of the file is the one reported, whatever its
    fault and wherever the batches that read the file end."""

    @pytest.mark.parametrize("first", list(FAULTS))
    @pytest.mark.parametrize("later", list(FAULTS))
    def test_within_one_batch(self, tmp_path, first, later):
        path = faulty_csv(tmp_path / "d.csv", 10, {3: first, 5: later})
        with pytest.raises(InputError) as err:
            ingest.load_dataset(path, None, ["A"])
        assert str(err.value) == FAULTS[first][1].format(row=3)

    @pytest.mark.parametrize("first", list(FAULTS))
    @pytest.mark.parametrize("later", list(FAULTS))
    def test_across_the_batch_boundary(self, tmp_path, first, later):
        last = ingest._BATCH_ROWS - 1
        path = faulty_csv(tmp_path / "d.csv", last + 10, {last: first, last + 1: later})
        with pytest.raises(InputError) as err:
            ingest.load_dataset(path, None, ["A"])
        assert str(err.value) == FAULTS[first][1].format(row=last)

    def test_faults_in_one_row_go_label_weight_rank(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,label,weight,rank\n1,0,1,0\n1,,0,x\n")
        with pytest.raises(InputError, match=r"^row 1: empty label$"):
            ingest.load_dataset(str(path), None, ["A"])
        path.write_text("A,label,weight,rank\n1,0,1,0\n1,0,0,x\n")
        with pytest.raises(InputError, match=r"^row 1: weight must be positive$"):
            ingest.load_dataset(str(path), None, ["A"])

    def test_uncertain_fault_comes_after_the_rows_other_faults(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,label,weight,rank,uncertain\n1,0,1,0,1\n1,0,1,x,2\n")
        with pytest.raises(InputError, match=r"^row 1: rank must be an integer$"):
            ingest.load_dataset(str(path), None, ["A"])
        path.write_text("A,label,weight,rank,uncertain\n1,0,1,0,2\n1,,1,1,1\n")
        with pytest.raises(InputError, match=r"^row 0: uncertain must be one of"):
            ingest.load_dataset(str(path), None, ["A"])

    @pytest.mark.parametrize("at", [5, 900, ingest._BATCH_ROWS, 2500])
    @pytest.mark.parametrize("row_1, message", [
        ("2,", "row 1: empty label"),
        ("2", "row 1: expected 2 cells, got 1"),
        ("2,0", None),
    ], ids=["empty-label", "ragged", "no-fault"])
    def test_row_fault_before_an_unreadable_row(self, tmp_path, at, row_1, message):
        # A cell past csv's field size limit makes the reader itself fail at
        # row ``at``; a fault in row 1 is still the one reported.
        lines = ["A,label"] + [f"{i},0" for i in range(3000)]
        lines[2] = row_1
        lines[at + 1] = "x" * 200_000 + ",0"
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError) as err:
            ingest.load_dataset(str(path), None, ["A"])
        limit = f"cannot read {path}: field larger than field limit ({csv.field_size_limit()})"
        assert str(err.value) == (message or limit)


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
