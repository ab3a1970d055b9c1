"""File formats: schema JSON, dataset CSV, uncertain tables, formula files.

Every file is read as UTF-8, a leading byte-order mark skipped. CSV
conventions: the header carries at least one attribute name plus a required
``label`` column and optional ``weight``, ``rank`` and ``uncertain`` columns,
each named once. Every non-blank row has as many cells as the header.
Scalar cells are integers, fractions like ``1/2`` or decimals (parsed
exactly), anything else is a symbol. Uncertain tables additionally allow
or-set cells ``<a|b|c>`` and interval cells ``[lo,hi]``.

One reader, ``_read_table``, reads every table in batches, a column at a
time: the reserved columns' checks name the first failing row, and one
``_ColumnBuilder`` per attribute keeps each batch's cells as read. A batch
of plain decimals is kept as digit ints and its number of places
(``_plain_run``: one regex, and one ``map(int, ...)`` when the places
agree), so no ``Fraction`` and no per-row record is built. Each column is
settled once, after the last batch: fixed-point ints over its largest
number of places when every batch was plain decimals, else ``Column.of``
its values (see ``dataset.Column``); the weights become ``Column.of`` the
values read. Other cells are read by ``load_dataset``'s ``read``:
``parse_scalar``, or ``parse_cell`` for an uncertain table, so a table with
no or-set or interval cell loads alike through both; the latter reads no
reserved column but ``label`` and refuses a header naming another. It
stays pure Python: the chain subcommands, which never load numpy, share it.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from array import array
from fractions import Fraction
from itertools import islice, repeat
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

from .dataset import Column, LabeledDataset, Ordering, TestPoint, _rational
from .errors import InputError
from .fdschema import FdSchema

if TYPE_CHECKING:  # imported where used, so a dataset load never loads them
    from .hardgen import Sat3R

RESERVED = ("label", "weight", "rank", "uncertain")
# The stripped ``uncertain`` cells: whether each marks its row deletable.
_MARKS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False, "": False}


def load_schema(path: str) -> FdSchema:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read schema {path}: {exc}") from None
    try:
        attributes, fds = raw["attributes"], [(fd["lhs"], fd["rhs"]) for fd in raw["fds"]]
        # A string is iterable too, and would be read as its characters.
        fields = [("attributes", attributes)] + [f for fd in fds for f in zip(("lhs", "rhs"), fd)]
        for name, value in fields:
            if not isinstance(value, list):
                raise InputError(f"malformed schema {path}: {name!r} must be a JSON list, "
                                 f"got {value!r}")
        return FdSchema.of(attributes, fds)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed schema {path}: {exc}") from None


def parse_scalar(text: str):
    """The cell's value as ``Fraction(text)`` reads it, an int when whole,
    or the stripped text itself when that is not a number.

    Fraction's grammar needs a sign, a dot or a decimal digit first, so any
    other first character is a symbol at once.
    """
    text = text.strip()
    if not text or not (text[0] in "+-." or text[0].isdecimal()):
        return text
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return text
    return int(value) if value.denominator == 1 else value


def parse_number(text: str) -> Fraction:
    value = parse_scalar(text)
    if isinstance(value, str):
        raise InputError(f"expected a number, got {text!r}")
    return Fraction(value)


def parse_point(text: str, expected: int) -> TestPoint:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if len(parts) != expected:
        raise InputError(f"test point needs {expected} coordinates, got {len(parts)}")
    return TestPoint(tuple(parse_number(p) for p in parts))


def _read_batches(path: str) -> Iterator[list]:
    """Yield the stripped header, then the non-blank rows, each as wide as
    the header, in lists of up to ``_BATCH_ROWS``. A ragged row or a read
    error ends its batch early and is raised on the next read, so the
    caller checks the rows before it first."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if "label" not in header:
                raise InputError(f"{path}: missing required column 'label'")
            if len(set(header)) < len(header):
                twice = next(h for i, h in enumerate(header) if h in header[:i])
                raise InputError(f"{path}: column {twice!r} appears more than once")
            yield header
            rows, start, failure = filter(None, reader), 0, None
            while failure is None:
                batch: list = []
                try:
                    batch.extend(islice(rows, _BATCH_ROWS))  # keeps the rows read before a failure
                except (OSError, csv.Error, UnicodeDecodeError) as exc:
                    failure = exc
                if not set(map(len, batch)) <= {len(header)}:
                    i = next(i for i, row in enumerate(batch) if len(row) != len(header))
                    failure = InputError(
                        f"row {start + i}: expected {len(header)} cells, got {len(batch[i])}")
                    del batch[i:]
                if batch:
                    yield batch
                if len(batch) < _BATCH_ROWS and failure is None:
                    return
                start += len(batch)
            raise failure
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _attributes(header: Sequence[str], schema: Optional[FdSchema]) -> tuple[str, ...]:
    plain = [h for h in header if h not in RESERVED]
    if schema is None:
        return tuple(plain)
    missing = set(schema.attributes) - set(plain)
    extra = set(plain) - set(schema.attributes)
    if missing or extra:
        raise InputError(
            f"columns do not match schema attributes (missing {sorted(missing)}, extra {sorted(extra)})"
        )
    return schema.attributes


class _ColumnBuilder:
    """One attribute's cells as ``read`` (``parse_scalar`` or ``parse_cell``)
    reads them, kept a batch at a time as read: a run of unpadded symbols
    not opening with ``<`` or ``[`` as its texts, a run of plain ASCII
    decimals (``_plain_run``, offered the stripped cells when a cell is
    padded) as its ``(ints, places)``, and any other batch as ``read``'s
    value for each distinct text, each read once. ``column`` settles the
    scale once, so where a batch ends never matters.
    """

    __slots__ = ("read", "batches")

    def __init__(self, read: Callable[[str], Any]) -> None:
        self.read = read
        self.batches: list[tuple[Sequence, Optional[int]]] = []  # (values, None) or (ints, places)

    def extend(self, texts: Sequence[str]) -> Optional[tuple[int, str]]:
        """Take the column's next cells: None, or (row in batch, message)
        for the first cell that ``read`` refuses."""
        if _SYMBOL_RUN.fullmatch("\n".join(texts)):
            self.batches.append((texts, None))
        elif run := _plain_run(texts) or _plain_run([text.strip() for text in texts]):
            self.batches.append(run)
        else:  # each distinct text once, by first appearance: the first refused is the first row
            read = {}
            for text in dict.fromkeys(texts):
                try:
                    read[text] = self.read(text)
                except InputError as exc:
                    return texts.index(text), str(exc)
            self.batches.append((list(map(read.__getitem__, texts)), None))
        return None

    def column(self) -> Column:
        """Digit integers over the most places when every batch was plain
        decimals, else ``Column.of`` the values."""
        places = [p for _, p in self.batches]
        if None not in places:
            top, nums = max(places, default=0), []
            for ints, p in self.batches:
                nums += ints if p == top else [v * 10 ** (top - p) for v in ints]
            return Column.numeric(nums, 10**top)
        values: list = []
        for data, p in self.batches:
            values += data if p is None else map(_rational, data, repeat(10**p))
        return Column.of(values)


# Cells joined by line breaks that parse_scalar and parse_cell keep as they
# are: unpadded, first character no sign, dot, digit, "<" or "[" (\s, \d:
# str.isspace, isdecimal).
_SYMBOL_RUN = re.compile(r"[^\s\d+\-.<\[](?:.*\S)?(?:\n[^\s\d+\-.<\[](?:.*\S)?)*")
# Unpadded plain ASCII decimals joined by line breaks, at any numbers of places.
_PLAIN_CELLS = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+)?(?:\n[+-]?[0-9]+(?:\.[0-9]+)?)*")


def _plain_run(texts: Sequence[str]) -> Optional[tuple[list[int], int]]:
    """``(ints, places)`` when every cell is an unpadded plain ASCII decimal
    ``[+-]d+[.d+]``, cell i being ``ints[i] / 10**places``; None for any
    other cell, or a digit run longer than ``int()`` converts, which
    ``Fraction(text)`` reads group by group. One ``map(int)`` reads a batch
    whose cells all have the first cell's places; any other mix is scaled
    cell by cell to the most places a cell has."""
    places = len(texts[0].partition(".")[2])
    cell = r"[+-]?[0-9]+" + (rf"\.[0-9]{{{places}}}" if places else "")
    joined = "\n".join(texts)
    digits = joined.replace(".", "").split("\n")
    if len(digits) != len(texts):
        return None  # a cell holding a line break
    try:
        if re.fullmatch(rf"{cell}(?:\n{cell})*", joined):
            return list(map(int, digits)), places
        if not _PLAIN_CELLS.fullmatch(joined):
            return None
        shifts = [len(text.partition(".")[2]) for text in texts]
        top = max(shifts)
        return [int(d) * 10 ** (top - s) for d, s in zip(digits, shifts)], top
    except ValueError:
        return None


_BATCH_ROWS = 1024  # rows read and checked together, column by column


def _read_table(path: str, schema: Optional[FdSchema], read: Callable[[str], Any]):
    """Read and check a table: (columns by attribute, labels, sorted label
    alphabet, weight column, rank order, marked ids). Read by ``parse_cell``,
    a header naming a reserved column other than ``label`` is refused.

    The table is read a batch at a time, and each batch checked as read:
    one ``_ColumnBuilder(read)`` per attribute keeps its cells, and the
    weights are kept as read, one shared value per distinct text. Each
    column's scale is settled once, after the last batch. An error names
    the first failing row of the file: its cells in attribute order first,
    then label, weight, rank and uncertain. The weights, rank order and
    marked ids are None when their column is absent; an all-zero uncertain
    column is an explicit empty marking, not the same.
    """
    batches = _read_batches(path)
    header = next(batches)
    if read is parse_cell and (unread := [h for h in header if h in RESERVED[1:]]):
        raise InputError(f"{path}: column {unread[0]!r} is not read from an uncertain table")
    attrs = _attributes(header, schema)
    if not attrs:
        raise InputError(f"{path}: no attribute columns")
    column = {name: j for j, name in enumerate(header)}
    builders = {a: _ColumnBuilder(read) for a in attrs}
    label_col, weight_col, rank_col, uncertain_col = map(column.get, RESERVED)

    alphabet: dict[str, str] = {}  # one shared str per label
    weights: list = []
    row_labels: list[str] = []
    ranks: list[int] = []
    uncertain: list[int] = []
    for batch in batches:
        start = len(row_labels)
        cells = list(zip(*batch))
        faults = []  # (row in batch, check order, message) of each failing check
        for order, (name, cell_builder) in enumerate(builders.items(), -len(builders)):
            fault = cell_builder.extend(cells[column[name]])
            if fault is not None:
                faults.append((fault[0], order, f"row {start + fault[0]}: {fault[1]}"))
        labels = list(map(str.strip, cells[label_col]))
        if "" in labels:
            faults.append((labels.index(""), 0, f"row {start + labels.index('')}: empty label"))
        if weight_col is not None:  # each distinct cell text read once per batch
            texts, distinct = cells[weight_col], list(set(cells[weight_col]))
            stripped = [text.strip() or "1" for text in distinct]  # a blank weight is 1
            run = _plain_run(stripped)
            weight = dict(zip(distinct, map(_rational, run[0], repeat(10 ** run[1])) if run
                              else map(parse_scalar, stripped)))
            if bad := [t for t, w in weight.items() if isinstance(w, str) or w <= 0]:
                i = min(map(texts.index, bad))
                fault = (f"expected a number, got {texts[i]!r}" if isinstance(weight[texts[i]], str)
                         else "weight must be positive")
                faults.append((i, 1, f"row {start + i}: {fault}"))
            else:
                weights.extend(map(weight.__getitem__, texts))
        if rank_col is not None:
            try:
                ranks.extend(map(int, cells[rank_col]))  # keeps the ranks before a failure
            except ValueError:  # at the row after the last rank kept
                faults.append((len(ranks) - start, 2, f"row {len(ranks)}: rank must be an integer"))
        if uncertain_col is not None:
            marks = list(map(_MARKS.get, map(str.strip, cells[uncertain_col])))
            if None in marks:
                i = marks.index(None)
                faults.append((i, 3, f"row {start + i}: uncertain must be one of 1, true, yes, 0, "
                                     f"false, no or empty, got {cells[uncertain_col][i]!r}"))
        if faults:
            raise InputError(min(faults)[2])
        row_labels.extend(map(alphabet.setdefault, labels, labels))
        if uncertain_col is not None:
            uncertain += [start + i for i, mark in enumerate(marks) if mark]

    rank_order: Optional[tuple[int, ...]] = None
    if rank_col is not None:
        if len(set(ranks)) != len(ranks):
            first: dict[int, int] = {}
            row = next(i for i, r in enumerate(ranks) if first.setdefault(r, i) != i)
            raise InputError(f"row {row}: rank column must hold distinct integers")
        rank_order = tuple(tid for _, tid in sorted(zip(ranks, range(len(ranks)))))
    marked = frozenset(uncertain) if uncertain_col is not None else None
    columns = {a: b.column() for a, b in builders.items()}
    weight_column = Column.of(weights) if weight_col is not None else None
    return columns, row_labels, tuple(sorted(alphabet)), weight_column, rank_order, marked


def load_dataset(
    path: str,
    schema: Optional[FdSchema],
    features: Sequence[str],
    read: Callable[[str], Any] = parse_scalar,
) -> tuple[LabeledDataset, Optional[tuple[int, ...]], Optional[frozenset[int]]]:
    """Load a CSV into a dataset; returns (dataset, ranks, uncertain ids).
    With ``schema`` None the attributes come from the header, with no FDs;
    ``read=parse_cell`` loads an uncertain table, its cells OrSetCells,
    CoddCells or scalars."""
    columns, labels, alphabet, weights, ranks, marked = _read_table(path, schema, read)
    dataset = LabeledDataset(
        schema or FdSchema.of(tuple(columns), []),
        tuple(columns.values()),
        tuple(labels),
        weights if weights is not None else Column(array("q", [1]) * len(labels), 1),
        alphabet,
        tuple(features),
    )
    return dataset, ranks, marked


def ordering_from_ranks(rank_order: Optional[tuple[int, ...]]) -> Ordering:
    if rank_order is None:
        raise InputError("explicit-order mode needs a 'rank' column")
    return Ordering(rank_order)


def parse_cell(text: str):
    """Scalar, or-set ``<a|b|c>``, or interval ``[lo,hi]``; only the last
    two import ``models``."""
    text = text.strip()
    ends = text[:1] + text[-1:]
    if ends not in ("<>", "[]"):
        return parse_scalar(text)
    from .models import CoddCell, OrSetCell

    if ends == "<>":
        parts = [parse_scalar(p) for p in text[1:-1].split("|")]
        if "" in parts:
            raise InputError(f"or-set cell has an empty alternative: {text!r}")
        return OrSetCell(tuple(parts))
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise InputError(f"interval cell needs two endpoints: {text!r}")
    return CoddCell(parse_number(parts[0]), parse_number(parts[1]))


def open_for_writing(path: str, mode: str = "w", **kwargs):
    """``open(path, mode)``, failing with an InputError instead of OSError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def write_all(texts: dict[str, str]) -> None:
    """Write each text to its path as is, all or nothing.

    Every path is first opened for appending, which creates it but keeps
    its contents. When one cannot be opened, the files this call created
    are removed again and the InputError propagates, so no target is
    written; otherwise each is rewritten with its text.
    """
    created: list[str] = []
    try:
        for path in texts:
            fresh = not os.path.lexists(path)
            open_for_writing(path, "a").close()
            if fresh:
                created.append(path)
    except InputError:
        for path in created:
            os.remove(path)
        raise
    for path, text in texts.items():
        with open_for_writing(path, newline="") as fh:
            fh.write(text)


def dataset_csv(dataset: LabeledDataset) -> str:
    """The dataset as CSV text: attribute columns, then ``label``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(dataset.schema.attributes) + ["label"])
    for t, label in zip(dataset.tuples, dataset.row_labels):
        writer.writerow([*map(str, t), label])
    return buf.getvalue()


def load_formula(path: str) -> Sat3R:
    """One clause per line of signed integers; ``c``/``p`` lines are skipped,
    a trailing 0 per line is ignored; variable count is the largest index."""
    from .hardgen import Sat3R

    clauses = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read formula {path}: {exc}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith(("c", "p", "#")):
            continue
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise InputError(f"bad formula line: {line!r}") from None
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        clauses.append(tuple(lits))
    num_vars = max((abs(l) for clause in clauses for l in clause), default=0)
    return Sat3R(num_vars, tuple(clauses))


def write_formula(path: str, phi: Sat3R) -> None:
    with open_for_writing(path) as fh:
        for clause in phi.clauses:
            fh.write(" ".join(str(l) for l in clause) + " 0\n")
