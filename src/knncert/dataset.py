"""Labeled training points over an FD schema, stored column by column.

A ``LabeledDataset`` keeps one ``Column`` per attribute, one of the rows'
weights and each row's label. A numeric column holds ints over one scale,
so equal values hold equal ints: keys, FD lookups and the identical-row
check compare those ints directly, ranking reads them without building a
``Fraction`` per cell, and the weighted vote, DP and minimum-weight repair
add them.
``make_dataset`` and ``ingest.load_dataset`` build the columns. ``cells`` is
each row's ``data`` entries, which the lhs-chain paths group on; ``tuples``
is each row's values, built on first use for the oracle, ``hardgen``,
``ingest.dataset_csv`` and the benchmark.

Everything distance-related uses the exact surrogate sum(|dx|^p): it is
order-equivalent to the p-norm (the 1/p root is never taken), so orderings
and tie-breaks are reproducible bit for bit. ``surrogate_distance`` states
it in rational arithmetic for one row. ``order_by_distance`` ranks a whole
dataset in exact Python integers instead: ``_scaled_features`` checks the
input and scales every coordinate by the common denominator of all of them,
which multiplies each distance by the same positive constant and so leaves
the order unchanged. ``fastscan.rank_by_distance``, a drop-in for it on the
primary-key path, sums the same checked ints in int64 when a bound shows
they fit; this module stays free of numpy, which the chain paths never load.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .fdschema import FdSchema

# Domain values: exact numbers for feature attributes, anything hashable
# (symbols, composite pairs) elsewhere.
Value = object


@dataclass(frozen=True)
class TestPoint:
    coords: tuple


def _rational(num: int, scale: int):
    return num // scale if num % scale == 0 else Fraction(num, scale)


@dataclass(frozen=True, eq=False)
class Column:
    """One attribute's cells in row order.

    A numeric column has an int ``scale`` and cell i is ``data[i] / scale``;
    the ints sit in an ``array('q')`` when they fit in 64 bits, and keep the
    values' order, ties and sums. Any other column has ``scale`` None and
    ``data`` holds the values themselves. ``Column.of`` picks the kind, so a
    column of the second kind holds at least one value that is not a
    number. Within one column, equal cells have equal ``data`` entries.
    """

    data: Sequence
    scale: Optional[int] = None

    @staticmethod
    def numeric(nums: Sequence[int], scale: int) -> "Column":
        try:
            nums = array("q", nums)
        except OverflowError:
            nums = list(nums)
        return Column(nums, scale)

    @staticmethod
    def of(values: Sequence) -> "Column":
        """The column of ``values``: numeric over the lcm of their
        denominators when every value is an int or a Fraction."""
        if all(isinstance(v, (int, Fraction)) for v in values):
            scale = math.lcm(*{v.denominator for v in values})
            return Column.numeric([v.numerator * (scale // v.denominator) for v in values], scale)
        return Column(tuple(values))

    def __len__(self) -> int:
        return len(self.data)

    def value(self, i: int):
        """Cell i as a value: an int when whole, else a reduced Fraction,
        or the stored value in a non-numeric column."""
        return self.data[i] if self.scale is None else _rational(self.data[i], self.scale)

    def values(self) -> list:
        scale = self.scale
        if scale is None or scale == 1:
            return list(self.data)
        return [_rational(v, scale) for v in self.data]


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Labeled tuples, one column per attribute, plus the feature
    attributes used for distance. Tuple ids are dense row indices 0..n-1;
    ``row_labels`` holds each row's label, the numeric ``weights`` column
    their weights, and ``labels`` is the label alphabet in sorted order, so
    a label's index is its code. The constructor checks the columns' shape,
    the alphabet and the features; ``make_dataset`` and ``ingest`` check the
    weights. Datasets compare and hash by identity.
    """

    schema: FdSchema
    columns: tuple[Column, ...]
    row_labels: tuple[str, ...]
    weights: Column
    labels: tuple[str, ...]
    features: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.row_labels)
        if len(self.columns) != self.schema.arity:
            raise InputError("one column per schema attribute is required")
        if len(self.weights) != n or any(len(c) != n for c in self.columns):
            raise InputError("columns, labels and weights must have one entry per row")
        if list(self.labels) != sorted(set(self.labels)):
            raise InputError("label alphabet must be sorted and distinct")
        if outside := set(self.row_labels) - set(self.labels):
            raise InputError(f"labels outside alphabet: {sorted(outside)}")
        for f in self.features:
            self.schema.index(f)

    @property
    def size(self) -> int:
        return len(self.row_labels)

    @cached_property
    def feature_indices(self) -> tuple[int, ...]:
        return tuple(self.schema.index(f) for f in self.features)

    @cached_property
    def cells(self) -> tuple[tuple, ...]:
        """Each row's ``data`` entries: two at an attribute are equal iff their values are."""
        return tuple(zip(*[c.data for c in self.columns]))

    @cached_property
    def tuples(self) -> tuple[tuple, ...]:
        """Each row's values as a plain tuple, built from the columns on
        first use."""
        return tuple(zip(*[c.values() for c in self.columns]))

    def ids(self) -> range:
        return range(self.size)


def make_dataset(
    schema: FdSchema,
    rows: Sequence[tuple],
    features: Iterable[str],
    labels: Optional[Iterable[str]] = None,
) -> LabeledDataset:
    """Build a dataset from (values, label) or (values, label, weight) rows,
    checking every row's weight before any row's arity."""
    values, row_labels, weights = [], [], []
    for i, row in enumerate(rows):
        row_labels.append(str(row[1]))
        weights.append(Fraction(row[2]) if len(row) > 2 else 1)
        values.append(tuple(row[0]))
        if weights[-1] <= 0:
            raise InputError(f"tuple {i}: weight must be positive")
    alphabet = tuple(sorted(set(row_labels) if labels is None else {str(lab) for lab in labels}))
    for i, v in enumerate(values):
        if len(v) != schema.arity:
            raise InputError(f"tuple {i}: arity mismatch")
    columns = tuple(Column.of([v[j] for v in values]) for j in range(schema.arity))
    return LabeledDataset(schema, columns, tuple(row_labels), Column.of(weights), alphabet,
                          tuple(features))


@dataclass(frozen=True)
class Ordering:
    """A strict order of all tuple ids, nearest first."""

    ranked: tuple[int, ...]

    def __post_init__(self) -> None:
        ranked, n = self.ranked, len(self.ranked)
        # n distinct ints within [0, n) are a permutation: one set and the
        # bounds. Any other id must be an integer (True, numpy ints), which
        # ``operator.index`` admits and a float or Fraction it refuses.
        if set(map(type, ranked)) <= {int}:
            ok = len(set(ranked)) == n and (n == 0 or (min(ranked) >= 0 and max(ranked) < n))
        else:
            try:
                ok = set(map(operator.index, ranked)) == set(range(n))
            except TypeError:
                ok = False
        if not ok:
            raise InputError("ordering must be a permutation of 0..n-1")

    @cached_property
    def rank_of(self) -> tuple[int, ...]:
        """1-based rank per tuple id (rank 1 is nearest)."""
        pos = [0] * len(self.ranked)
        for rank, tid in enumerate(self.ranked, start=1):
            pos[tid] = rank
        return tuple(pos)


@dataclass(frozen=True)
class PredictOutcome:
    """Result of a k-NN vote: a winning label, a tie, or an empty input."""

    kind: str  # "label" | "tie" | "empty"
    label: Optional[str] = None

    @staticmethod
    def of_label(label: str) -> "PredictOutcome":
        return PredictOutcome("label", label)

    TIE = None  # type: PredictOutcome
    EMPTY = None  # type: PredictOutcome

    def is_label(self, label: Optional[str] = None) -> bool:
        if self.kind != "label":
            return False
        return label is None or self.label == label


PredictOutcome.TIE = PredictOutcome("tie")
PredictOutcome.EMPTY = PredictOutcome("empty")


def _non_numeric(v) -> bool:
    return not isinstance(v, (int, Fraction))


def surrogate_distance(x: TestPoint, dataset: LabeledDataset, tid: int, p: int):
    """Exact monotone surrogate of the p-norm distance from ``x`` to row
    ``tid``: sum(|dx|^p)."""
    if not isinstance(p, int) or p < 1:
        raise InputError("p must be an integer >= 1")
    total = Fraction(0)
    for coord, idx in zip(x.coords, dataset.feature_indices):
        v = dataset.columns[idx].value(tid)
        if _non_numeric(v) or _non_numeric(coord):
            raise InputError(f"non-numeric feature value in tuple {tid}")
        total += abs(coord - v) ** p
    return total


def _first_non_numeric(column: Sequence) -> int:
    for i, v in enumerate(column):
        if _non_numeric(v):
            return i
    return len(column)


def _scaled_features(dataset: LabeledDataset, x: TestPoint, p: int) -> list[tuple]:
    """Per feature, (ints, factor, at): ints[i] * factor and at are cell i
    and the coordinate times D, the lcm of the column scales and the
    coordinates' denominators. Checks, in order, the point's arity, p, the
    coordinates and the columns; a non-numeric value is reported at the
    lowest id whose distance needs it, id 0 for a coordinate."""
    if len(x.coords) != len(dataset.features):
        raise InputError("test point arity must match the feature list")
    if not isinstance(p, int) or p < 1:
        raise InputError("p must be an integer >= 1")
    if any(_non_numeric(c) for c in x.coords):
        raise InputError("non-numeric feature value in tuple 0")
    n = dataset.size
    columns = [dataset.columns[idx] for idx in dataset.feature_indices]
    bad = min([_first_non_numeric(c.data) for c in columns if c.scale is None], default=n)
    if bad < n:
        raise InputError(f"non-numeric feature value in tuple {bad}")
    scale = math.lcm(*[c.scale for c in columns], *[c.denominator for c in x.coords])
    return [(col.data, scale // col.scale, coord.numerator * (scale // coord.denominator))
            for col, coord in zip(columns, x.coords)]


def order_by_distance(dataset: LabeledDataset, x: TestPoint, p: int) -> Ordering:
    """Rank all tuples by surrogate distance ascending, ties by ascending id.

    Over ``_scaled_features``' common scale D, sum(|v*factor - at|^p) is a
    Python int, exact and free of overflow, equal to D^p times the rational
    surrogate. The stable sort keeps tied tuples in ascending id order.
    """
    features = _scaled_features(dataset, x, p)
    n = dataset.size
    if n:
        _check_power_cost(n, p, [max(abs(min(ints) * f - at), abs(max(ints) * f - at))
                                 for ints, f, at in features])
    dist = [0] * n
    for ints, factor, at in features:
        if factor == 1:
            dist = [d + abs(v - at) ** p for d, v in zip(dist, ints)]
        else:
            dist = [d + abs(v * factor - at) ** p for d, v in zip(dist, ints)]
    return Ordering(tuple(sorted(range(n), key=dist.__getitem__)))


# log2 of the work allowed for forming the distances, counted as n * b**1.6
# for n rows of b-bit distances: Python squares large ints by Karatsuba, so
# one b-bit power costs about b**1.6 word steps, and a budget on n * b alone
# would let two rows run for hours. 2**38 lets 10**6 rows hold distances of
# 2,500 bits, or one row one of 2**23.75 bits; the slowest call it admits,
# a reach of 3 at any n, took about 7 s on a 2-core x86 host.
_POWER_BUDGET_LOG2 = 38


def _check_power_cost(n: int, p: int, reaches: list[int]) -> None:
    """Raise InputError when p makes the largest ``reaches[j]**p``, the
    widest |v*factor - at| of column j, too long to form for n rows. r**p
    has at least (bit length of r - 1) * p + 1 bits for r >= 1, so only a
    call whose cost surely exceeds the budget is refused."""
    bits = max([(r.bit_length() - 1) * p + 1 if r else 0 for r in reaches], default=0)
    if bits and math.log2(n) + 1.6 * math.log2(bits) > _POWER_BUDGET_LOG2:
        raise InputError(f"p = {p} is too large: {n} distances of at least {bits} bits each")


@lru_cache(maxsize=None)
def _fd_index_pairs(schema: FdSchema) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    return tuple(
        (
            tuple(schema.index(a) for a in schema.sort_attrs(fd.lhs)),
            tuple(schema.index(a) for a in schema.sort_attrs(fd.rhs)),
        )
        for fd in schema.fds
    )


def conflicts(t: tuple, u: tuple, schema: FdSchema) -> bool:
    """True iff some FD has rows t, u agreeing on its lhs but not on its rhs."""
    for lhs_idx, rhs_idx in _fd_index_pairs(schema):
        if all(t[i] == u[i] for i in lhs_idx) and any(t[i] != u[i] for i in rhs_idx):
            return True
    return False


def predict(dataset: LabeledDataset, ids: Iterable[int], ordering: Ordering, k: int,
            weighted: bool = False) -> PredictOutcome:
    """Vote over the min(k, |ids|) nearest members of ``ids``, each
    counting its weight when ``weighted``, else 1. The winner must be
    strictly heaviest; a shared maximum is a tie."""
    if k < 1:
        raise InputError("k must be >= 1")
    idset = set(ids)
    if not idset:
        return PredictOutcome.EMPTY
    labels, weights = dataset.row_labels, dataset.weights.data
    take = min(k, len(idset))
    totals: dict[str, int] = {}
    seen = 0
    for tid in ordering.ranked:
        if tid in idset:
            totals[labels[tid]] = totals.get(labels[tid], 0) + (weights[tid] if weighted else 1)
            seen += 1
            if seen == take:
                break
    best = max(totals.values())
    winners = [lab for lab, tot in totals.items() if tot == best]
    if len(winners) > 1:
        return PredictOutcome.TIE
    return PredictOutcome.of_label(winners[0])


def greedy_repair(dataset: LabeledDataset, ordering: Ordering) -> tuple[int, ...]:
    """Scan nearest-first, keeping each tuple that conflicts with nothing kept.

    One dict per FD maps seen lhs cells to their rhs cells, so the scan is
    linear in expectation. The result is a repair: consistent and maximal.
    """
    cols = [c.data for c in dataset.columns]
    fd_slots = [(lhs_idx, rhs_idx, {}) for lhs_idx, rhs_idx in _fd_index_pairs(dataset.schema)]
    kept: list[int] = []
    for tid in ordering.ranked:
        ok = True
        for lhs_idx, rhs_idx, index in fd_slots:
            key = tuple(cols[i][tid] for i in lhs_idx)
            rhs = tuple(cols[i][tid] for i in rhs_idx)
            if index.get(key, rhs) != rhs:
                ok = False
                break
        if ok:
            kept.append(tid)
            for lhs_idx, rhs_idx, index in fd_slots:
                index[tuple(cols[i][tid] for i in lhs_idx)] = tuple(cols[i][tid] for i in rhs_idx)
    return tuple(sorted(kept))
