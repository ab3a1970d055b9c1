"""Certification under three light uncertainty models.

?-sets: up to a budget of marked tuples may be deleted; a sliding scan over
the distance order maintains the most promising k-neighborhood reachable
within the budget. Or-sets: each cell offers finitely many values and one
is realized per world; expanding realizations under a fresh key attribute
turns worlds into block repairs. Codd tables: missing values range over
rational intervals; per row only the nearest and farthest completions
matter, so a two-tuple block per row reduces the infinite world set to the
primary-key scan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .certresult import CertResult, challenge
from .dataset import LabeledDataset, Ordering, TestPoint, make_dataset, order_by_distance
from .errors import CapExceededError, InputError
from .fastscan import KeyedDataset, as_keyed, certify_pk
from .fdschema import FdSchema


@dataclass(frozen=True)
class QSetInstance:
    """A dataset with a deletable subset and a deletion budget."""

    dataset: LabeledDataset
    uncertain: frozenset[int]
    budget: int

    def __post_init__(self) -> None:
        if not self.uncertain <= set(self.dataset.ids()):
            raise InputError("uncertain ids outside the dataset")
        if not 0 <= self.budget <= len(self.uncertain):
            raise InputError("budget must lie in 0..|uncertain|")


def _qset_scan(q: QSetInstance, ordering: Ordering, k: int, ell: str, ell1: str):
    """Return the removed-id list of a world where ell catches ell1, or None.

    The candidate neighborhood starts as the k nearest tuples; each step
    admits the next tuple and evicts the least useful deletable member
    (incumbent-labeled first, neutral next, target-labeled last; FIFO within
    a class). Every state reached this way is the exact k-neighborhood of
    the world deleting the evicted tuples.
    """
    ds = q.dataset
    labels = ds.row_labels

    def priority(lab: str) -> int:
        if lab == ell1:
            return 0
        return 2 if lab == ell else 1

    count_target = count_ref = 0
    buckets = (deque(), deque(), deque())
    removed: list[int] = []

    def admit(tid: int) -> None:
        nonlocal count_target, count_ref
        lab = labels[tid]
        if lab == ell:
            count_target += 1
        elif lab == ell1:
            count_ref += 1
        if tid in q.uncertain:
            buckets[priority(lab)].append(tid)

    for tid in ordering.ranked[:k]:
        admit(tid)
    for tid in ordering.ranked[k:]:
        if count_target >= count_ref:
            return removed
        if not any(buckets) or len(removed) >= q.budget:
            return None
        admit(tid)
        for bucket in buckets:
            if bucket:
                out = bucket.popleft()
                lab = labels[out]
                if lab == ell:
                    count_target -= 1
                elif lab == ell1:
                    count_ref -= 1
                removed.append(out)
                break
    return removed if count_target >= count_ref else None


def qset_certify(q: QSetInstance, ordering: Ordering, k: int) -> CertResult:
    """Certify robustness against deleting at most ``budget`` marked tuples.

    Requires k <= n - budget so every world has a full k-neighborhood. The
    whole dataset is itself a world, so its prediction is the incumbent; a
    triggering scan state is converted to an explicit world and re-verified
    before being reported.
    """
    ds = q.dataset
    n = ds.size
    if k < 1:
        raise InputError("k must be >= 1")
    if k > n - q.budget:
        raise InputError("k must be at most n - budget")
    everything = tuple(ds.ids())

    def world(ell: str, ell1: str):
        removed = _qset_scan(q, ordering, k, ell, ell1)
        if removed is None:
            return None
        assert len(removed) <= q.budget and set(removed) <= q.uncertain
        return tuple(sorted(set(everything) - set(removed)))

    return challenge(ds, ordering, k, everything, world)


@dataclass(frozen=True)
class OrSetCell:
    """A cell holding finitely many alternative values."""

    choices: tuple

    def __post_init__(self) -> None:
        if len(self.choices) < 1:
            raise InputError("or-set must offer at least one value")

    def distinct(self) -> tuple:
        return tuple(dict.fromkeys(self.choices))


def orset_expand(
    attributes: Sequence[str],
    rows: Sequence[tuple],
    features: Sequence[str],
    cap: int = 100_000,
) -> KeyedDataset:
    """Expand or-set rows into one tuple per realization under a fresh key.

    ``rows`` holds (cells, label) pairs where each cell is a plain value or
    an OrSetCell. All realizations of a row share its id, so the expanded
    schema is a primary key on id and worlds become block repairs.
    """
    if "id" in attributes:
        raise InputError("attribute 'id' already present")
    schema = FdSchema.of(tuple(attributes) + ("id",), [(["id"], list(attributes))])

    total = 0
    expanded: list[tuple] = []
    for row_index, row in enumerate(rows):
        cells, label = row[0], row[1]
        if len(cells) != len(attributes):
            raise InputError(f"row {row_index}: arity mismatch")
        options = [
            cell.distinct() if isinstance(cell, OrSetCell) else (cell,) for cell in cells
        ]
        count = 1
        for opt in options:
            count *= len(opt)
        total += count
        if total > cap:
            raise CapExceededError(f"or-set expansion exceeds cap {cap}")
        stack = [()]
        for opt in options:
            stack = [prefix + (v,) for prefix in stack for v in opt]
        for realization in stack:
            expanded.append((realization + (row_index,), label))
    dataset = make_dataset(schema, expanded, features)
    return as_keyed(dataset)


@dataclass(frozen=True)
class CoddCell:
    """A missing value constrained to a closed rational interval."""

    low: Fraction
    high: Fraction

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise InputError("interval low must not exceed high")


def _completion_pair(cells, x: TestPoint, attributes, features):
    """Nearest and farthest completions of one row, per coordinate: the
    same for every p."""
    feature_pos = {a: i for i, a in enumerate(features)}
    nearest = []
    farthest = []
    for attr, cell in zip(attributes, cells):
        if not isinstance(cell, CoddCell):
            nearest.append(cell)
            farthest.append(cell)
            continue
        if attr not in feature_pos:
            nearest.append(cell.low)
            farthest.append(cell.low)
            continue
        xi = x.coords[feature_pos[attr]]
        clamp = min(max(xi, cell.low), cell.high)
        far = cell.high if abs(xi - cell.high) >= abs(xi - cell.low) else cell.low
        nearest.append(clamp)
        farthest.append(far)
    return tuple(nearest), tuple(farthest)


def codd_extremal_instance(
    attributes: Sequence[str],
    rows: Sequence[tuple],
    x: TestPoint,
    features: Sequence[str],
) -> tuple[KeyedDataset, tuple]:
    """Build the two-completions-per-row instance keyed on a fresh id.

    Returns the keyed dataset and, per tuple, (row, kind) with kind one of
    "only", "min", "max". Rows whose extremes coincide emit a single tuple.
    """
    if "id" in attributes:
        raise InputError("attribute 'id' already present")
    schema = FdSchema.of(tuple(attributes) + ("id",), [(["id"], list(attributes))])
    out_rows: list[tuple] = []
    roles: list[tuple] = []
    for row_index, row in enumerate(rows):
        cells, label = row[0], row[1]
        if len(cells) != len(attributes):
            raise InputError(f"row {row_index}: arity mismatch")
        nearest, farthest = _completion_pair(cells, x, attributes, features)
        if nearest == farthest:
            out_rows.append((nearest + (row_index,), label))
            roles.append((row_index, "only"))
        else:
            out_rows.append((nearest + (row_index,), label))
            roles.append((row_index, "min"))
            out_rows.append((farthest + (row_index,), label))
            roles.append((row_index, "max"))
    dataset = make_dataset(schema, out_rows, features)
    return as_keyed(dataset), tuple(roles)


def codd_certify(
    attributes: Sequence[str],
    rows: Sequence[tuple],
    x: TestPoint,
    k: int,
    p: int,
    features: Sequence[str],
) -> CertResult:
    """Certify robustness over every completion of a table with intervals.

    Only each row's nearest and farthest completions can matter, so the
    extremal instance is certified with the primary-key scan and the verdict
    transfers to the original infinite world set.
    """
    keyed, _ = codd_extremal_instance(attributes, rows, x, features)
    ordering = order_by_distance(keyed.dataset, x, p)
    return certify_pk(keyed, ordering, k)
