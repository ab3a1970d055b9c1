"""Certification under three light uncertainty models.

?-sets: up to a budget of marked tuples may be deleted. The best world
deletes the nearest incumbent-labeled ones first, then neutral, then
challenger-labeled ones: one pass over the distance order reads its vote off
prefix counts. Or-sets and Codd tables both become a primary-key instance
through one expansion, ``_keyed_blocks``: each row becomes a block of
alternative tuples under a fresh key ``id``, so a world is a block repair
and the primary-key scan certifies it. For an or-set row the block holds
every realization of its cells; for a row of a Codd table, whose missing
values range over rational intervals, only the nearest and farthest
completions matter, so the block holds those two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .certresult import CertResult, challenge
from .dataset import LabeledDataset, Ordering, TestPoint, make_dataset
from .errors import CapExceededError, InputError
from .fastscan import KeyedDataset, as_keyed
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

    The best world that deletes ``gone`` marked tuples to leave k of those
    seen drops the nearest incumbent-labeled (ell1) ones first, then neutral,
    then challenger-labeled (ell) ones. ``lead``, ell's count minus ell1's
    among the tuples seen, gives its vote, so one pass reads every such world.
    """
    labels, uncertain = q.dataset.row_labels, q.uncertain
    marked = ([], [], [])  # incumbent-labeled, neutral, challenger-labeled
    lead = seen = 0
    for gone, tid in enumerate(ordering.ranked[: k + q.budget], 1 - k):
        if gone > seen:  # fewer marked tuples came before than must go
            return None
        lab = labels[tid]
        step = (lab == ell) - (lab == ell1)  # -1, 0 or 1: the index into marked, less one
        lead += step
        if tid in uncertain:
            marked[step + 1].append(tid)
            seen += 1
        if gone >= 0:
            r, u = len(marked[0]), len(marked[1])
            if lead + min(gone, r) >= max(0, gone - r - u):
                return (marked[0] + marked[1] + marked[2])[:gone]
    return None


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


@dataclass(frozen=True)
class CoddCell:
    """A missing value constrained to a closed rational interval."""

    low: Fraction
    high: Fraction

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise InputError("interval low must not exceed high")


_REFUSAL = {OrSetCell: "or-set cells are not allowed in codd-certify input",
            CoddCell: "interval cells are not allowed in orset-certify input"}


def _keyed_blocks(attributes, rows, features, foreign: type, block) -> tuple[KeyedDataset, tuple]:
    """Key each row's block of alternative tuples on a fresh ``id``.

    ``rows`` holds (cells, label) pairs, and ``block(cells)`` returns the
    row's (role, values) pairs. A cell of the ``foreign`` model anywhere
    is refused first, then an ``id`` attribute, then each row's arity and
    its blocks' feature values in turn. Returns the keyed dataset and, per
    tuple, its (row, role).
    """
    if any(isinstance(cell, foreign) for row in rows for cell in row[0]):
        raise InputError(_REFUSAL[foreign])
    if "id" in attributes:
        raise InputError("attribute 'id' already present")
    schema = FdSchema.of(tuple(attributes) + ("id",), [(["id"], list(attributes))])
    feature_cols = [j for j, attr in enumerate(attributes) if attr in features]
    tuples, roles = [], []
    for row_index, row in enumerate(rows):
        if len(row[0]) != len(attributes):
            raise InputError(f"row {row_index}: arity mismatch")
        for role, values in block(row[0]):
            if not all(isinstance(values[j], (int, Fraction)) for j in feature_cols):
                raise InputError(f"row {row_index}: non-numeric feature value")
            tuples.append((values + (row_index,), row[1]))
            roles.append((row_index, role))
    return as_keyed(make_dataset(schema, tuples, features)), tuple(roles)


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
    if cap < 0:
        raise InputError("cap must be >= 0")
    total = 0

    def realizations(cells: tuple) -> list[tuple]:
        nonlocal total
        options = [cell.distinct() if isinstance(cell, OrSetCell) else (cell,) for cell in cells]
        total += prod(map(len, options))
        if total > cap:
            raise CapExceededError(f"or-set expansion exceeds cap {cap}")
        return list(enumerate(itertools.product(*options)))

    return _keyed_blocks(attributes, rows, features, CoddCell, realizations)[0]


def _completion_pair(cells, x: TestPoint, attributes, features):
    """Nearest and farthest completions of one row, per coordinate: the
    same for every p."""
    feature_pos = {a: i for i, a in enumerate(features)}
    nearest, farthest = [], []
    for attr, cell in zip(attributes, cells):
        if not isinstance(cell, CoddCell):
            near = far = cell
        elif attr not in feature_pos:
            near = far = cell.low
        else:
            xi = x.coords[feature_pos[attr]]
            near = min(max(xi, cell.low), cell.high)
            far = cell.high if abs(xi - cell.high) >= abs(xi - cell.low) else cell.low
        nearest.append(near)
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
    Certifying it with the primary-key scan certifies every completion.
    """

    def completions(cells: tuple) -> list[tuple]:
        near, far = _completion_pair(cells, x, attributes, features)
        return [("only", near)] if near == far else [("min", near), ("max", far)]

    return _keyed_blocks(attributes, rows, features, OrSetCell, completions)
