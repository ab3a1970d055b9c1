"""Brute-force ground truth.

FD consistency is a pairwise property, so the maximal consistent subsets of
an instance are exactly the maximal independent sets of its conflict graph.
This module enumerates them outright (Bron-Kerbosch with pivoting on the
complement graph, over bitmasks) and evaluates robustness, counts, minimum
weights, and ?-set worlds directly. Every other module's tests check
against these results; caps are hard errors, never silent truncation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .certresult import CertResult
from .dataset import LabeledDataset, Ordering, PredictOutcome, conflicts, predict
from .decompose import check_ids
from .errors import CapExceededError, InputError

DEFAULT_CAP = 20


def _conflict_masks(dataset: LabeledDataset, ids: Sequence[int]) -> dict[int, int]:
    masks = {tid: 0 for tid in ids}
    for a, b in itertools.combinations(ids, 2):
        if conflicts(dataset.tuples[a], dataset.tuples[b], dataset.schema):
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return masks


def enumerate_repairs(
    dataset: LabeledDataset,
    ids: Optional[Sequence[int]] = None,
    cap: Optional[int] = None,
) -> tuple[tuple[int, ...], ...]:
    """Every maximal consistent subset of ``ids`` (default: the whole
    instance), in sorted order. Raises InputError when ``ids`` repeats an
    id or names no row."""
    ids = list(dataset.ids()) if ids is None else sorted(ids)
    check_ids(ids, dataset.size)
    cap = DEFAULT_CAP if cap is None else cap
    if cap < 0:
        raise InputError("cap must be >= 0")
    if len(ids) > cap:
        raise CapExceededError(f"enumeration over {len(ids)} tuples exceeds cap {cap}")
    if not ids:
        return ((),)

    conflict = _conflict_masks(dataset, ids)
    # Maximal cliques of the compatibility graph = maximal independent sets
    # of the conflict graph.
    universe = 0
    for tid in ids:
        universe |= 1 << tid
    compat = {tid: universe & ~conflict[tid] & ~(1 << tid) for tid in ids}

    found: list[int] = []

    def bron_kerbosch(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            found.append(r)
            return
        pivot_pool = p | x
        pivot = max(_bits(pivot_pool), key=lambda v: (compat[v] & p).bit_count())
        for v in _bits(p & ~compat[pivot]):
            bron_kerbosch(r | (1 << v), p & compat[v], x & compat[v])
            p &= ~(1 << v)
            x |= 1 << v

    bron_kerbosch(0, universe, 0)
    return tuple(sorted(tuple(_bits(mask)) for mask in found))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_certify(
    dataset: LabeledDataset,
    ordering: Ordering,
    k: int,
    weighted: bool = False,
    cap: Optional[int] = None,
    repairs: Optional[Sequence[tuple[int, ...]]] = None,
) -> CertResult:
    """Evaluate the classifier on every repair and compare outcomes;
    ``repairs``, when given, is ``enumerate_repairs(dataset, cap=cap)``."""
    if repairs is None:
        repairs = enumerate_repairs(dataset, cap=cap)
    outcomes = [predict(dataset, r, ordering, k, weighted=weighted) for r in repairs]
    possible = tuple(sorted({o.label for o in outcomes if o.kind == "label"}))
    first = outcomes[0]
    if first.kind == "label" and all(o == first for o in outcomes):
        return CertResult(True, first.label, possible, ())
    witnesses = [(repairs[0], first)]
    for r, o in zip(repairs[1:], outcomes[1:]):
        if o != first:
            witnesses.append((r, o))
            break
    return CertResult(False, None, possible, tuple(witnesses))


def brute_count(
    dataset: LabeledDataset,
    ordering: Ordering,
    k: int,
    label: str,
    cap: Optional[int] = None,
    repairs: Optional[Sequence[tuple[int, ...]]] = None,
) -> int:
    """Number of repairs whose prediction is exactly ``label``; ``repairs``
    as in ``brute_certify``, read only once the label is known."""
    if label not in dataset.labels:
        raise InputError(f"unknown label {label!r}")
    if repairs is None:
        repairs = enumerate_repairs(dataset, cap=cap)
    want = PredictOutcome.of_label(label)
    return sum(1 for r in repairs if predict(dataset, r, ordering, k) == want)


def brute_min_repair(
    dataset: LabeledDataset,
    cap: Optional[int] = None,
) -> tuple[tuple[int, ...], Fraction]:
    """Minimum-total-weight repair, ties broken by the canonical repair order."""
    weights = dataset.weights.values()
    best = None
    for r in enumerate_repairs(dataset, cap=cap):
        total = sum((weights[t] for t in r), Fraction(0))
        key = (total, r)
        if best is None or key < best:
            best = key
    return best[1], best[0]


def enumerate_qset_worlds(
    dataset: LabeledDataset,
    uncertain: Iterable[int],
    budget: int,
    cap: int = 200_000,
) -> list[tuple[int, ...]]:
    """All worlds formed by deleting at most ``budget`` uncertain tuples."""
    uncertain = sorted(set(uncertain))
    if budget < 0 or budget > len(uncertain):
        raise InputError("budget must lie in 0..|uncertain|")
    total = sum(math.comb(len(uncertain), j) for j in range(budget + 1))
    if total > cap:
        raise CapExceededError(f"{total} worlds exceed cap {cap}")
    all_ids = set(dataset.ids())
    worlds = []
    for j in range(budget + 1):
        for removed in itertools.combinations(uncertain, j):
            worlds.append(tuple(sorted(all_ids - set(removed))))
    return worlds
