"""Certification for lhs-chain schemas.

For a target label and a distance threshold, the recursion computes, per
prefix size i, the maximum over all repairs with exactly i tuples inside the
threshold of (weight of target label) - (weight of the incumbent label)
within that prefix, weights read as the ints of their ``Column``. Tables
are ``decompose.size_tables`` over (max, +): a consensus attribute takes a
max across values, a common lhs attribute combines per value tables by
max-plus convolution. A non-negative entry at i = k for some threshold (or
at i < k at the widest threshold, covering repairs smaller than k)
falsifies robustness, and a witness is traced back through the tables.

The threshold sweep is incremental: raising tau by one admits one tuple,
and ``decompose.Sweep`` updates only that tuple's leaf and its ancestors,
each through a segment tree over the node's children; the tree is laid
out once per call and each challenger starts afresh. For L challenger
labels, n tuples, fan-out f and tree depth, certification costs
O(L * n * depth * log f * k^2), against O(L * n * |tree| * k^2) for
re-evaluating the tree at every tau.
"""

from __future__ import annotations

import operator
from typing import Optional

from .certresult import CertResult, challenge
from .dataset import LabeledDataset, Ordering, greedy_repair
from .decompose import Sweep, TableOps, build_tree, size_tables
from .errors import InputError


def _row_ops(dataset: LabeledDataset, label: str, ref_label: str, k: int,
             weighted: bool) -> TableOps:
    """Max-plus size tables: entry i is the best (label minus ref_label)
    weight of a repair with i admitted tuples."""
    labels = dataset.row_labels
    weights = dataset.weights.data if weighted else [1] * dataset.size
    sign = {ref_label: -1, label: 1}
    return size_tables(k, 0, max, operator.add, lambda tid: sign.get(labels[tid], 0) * weights[tid])


def _trace(sweep: Sweep, v: int, i: int) -> list[int]:
    """Reconstruct a repair attaining node v's stored table value at index i."""
    kids = sweep.kids[v]
    if not kids:
        return list(sweep.ids[v])
    rows = [sweep.tables[c] for c in kids]
    if sweep.chooses[v]:
        best = None
        pick = None
        for c, row in zip(kids, rows):
            if row[i] is not None and (best is None or row[i] > best):
                best = row[i]
                pick = c
        return _trace(sweep, pick, i)
    prefixes = [rows[0]]
    for row in rows[1:]:
        prefixes.append(sweep.ops.combine(prefixes[-1], row))
    chosen: list[int] = []
    target = i
    for c in range(len(rows) - 1, 0, -1):
        value = prefixes[c][target]
        for u in range(target + 1):
            left, right = prefixes[c - 1][u], rows[c][target - u]
            if left is not None and right is not None and left + right == value:
                chosen.extend(_trace(sweep, kids[c], target - u))
                target = u
                break
    chosen.extend(_trace(sweep, kids[0], target))
    return chosen


def _challenge(dataset, ordering, sweep, ell, ell1, k, weighted) -> Optional[tuple[int, ...]]:
    """Sweep tau for challenger ``ell``; return the traced repair at the
    first hit whose best (ell minus ell1) difference is non-negative."""
    n = dataset.size
    k = min(k, n + 1)  # no repair holds more than n tuples
    sweep.start(_row_ops(dataset, ell, ell1, k, weighted))
    for tau, tid in enumerate(ordering.ranked, start=1):
        sweep.admit(tid)
        row = sweep.root
        hits = [k] if tau < n else [k] + list(range(1, k))
        for i in hits:
            if row[i] is not None and row[i] >= 0:
                return tuple(sorted(_trace(sweep, sweep.top, i)))
    return None


def certify(
    dataset: LabeledDataset,
    ordering: Ordering,
    k: int,
    weighted: bool = False,
) -> CertResult:
    """Decide certifiable robustness for an lhs-chain schema.

    The incumbent label comes from the greedy repair (a tie there already
    falsifies). For every other label and every threshold, robustness
    survives only if the best difference stays negative; the i < k entries
    at the widest threshold cover repairs with fewer than k tuples, whose
    neighborhood is the whole repair. ``certresult.challenge`` runs the
    challenger loop and re-verifies the witness.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    sweep = Sweep(dataset.size)
    build_tree(dataset.cells, list(dataset.ids()), list(dataset.schema.fds), dataset.schema,
               sweep.leaf, sweep.consensus, sweep.common)
    return challenge(
        dataset, ordering, k, greedy_repair(dataset, ordering),
        lambda ell, ell1: _challenge(dataset, ordering, sweep, ell, ell1, k, weighted),
        weighted,
    )
