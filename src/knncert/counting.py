"""Exact per-label repair counting for lhs-chain schemas.

The counting table generalizes the certification DP: a cell is keyed by the
prefix size i and a vector of per-label count differences (each other label
minus the queried label, inside the prefix), and holds the exact number of
repairs realizing that cell. Consensus attributes add tables cell-wise,
common lhs attributes convolve them. Tables are sparse dicts: populated
cells never outnumber the repairs of the subinstance.

A repair predicts the queried label when every difference is at most -1.
To count each repair exactly once, the threshold is pinned to the rank of
the k-th nearest kept tuple: at threshold tau only repairs that keep the
tau-th ranked tuple (the anchor) are read, at prefix size exactly k. Those
are the repairs that pick the anchor's child at every consensus node on
its root-to-leaf path, so their table is that path merged again with each
consensus node replaced by the anchor's child. Repairs with fewer than k
tuples are picked up separately at the widest threshold, where the
neighborhood is the whole repair. Counts are Python ints, so arbitrary
precision comes for free.

The sweep over tau is the incremental one of ``decompose.Sweep``: each
tau admits one tuple and updates its path, and the anchor's table walks
the same path again, so counting does O(n * depth * log f) merges of
sparse tables for n tuples, tree depth and fan-out f.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .dataset import LabeledDataset, Ordering
from .decompose import Node, Sweep, TableOps, build_tree, fold
from .errors import InputError


def _cell_ops(dataset: LabeledDataset, label: str, others: tuple[str, ...], k: int) -> TableOps:
    """Sparse count tables. A leaf's table is its one cell, (admitted
    tuples, per-label differences), until more than k are admitted;
    consensus adds, common convolves."""
    labels = dataset.row_labels
    slot = {other: j for j, other in enumerate(others)}

    def admit(table: dict, tid: int) -> dict:
        if not table:
            return table
        ((size, vec),) = table
        if size == k:
            return {}
        if labels[tid] == label:
            return {(size + 1, tuple(c - 1 for c in vec)): 1}
        j = slot[labels[tid]]
        return {(size + 1, vec[:j] + (vec[j] + 1,) + vec[j + 1:]): 1}

    def convolve(a: dict, b: dict) -> dict:
        out: dict = {}
        for (ia, ca), va in a.items():
            for (ib, cb), vb in b.items():
                i = ia + ib
                if i > k:
                    continue
                cell = (i, tuple(x + y for x, y in zip(ca, cb)))
                out[cell] = out.get(cell, 0) + va * vb
        return out

    return TableOps({(0, (0,) * len(others)): 1}, admit, _add, convolve)


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for cell, count in b.items():
        out[cell] = out.get(cell, 0) + count
    return out


def _others(dataset: LabeledDataset, label: str) -> tuple[str, ...]:
    return tuple(sorted(set(dataset.labels) - {label}))


def _predicting(entries: dict, sizes) -> int:
    total = 0
    for (i, vec), count in entries.items():
        if i in sizes and all(c <= -1 for c in vec):
            total += count
    return total


def repair_tree(dataset: LabeledDataset, ids: Optional[Sequence[int]] = None) -> Node:
    """The decomposition tree of ``dataset``, or of the tuples ``ids``."""
    ids = list(dataset.ids()) if ids is None else sorted(ids)
    return build_tree(dataset.cells, ids, list(dataset.schema.fds), dataset.schema)


def count_label(dataset: LabeledDataset, ordering: Ordering, k: int, label: str,
                tree: Optional[Node] = None) -> int:
    """Number of repairs whose prediction is exactly ``label``.

    ``tree`` is the dataset's ``repair_tree`` when the caller has built it.
    """
    if label not in dataset.labels:
        raise InputError(f"unknown label {label!r}")
    if k < 1:
        raise InputError("k must be >= 1")
    if tree is None:
        tree = repair_tree(dataset)
    n = dataset.size
    if n == 0:
        return 0
    sweep = Sweep(tree, n, _cell_ops(dataset, label, _others(dataset, label), k))
    total = 0

    # Repairs with at least k tuples, pinned to their k-th nearest member:
    # the repairs that keep the tuple admitted at tau, read at size k.
    for tid in ordering.ranked:
        sweep.admit(tid)
        total += _predicting(sweep.pinned(tid), {k})

    # Repairs with fewer than k tuples: neighborhood is the whole repair.
    if k > 1:
        total += _predicting(sweep.root, range(1, k))
    return total


def count_repairs(dataset: LabeledDataset, ids: Optional[Sequence[int]] = None,
                  tree: Optional[Node] = None) -> int:
    """Total number of repairs (lhs-chain schemas only).

    ``tree`` is the ``repair_tree`` of the same tuples when the caller has
    built it.
    """
    return fold(repair_tree(dataset, ids) if tree is None else tree, lambda ids: 1, sum, math.prod)
