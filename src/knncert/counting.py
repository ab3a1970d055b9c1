"""Exact per-label repair counting for lhs-chain schemas.

Counting runs the certification DP over another semiring: the entry of a
``decompose.size_tables`` table at prefix size i maps each vector of
per-label count differences (each other label minus the queried label,
inside the prefix) to the exact number of repairs realizing it. Consensus
attributes add these sparse dicts, common lhs attributes multiply them as
polynomials, so no entry holds more vectors than the subinstance repairs.

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
import operator
from typing import Optional, Sequence

from .dataset import LabeledDataset, Ordering
from .decompose import Sweep, TableOps, build_tree, size_tables
from .errors import InputError


def _cell_ops(dataset: LabeledDataset, label: str, others: tuple[str, ...], k: int) -> TableOps:
    """Count tables: an admitted tuple steps its repairs' vector by -1 in
    every slot when it has ``label``, else by +1 in its own label's slot."""
    labels = dataset.row_labels
    steps = {label: {(-1,) * len(others): 1}}
    for j, other in enumerate(others):
        steps[other] = {tuple(int(i == j) for i in range(len(others))): 1}
    return size_tables(k, {(0,) * len(others): 1}, _add, _times,
                       lambda tid: steps[labels[tid]])


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for vec, count in b.items():
        out[vec] = out.get(vec, 0) + count
    return out


def _times(a: dict, b: dict) -> dict:
    out: dict = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            vec = tuple(map(operator.add, va, vb))
            out[vec] = out.get(vec, 0) + ca * cb
    return out


def _others(dataset: LabeledDataset, label: str) -> tuple[str, ...]:
    return tuple(sorted(set(dataset.labels) - {label}))


def _predicting(table: list, sizes) -> int:
    total = 0
    for i in sizes:
        for vec, count in (table[i] or {}).items():
            if all(c <= -1 for c in vec):
                total += count
    return total


def count_label(dataset: LabeledDataset, ordering: Ordering, k: int, label: str) -> int:
    """Number of repairs whose prediction is exactly ``label``."""
    if label not in dataset.labels:
        raise InputError(f"unknown label {label!r}")
    if k < 1:
        raise InputError("k must be >= 1")
    sweep = Sweep(dataset.size)
    build_tree(dataset.cells, list(dataset.ids()), list(dataset.schema.fds), dataset.schema,
               sweep.leaf, sweep.consensus, sweep.common)
    n = dataset.size
    if n == 0:
        return 0
    k = min(k, n + 1)  # no repair holds more than n tuples
    sweep.start(_cell_ops(dataset, label, _others(dataset, label), k))
    total = 0

    # Repairs with at least k tuples, pinned to their k-th nearest member:
    # the repairs that keep the tuple admitted at tau, read at size k.
    for tid in ordering.ranked:
        sweep.admit(tid)
        total += _predicting(sweep.pinned(tid), [k])

    # Repairs with fewer than k tuples: neighborhood is the whole repair.
    if k > 1:
        total += _predicting(sweep.root, range(1, k))
    return total


def count_repairs(dataset: LabeledDataset, ids: Optional[Sequence[int]] = None) -> int:
    """Total number of repairs (lhs-chain schemas only): a leaf has one, a
    consensus attribute sums its values' counts and a common one multiplies
    them, in ``build_tree``'s partition pass."""
    ids = list(dataset.ids()) if ids is None else sorted(ids)
    return build_tree(dataset.cells, ids, list(dataset.schema.fds), dataset.schema,
                      lambda leaf: 1, lambda attr, counts: sum(counts),
                      lambda attr, counts: math.prod(counts))
