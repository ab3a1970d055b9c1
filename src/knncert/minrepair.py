"""Minimum-weight repairs for lhs-chain schemas, and their two applications:
forbidden-set repair queries via a 0/1 weighting, and 1-NN certification
reduced to a sequence of forbidden-set queries on one decomposition tree.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .certresult import CertResult, challenge
from .dataset import Column, LabeledDataset, Ordering, greedy_repair
from .decompose import Sweep, TableOps, build_tree
from .errors import InputError


def min_rep(
    dataset: LabeledDataset,
    ids: Optional[Sequence[int]] = None,
    weights: Optional[Sequence[Fraction]] = None,
) -> tuple[tuple[int, ...], Fraction]:
    """A repair of minimum total weight, with that weight.

    Evaluated in ``build_tree``'s partition pass over (weight, ids) pairs:
    leaves keep everything, a common lhs attribute unions per-value minima,
    a consensus attribute takes the cheapest value, and ``min`` breaks ties
    toward the lexicographically smallest id set. Weights are the dataset's
    own by default, else ints or Fractions, possibly zero or negative (the
    forbidden-repair and 1-NN reductions rely on it). The pass sums the ints
    of their ``Column`` and divides by its scale once at the end.
    Raises NotChainError when the schema has no lhs-chain equivalent.
    """
    ids = list(dataset.ids()) if ids is None else sorted(ids)
    scaled = dataset.weights if weights is None else Column.of(weights)
    if len(scaled) != dataset.size:
        raise InputError(f"{len(scaled)} weights for {dataset.size} rows")
    if scaled.scale is None:
        raise InputError("weights must be ints or Fractions")
    ints = scaled.data
    weight, repair = build_tree(
        dataset.cells, ids, list(dataset.schema.fds), dataset.schema,
        lambda leaf: (sum(ints[t] for t in leaf), leaf), lambda attr, parts: min(parts), _union)
    return repair, Fraction(weight, scaled.scale)


def _union(attr: str, parts: tuple) -> tuple[int, tuple[int, ...]]:
    merged: list[int] = []
    for _, ids in parts:
        merged.extend(ids)
    return sum(weight for weight, _ in parts), tuple(sorted(merged))


def forbidden_repair(
    dataset: LabeledDataset,
    forbidden: Iterable[int],
    ids: Optional[Sequence[int]] = None,
) -> Optional[tuple[int, ...]]:
    """A repair avoiding every id in ``forbidden``, or None when impossible.

    Weight 1 on forbidden tuples and 0 elsewhere turns the question into a
    minimum-weight query: an avoiding repair exists iff the minimum is 0.
    """
    forbidden = set(forbidden)
    pool = set(dataset.ids() if ids is None else ids)
    if not forbidden <= pool:
        raise InputError("forbidden ids outside the instance")
    weights = [int(t in forbidden) for t in dataset.ids()]
    repair, weight = min_rep(dataset, ids=ids, weights=weights)
    return repair if weight == 0 else None


def certify_1nn_via_forbidden(dataset: LabeledDataset, ordering: Ordering) -> CertResult:
    """Certify 1-NN robustness through forbidden-set queries on one tree.

    The nearest tuple's label is always possible. Any other label ell2 is
    possible iff some ell2-labeled tuple t admits a repair that contains t
    but avoids everything closer: weight 1 on every closer tuple, -1 on t
    and 0 elsewhere, such a repair exists iff the minimum weight is
    negative, and that minimum-weight repair is the witness. A ``Sweep``
    counting the closer tuples answers the test as ``pinned(t) == 0``, so
    ``min_rep`` runs only for the witness.
    """
    sweep = Sweep(dataset.size)
    build_tree(dataset.cells, list(dataset.ids()), list(dataset.schema.fds), dataset.schema,
               sweep.leaf, sweep.consensus, sweep.common)
    return challenge(
        dataset, ordering, 1, greedy_repair(dataset, ordering),
        lambda ell2, ell1: _nearest_first(dataset, ordering, sweep, ell2),
    )


def _nearest_first(dataset: LabeledDataset, ordering: Ordering, sweep: Sweep, ell2: str):
    """A repair whose nearest tuple is labeled ``ell2``, or None."""
    # Tables count admitted (closer) tuples: the fewest over a consensus node.
    sweep.start(TableOps(0, lambda c, tid: c + 1, min, operator.add))
    for position, tid in enumerate(ordering.ranked):
        if dataset.row_labels[tid] == ell2 and sweep.pinned(tid) == 0:
            closer = ordering.ranked[:position]
            weights = [0] * dataset.size
            for t in closer:
                weights[t] = 1
            weights[tid] = -1
            repair, _ = min_rep(dataset, weights=weights)
            assert set(closer).isdisjoint(repair), "1-NN witness keeps a closer tuple"
            return repair
        sweep.admit(tid)
    return None
