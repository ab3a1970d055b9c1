"""Minimum-weight repairs for lhs-chain schemas, and their two applications:
forbidden-set repair queries via a 0/1 weighting, and 1-NN certification
reduced to a sequence of forbidden-set queries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .certresult import CertResult, challenge
from .dataset import LabeledDataset, Ordering, conflicts, greedy_repair
from .decompose import ConsensusNode, Leaf, Node, build_tree
from .errors import InputError


def min_rep(
    dataset: LabeledDataset,
    ids: Optional[Sequence[int]] = None,
    weights: Optional[Sequence[Fraction]] = None,
) -> tuple[tuple[int, ...], Fraction]:
    """A repair of minimum total weight, with that weight.

    Follows the decomposition tree: leaves keep everything, a common lhs
    attribute unions per-value minima, a consensus attribute takes the
    cheapest value. Ties break toward the lexicographically smallest id
    set. Weights may be zero (the forbidden-repair reduction relies on it);
    they default to the tuples' own weights. Raises NotChainError when the
    schema has no lhs-chain equivalent.
    """
    ids = list(dataset.ids()) if ids is None else sorted(ids)
    if weights is None:
        weights = dataset.weights
    tree = build_tree(dataset.tuples, ids, list(dataset.schema.fds), dataset.schema)
    repair, weight = _min_rep(tree, weights)
    return tuple(repair), weight


def _min_rep(node: Node, weights) -> tuple[tuple[int, ...], Fraction]:
    if isinstance(node, Leaf):
        total = sum((weights[t] for t in node.ids), Fraction(0))
        return node.ids, total
    results = [_min_rep(child, weights) for child in node.children]
    if isinstance(node, ConsensusNode):
        return min(results, key=lambda r: (r[1], r[0]))
    merged: list[int] = []
    total = Fraction(0)
    for ids, weight in results:
        merged.extend(ids)
        total += weight
    return tuple(sorted(merged)), total


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
    weights = [Fraction(1) if t in forbidden else Fraction(0) for t in dataset.ids()]
    repair, weight = min_rep(dataset, ids=ids, weights=weights)
    return repair if weight == 0 else None


def certify_1nn_via_forbidden(dataset: LabeledDataset, ordering: Ordering) -> CertResult:
    """Certify 1-NN robustness through forbidden-set queries.

    The nearest tuple's label is always possible. Any other label ell2 is
    possible iff some ell2-labeled tuple t admits a repair that contains t
    but avoids everything closer: drop t and its conflict partners, then
    ask for a repair avoiding the remaining closer tuples.
    """
    return challenge(
        dataset, ordering, 1, greedy_repair(dataset, ordering),
        lambda ell2, ell1: _nearest_first(dataset, ordering, ell2),
    )


def _nearest_first(dataset: LabeledDataset, ordering: Ordering, ell2: str):
    """A repair whose nearest tuple is labeled ``ell2``, or None."""
    schema = dataset.schema
    for position, tid in enumerate(ordering.ranked):
        t = dataset.tuples[tid]
        if t.label != ell2:
            continue
        pool = [
            u
            for u in dataset.ids()
            if u != tid and not conflicts(dataset.tuples[u], t, schema)
        ]
        closer = set(ordering.ranked[:position])
        avoiding = forbidden_repair(dataset, closer & set(pool), ids=pool)
        if avoiding is not None:
            assert closer.isdisjoint(avoiding), "1-NN witness keeps a closer tuple"
            return tuple(sorted(avoiding + (tid,)))
    return None
