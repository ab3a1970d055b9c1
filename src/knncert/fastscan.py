"""Linear-time certification when the FDs amount to a single primary key.

Tuples sharing a key form a block and a repair picks exactly one tuple per
block. For an incumbent label and a challenger label, a pruning pass first
deletes every tuple that can never help the challenger: incumbent-labeled
tuples that are not last in their block, and anything behind a
challenger-labeled tuple. In the pruned instance each block carries at most
one tuple labeled with either of the two labels, and such a tuple sits last
in its block. A single scan then maintains how many blocks have been
touched, how many are fully behind the frontier, and the two label
counters; the exit test certifies that a repair exists whose k-neighborhood
ties or beats the incumbent, and the witness is materialized per block.

Everything runs on integer code arrays in rank order: a block code per
tuple, numbered by first appearance, and a label code that indexes the
sorted label alphabet. The key comes from the FDs alone
(``fdschema.decide_lhs_chain``, which the CLI asks before it sends a call
here). ``as_keyed`` factorises the key cells into block codes and looks
for identical rows among the block codes and the other columns' int64
codes (the fixed-point ints themselves for numeric columns), and the label
codes come from the row labels, so no per-row record is built.
``rank_by_distance`` returns ``dataset.order_by_distance``'s ``Ordering``,
from the same checked common scale, summed in int64 when a bound shows the
distances fit. ``certify_pk`` takes any ``Ordering``, puts both codes in
rank order once per call and hands them to ``certify_pk_arrays``, the core
that bulk workloads call directly: the greedy repair is the first tuple of
each block, its vote names the incumbent, and one prune and scan per
challenger, in alphabetical order, looks for a repair that ties or beats
it. Ids become Python objects only for the witness, which
``certresult.refuted`` re-verifies as on every other path.

numpy is imported inside the functions that run array code, not at the
top: the CLI imports this module on every call, and a call that never
reaches the scan should not pay for numpy.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .certresult import CertResult, refuted
from .dataset import (LabeledDataset, Ordering, PredictOutcome, TestPoint, _scaled_features,
                      order_by_distance)
from .errors import InputError, NotPrimaryKeyError
from .fdschema import decide_lhs_chain


@dataclass(frozen=True, eq=False)
class KeyedDataset:
    """A dataset whose conflicts are exactly "same key, different tuple".

    ``block_of[tid]`` is the block code of tuple ``tid``; codes number the
    blocks 0..num_blocks-1 by first appearance in id order.
    """

    dataset: LabeledDataset
    key: tuple[str, ...]
    block_of: np.ndarray
    num_blocks: int


@dataclass(frozen=True)
class ScanTrigger:
    """State of the scan at the iteration where the exit test fired."""

    index: int  # 1-based position in the pruned order
    target_count: int  # challenger-labeled tuples seen
    forced_ref_count: int  # singleton blocks forcing an incumbent tuple
    blocks_closed: int
    blocks_seen: int


# The digest of a row's codes c1, c2, ..., cm is (..(c1 * mix + c2) ..) * mix + cm mod 2^64.
_DIGEST_MIX = 0x9E3779B97F4A7C15


def as_keyed(dataset: LabeledDataset) -> KeyedDataset:
    """Group tuples into blocks, after checking that they can be blocks.

    The schema must be a primary key (``fdschema.decide_lhs_chain``), and
    blocks must be conflict cliques: same-key tuples with identical values
    would coexist in repairs, which the block model cannot express, so such
    datasets are refused (the DP path handles them), naming the first such
    block. A numeric column packed in ``array('q')`` is compared through
    ``np.frombuffer``, any other through dict codes.
    """
    import numpy as np

    schema = dataset.schema
    key_attrs = decide_lhs_chain(schema).key
    if key_attrs is None:
        raise NotPrimaryKeyError("FDs are not equivalent to a single primary key")
    key_idx = tuple(schema.index(a) for a in key_attrs)

    key_cols = [dataset.columns[i].data for i in key_idx]
    # The empty key, which zips to no rows, puts every row in one block.
    key_cells = key_cols[0] if len(key_cols) == 1 else list(zip(*key_cols)) or [()] * dataset.size
    block_of, num_blocks = _factorise(key_cells)
    # Identical rows share their key, so there are none unless some block
    # holds two rows or more. Identical rows have equal digests, so one sort
    # of the digests rules them out; equal digests are settled exactly by
    # sorting all the codes, where identical rows are neighbours.
    if num_blocks < dataset.size:
        codes = [block_of] + [
            np.frombuffer(c.data, np.int64) if isinstance(c.data, array) else _factorise(c.data)[0]
            for i, c in enumerate(dataset.columns) if i not in key_idx
        ]
        digest = codes[0].astype(np.uint64)
        for c in codes[1:]:
            digest = digest * _DIGEST_MIX + c.view(np.uint64)  # wraps mod 2^64
        digest.sort()
        if not (digest[1:] == digest[:-1]).any():
            return KeyedDataset(dataset, key_attrs, block_of, num_blocks)
        codes = np.stack(codes)
        ranked = codes[:, np.lexsort(codes)]
        same = (ranked[:, 1:] == ranked[:, :-1]).all(axis=0)
        if same.any():  # name the lowest such block code, at its first row
            tid = int(np.argmax(block_of == ranked[0, 1:][same].min()))
            key = tuple(dataset.columns[i].value(tid) for i in key_idx)
            raise NotPrimaryKeyError(f"block {key!r} holds identical rows")
    return KeyedDataset(dataset, key_attrs, block_of, num_blocks)


def _factorise(cells: Sequence):
    """Int64 codes of ``cells`` by first appearance, and their number: one
    dict pass finds each cell's first row (np.unique cannot order a mix of
    str, int and Fraction), and those rows in order take codes 0, 1, ..."""
    import numpy as np

    n = len(cells)
    first_row: dict = {}
    firsts = np.fromiter(map(first_row.setdefault, cells, range(n)), np.int64, n)
    code = np.empty(n, np.int64)
    code[np.fromiter(first_row.values(), np.int64, len(first_row))] = np.arange(len(first_row))
    return code[firsts], len(first_row)


_INT64_LIMIT = 2**63  # every value the int64 distances hold stays below it


def _int64_distances(dataset: LabeledDataset, x: TestPoint, p: int) -> Optional[np.ndarray]:
    """Each row's sum(|v*factor - at|^p) in int64: the ints that
    ``order_by_distance`` sums, over the triples of ``_scaled_features``,
    which raises the same refusals.

    None when they might not fit: p (numpy takes it as an int64) or a
    bound at 2^63 or above, or a feature column not in ``array('q')``. The
    bounds come from each column's minimum and maximum and the point: each
    factor, |v*factor|, |at|, |v*factor - at|^p and their sum over the
    features must all be below 2^63, so no numpy step overflows or wraps.
    """
    import numpy as np

    features = _scaled_features(dataset, x, p)
    if p >= _INT64_LIMIT or not all(isinstance(ints, array) for ints, _, _ in features):
        return None
    total, bound = np.zeros(dataset.size, np.int64), 0
    if dataset.size == 0:
        return total
    for ints, factor, at in features:
        v = np.frombuffer(ints, np.int64)
        lo, hi = int(v.min()) * factor, int(v.max()) * factor
        reach = max(abs(lo - at), abs(hi - at))  # the largest |v*factor - at|
        # reach^p >= 2^63 once (bit length - 1) * p >= 63; test that before
        # raising a large reach to a large p.
        if (max(abs(lo), abs(hi), abs(at), factor) >= _INT64_LIMIT
                or (reach.bit_length() - 1) * p >= 63):
            return None
        bound += reach**p
        if bound >= _INT64_LIMIT:
            return None
        if factor != 1:
            v = v * factor
        total += np.abs(v - at) ** p
    return total


def rank_by_distance(dataset: LabeledDataset, x: TestPoint, p: int) -> Ordering:
    """``order_by_distance(dataset, x, p)``: the same ``Ordering`` and refusals.

    The distances are summed in int64 when ``_int64_distances`` bounds
    them below 2^63, and ranked by a stable argsort, which keeps tied ids
    ascending as the Python sort does. Otherwise ``order_by_distance``
    ranks in exact Python ints.
    """
    import numpy as np

    dist = _int64_distances(dataset, x, p)
    if dist is None:
        return order_by_distance(dataset, x, p)
    return Ordering(tuple(np.argsort(dist, kind="stable").tolist()))


def _codes(keyed: KeyedDataset, ordering: Ordering):
    """Key and label codes at rank positions, and ``ordering``'s ids as an int64 array."""
    import numpy as np

    ds = keyed.dataset
    if len(ordering.ranked) != ds.size:
        raise InputError("ordering must rank every tuple of the dataset")
    ranked = np.fromiter(ordering.ranked, np.int64, ds.size)
    lab_code = {lab: i for i, lab in enumerate(ds.labels)}
    label_of = np.fromiter(map(lab_code.__getitem__, ds.row_labels), np.int64, ds.size)
    return keyed.block_of[ranked], label_of[ranked], ranked


_NARROW_BELOW = 2**31 - 1  # rows for which int32 positions and counts suffice


def _block_stats(keys: np.ndarray):
    """The positions 0..n-1, and the first and last of each block code (n
    and -1 for a code no position holds): a block holds one tuple iff its
    two are equal. Positions are int32 below ``_NARROW_BELOW``, so every
    array built from them is half as wide and a call touches fewer pages."""
    import numpy as np

    # Positions are scanned in order, so duplicate-index assignment keeps the
    # last write: forward gives last occurrences, reversed gives first ones.
    n = keys.shape[0]
    nkeys = int(keys.max()) + 1 if n else 0
    pos = np.arange(n, dtype=np.int32 if n < _NARROW_BELOW else np.int64)
    first = np.full(nkeys, n, dtype=pos.dtype)
    first[keys[::-1]] = pos[::-1]
    last = np.full(nkeys, -1, dtype=pos.dtype)
    last[keys] = pos
    return pos, first, last


def _prune_mask(keys: np.ndarray, labels: np.ndarray, pos: np.ndarray, last: np.ndarray,
                ell2: int, ell1: int) -> np.ndarray:
    """Survivors of the (ell2, ell1) pruning; ``last`` is the last position
    of each block, from ``_block_stats(keys)``."""
    import numpy as np

    n = keys.shape[0]
    nkeys = last.shape[0]
    first_target = np.full(nkeys, n, dtype=pos.dtype)
    target = labels == ell2
    first_target[keys[target][::-1]] = pos[target][::-1]
    gathered = last[keys]  # one buffer for both gathers: fewer fresh pages per call
    doomed_ref = (labels == ell1) & (pos < gathered)
    behind_target = pos > np.take(first_target, keys, out=gathered)
    return ~(doomed_ref | behind_target)


def _scan_arrays(keys: np.ndarray, labels: np.ndarray, ell2: int, ell1: int, k: int,
                 stats: tuple) -> Optional[ScanTrigger]:
    """The scan of pruned codes; ``stats`` is ``_block_stats(keys)``."""
    import numpy as np

    n = keys.shape[0]
    if n == 0:
        return None
    pos, first, last = stats
    blocks_seen = np.cumsum(first[keys] == pos, dtype=pos.dtype)
    blocks_closed = np.cumsum(last[keys] == pos, dtype=pos.dtype)
    target_seen = np.cumsum(labels == ell2, dtype=pos.dtype)
    forced_ref = np.cumsum((first == last)[keys] & (labels == ell1), dtype=pos.dtype)
    assert blocks_closed[-1] == blocks_seen[-1] and (blocks_closed <= blocks_seen).all()
    fired = (blocks_closed <= k) & (k <= blocks_seen) & (target_seen >= forced_ref)
    if not fired.any():
        return None
    i = int(np.argmax(fired))
    return ScanTrigger(
        index=i + 1,
        target_count=int(target_seen[i]),
        forced_ref_count=int(forced_ref[i]),
        blocks_closed=int(blocks_closed[i]),
        blocks_seen=int(blocks_seen[i]),
    )


def prune(keyed: KeyedDataset, ell2: str, ell1: str, ordering: Ordering) -> tuple[int, ...]:
    """Ids surviving the (ell2, ell1) pruning rules, in rank order."""
    ds = keyed.dataset
    for lab in (ell2, ell1):
        if lab not in ds.labels:
            raise InputError(f"unknown label {lab!r}")
    keys, labels, ranked = _codes(keyed, ordering)
    pos, _, last = _block_stats(keys)
    mask = _prune_mask(keys, labels, pos, last, ds.labels.index(ell2), ds.labels.index(ell1))
    return tuple(int(t) for t in ranked[mask])


def fastscan(
    keyed: KeyedDataset,
    ell1: str,
    ell2: str,
    k: int,
    ordering: Ordering,
    kept: Optional[Sequence[int]] = None,
) -> Optional[ScanTrigger]:
    """Scan a pruned instance for a repair where ell2 ties or beats ell1.

    ``kept`` is the prune() output; by default the instance is assumed
    already pruned and scanned whole.
    """
    import numpy as np

    ds = keyed.dataset
    keys, labels, ranked = _codes(keyed, ordering)
    if kept is not None:
        pos_of = {int(t): i for i, t in enumerate(ranked)}
        sel = np.asarray(sorted(pos_of[t] for t in kept), dtype=np.int64)
        keys, labels = keys[sel], labels[sel]
    return _scan_arrays(keys, labels, ds.labels.index(ell2), ds.labels.index(ell1), k,
                        _block_stats(keys))


def _build_witness(
    keys: np.ndarray,
    labels: np.ndarray,
    verdict: ArrayVerdict,
    k: int,
) -> np.ndarray:
    """Rank positions of the repair promised by a scan trigger.

    Blocks fully inside the prefix contribute their last tuple (or their
    first when the last is incumbent-labeled and the block allows a dodge);
    enough straddling blocks, nearest first, contribute their first tuple to
    reach exactly k, the rest and the untouched blocks their last one.
    """
    import numpy as np

    kept, trigger, num_blocks = verdict.kept, verdict.trigger, verdict.greedy.shape[0]
    first, last = verdict.blocks
    # Pruning never erases a block, so every block has a pick.
    assert last.shape[0] == num_blocks and (last >= 0).all()
    boundary = trigger.index  # the prefix is the pruned positions < boundary
    closed = last < boundary
    pick = last.copy()
    dodge = closed & (labels[kept][last] == verdict.incumbent) & (first < last)
    pick[dodge] = first[dodge]
    straddling = np.flatnonzero((first < boundary) & ~closed)
    need = min(k, num_blocks) - trigger.blocks_closed
    straddling = straddling[np.argsort(first[straddling])][:need]
    pick[straddling] = first[straddling]
    return kept[pick]


def certify_pk(source: Union[LabeledDataset, KeyedDataset], ordering: Ordering,
               k: int) -> CertResult:
    """Certify robustness through the prune-and-scan path.

    The key and label codes are built once, in the order of ``ordering``
    (``rank_by_distance``'s or any other), and go through
    ``certify_pk_arrays``. Votes are unweighted here; weighted
    certification goes through the DP. k larger than the number of blocks
    is clamped: every repair holds one tuple per block, so the neighborhood
    is then the whole repair. ``certresult.refuted`` re-verifies the
    witness.
    """
    import numpy as np

    if k < 1:
        raise InputError("k must be >= 1")
    keyed = source if isinstance(source, KeyedDataset) else as_keyed(source)
    ds = keyed.dataset
    keys, labels, ranked = _codes(keyed, ordering)
    verdict = certify_pk_arrays(keys, labels, k)
    if verdict.robust:
        ell1 = ds.labels[verdict.incumbent]
        return CertResult(True, ell1, (ell1,), ())

    greedy = tuple(np.sort(ranked[verdict.greedy]).tolist())
    if verdict.incumbent is None:
        incumbent = PredictOutcome.TIE if greedy else PredictOutcome.EMPTY
        return CertResult(False, None, (), ((greedy, incumbent),))
    witness = tuple(np.sort(ranked[_build_witness(keys, labels, verdict, k)]).tolist())
    return refuted(ds, ordering, k, greedy, ds.labels[verdict.incumbent],
                   ds.labels[verdict.challenger], witness)


@dataclass(frozen=True, eq=False)
class ArrayVerdict:
    """Outcome of the array core; positions index the rank-ordered codes.

    ``greedy`` holds the positions of the greedy repair (int32 below
    ``_NARROW_BELOW`` rows), the first witness of a verdict that is not
    robust; a robust verdict holds None, so it keeps no array of the size
    of the input alive. When a challenger fired, ``kept`` holds the int64
    positions that survived its pruning, ``trigger`` the scan state and
    ``blocks`` the first and last of those positions in each block, as
    ``_block_stats(keys[kept])`` gives them.
    """

    robust: bool
    incumbent: Optional[int]
    greedy: Optional[np.ndarray]
    challenger: Optional[int] = None
    trigger: Optional[ScanTrigger] = None
    kept: Optional[np.ndarray] = None
    blocks: Optional[tuple] = None


def certify_pk_arrays(keys: np.ndarray, labels: np.ndarray, k: int) -> ArrayVerdict:
    """Array-level certification: key and label codes already in rank order.

    The greedy repair keeps the first tuple of each block and its top-k vote
    names the incumbent (a shared maximum is a tie, never robust). Then one
    prune and scan per challenger code, in ascending order and including
    codes that label no tuple, stops at the first that fires.
    """
    import numpy as np

    keys = np.ascontiguousarray(keys, dtype=np.int64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    n = keys.shape[0]
    if n == 0:
        return ArrayVerdict(False, None, np.zeros(0, dtype=np.int32))
    pos, first, last = _block_stats(keys)
    greedy = np.sort(first[first < n])  # the first position of every block
    k_eff = min(k, greedy.shape[0])
    counts = np.bincount(labels[greedy[:k_eff]])
    if (counts == counts.max()).sum() > 1:
        return ArrayVerdict(False, None, greedy)
    ell1 = int(np.argmax(counts))

    for ell2 in range(int(labels.max()) + 1):
        if ell2 == ell1:
            continue
        mask = _prune_mask(keys, labels, pos, last, ell2, ell1)
        survivors = keys[mask]
        stats = _block_stats(survivors)
        trigger = _scan_arrays(survivors, labels[mask], ell2, ell1, k_eff, stats)
        if trigger is not None:
            return ArrayVerdict(False, ell1, greedy, ell2, trigger, np.flatnonzero(mask), stats[1:])
    return ArrayVerdict(True, ell1, None)
