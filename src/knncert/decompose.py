"""Recursive decomposition of an instance under an lhs-chain FD set.

Repairs of an instance factor along attribute values: when an FD with an
empty lhs is present, a repair must commit to a single value of that
attribute; when some attribute occurs in every lhs, tuples with different
values of it never conflict, so repairs are unions of per-value repairs.
Which attribute each level of the tree splits on depends on the FDs only:
``build_tree`` follows the steps of ``fdschema.decide_lhs_chain``, computed
once per call, and partitions the rows one level at a time by cells that
compare like the values they stand for (``LabeledDataset.cells``). That one
partition pass evaluates whatever algebra it is given at each node: the
flat layout of a ``Sweep``, the repair count (1, sum, product), the
minimum-weight repair (min, union) or, by default, a tree of records.
``Sweep`` keeps every node's table while tuples are admitted in rank order,
for certification, counting and the 1-NN route alike; ``TableOps`` says how
tables are built and merged, and ``size_tables`` builds the table layout
of certification and counting, over their semirings.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Sequence

from .errors import InputError, NotChainError
from .fdschema import Fd, FdSchema, _chain_steps


def build_tree(
    tuples: Sequence[tuple],
    ids: Sequence[int],
    fds: Sequence[Fd],
    schema: FdSchema,
    leaf: Callable = lambda ids: SimpleNamespace(ids=ids),
    consensus: Callable = lambda a, kids: SimpleNamespace(kind="consensus", attr=a, children=kids),
    common: Callable = lambda a, kids: SimpleNamespace(kind="common", attr=a, children=kids),
):
    """Partition ``ids`` under ``fds`` and evaluate the partition tree
    bottom up in the same pass; ``tuples[tid]`` is row tid's cells, equal
    at an attribute iff the values are, as in ``LabeledDataset.cells`` or
    ``LabeledDataset.tuples``.

    A leaf's value is ``leaf(ids)``, its ids a tuple in the order given. An
    inner node splitting on ``attr`` is ``consensus(attr, values)`` or
    ``common(attr, values)`` of the tuple of its children's values, one per
    value of ``attr`` in order of first appearance. The defaults return the
    tree as records: a leaf has ``ids``, an inner node ``kind``
    ("consensus" or "common"), ``attr`` and ``children``.

    The simplification steps of ``fdschema.decide_lhs_chain`` run once:
    depth d splits on the d-th consensus or common-lhs step's attribute,
    and a node is a leaf when the steps run out. Raises NotChainError when
    the steps get stuck, i.e. the FDs are not equivalent to an lhs chain,
    and InputError when ``ids`` repeats an id or names no row.
    """
    steps = _chain_steps(fds, schema)
    if steps and steps[-1][0] == "stuck":
        raise NotChainError("FD set is not equivalent to an lhs chain")
    check_ids(ids, len(tuples))
    splits = [
        (consensus if kind == "consensus" else common, attr, schema.index(attr))
        for kind, attr in steps
        if attr is not None
    ]
    return _grow(tuples, ids, splits, 0, leaf)


def check_ids(ids: Sequence[int], n: int) -> None:
    """Raise InputError naming the first id that repeats or is no row of n."""
    seen: set[int] = set()
    for tid in ids:
        if not 0 <= tid < n:
            raise InputError(f"id {tid} is not one of the {n} rows")
        if tid in seen:
            raise InputError(f"id {tid} is repeated")
        seen.add(tid)


def _grow(tuples, ids, splits, depth, leaf):
    if depth == len(splits) or not ids:
        return leaf(tuple(ids))
    node, attr, idx = splits[depth]
    parts: dict[object, list[int]] = {}
    for tid in ids:
        parts.setdefault(tuples[tid][idx], []).append(tid)
    return node(attr, tuple(_grow(tuples, part, splits, depth + 1, leaf)
                            for part in parts.values()))


class TableOps(NamedTuple):
    """How a sweep builds and merges node tables.

    Every leaf starts from ``blank``, its table with no tuple admitted, and
    ``admit(table, tid)`` returns the leaf's table with ``tid`` added.
    ``choose`` merges two children of a consensus node (a repair picks one
    child), ``combine`` two children of a common node (a repair unions one
    repair per child). Both merges must be associative and commutative,
    and ``blank`` must be the unit of ``combine``.
    """

    blank: Any
    admit: Callable[[Any, int], Any]
    choose: Callable[[Any, Any], Any]
    combine: Callable[[Any, Any], Any]


def size_tables(k: int, one, plus: Callable, times: Callable, step: Callable) -> TableOps:
    """Size tables over a semiring: entry i of a node's list, i = 0..k, is
    the ``plus`` over its repairs with i admitted tuples of the ``times``
    product of their ``step(tid)``; ``one`` is the unit, None the zero. A
    leaf's one entry sits at its admitted count until that passes k and the
    leaf is dead. Consensus adds entrywise; common multiplies, truncated at
    k. Certification takes (max, +), counting polynomials (sum, product).
    """
    dead = [None] * (k + 1)

    def admit(table: list, tid: int) -> list:
        size = next((i for i, v in enumerate(table) if v is not None), k)
        if size == k:
            return dead
        out = [None] * (k + 1)
        out[size + 1] = times(table[size], step(tid))
        return out

    def add(a: list, b: list) -> list:
        return [y if x is None else x if y is None else plus(x, y) for x, y in zip(a, b)]

    def product(a: list, b: list) -> list:
        if a is unit or b is unit:  # untouched leaves and their products share it
            return b if a is unit else a
        out = [None] * (k + 1)
        for i, x in enumerate(a):
            if x is None:
                continue
            for j in range(k + 1 - i):
                y = b[j]
                if y is not None:
                    xy = times(x, y)
                    out[i + j] = xy if out[i + j] is None else plus(out[i + j], xy)
        return out

    unit = [one] + dead[1:]
    return TableOps(unit, admit, add, product)


class Sweep:
    """The table of every tree node while the distance threshold grows.

    ``build_tree(..., sweep.leaf, sweep.consensus, sweep.common)`` lays the
    tree out in flat lists: each callback numbers its node next, so children
    come before their parent and the root is last. ``start(ops)`` fills
    every table with nothing admitted, and may run again with other ops.
    Tuples are admitted one at a time in rank order. Admitting a tuple
    updates its leaf's table and then only the leaf's ancestors: an
    internal node with f children keeps their tables in a segment tree, a
    list of 2f slots with child j at slot f + j, slot p merging slots 2p
    and 2p + 1, and the node's own table at slot 1.
    One admission thus costs O(depth * log f) merges, and it stops early at
    the first slot whose value does not change.
    """

    def __init__(self, n: int) -> None:
        self.kids: list[tuple[int, ...]] = []
        self.ids: list[tuple[int, ...]] = []  # a leaf's tuples
        self.chooses: list[bool] = []  # a repair picks one child: consensus
        self.parent: list[int] = []
        self.slot: list[int] = []
        self.leaf_of = [-1] * n

    def leaf(self, ids: tuple[int, ...]) -> int:
        for tid in ids:
            self.leaf_of[tid] = len(self.kids)
        return self._add((), ids, False)

    def consensus(self, attr: str, kids: tuple[int, ...]) -> int:
        return self._add(kids, (), True)

    def common(self, attr: str, kids: tuple[int, ...]) -> int:
        return self._add(kids, (), False)

    def _add(self, kids: tuple[int, ...], ids: tuple[int, ...], chooses: bool) -> int:
        v = len(self.kids)
        self.kids.append(kids)
        self.ids.append(ids)
        self.chooses.append(chooses)
        self.parent.append(-1)
        self.slot.append(0)
        for j, c in enumerate(kids):
            self.parent[c], self.slot[c] = v, j
        return v

    def start(self, ops: TableOps) -> None:
        """Every node's table with no tuple admitted, under ``ops``."""
        self.ops = ops
        size = len(self.kids)
        self.tables: list = [None] * size
        self.segs: list = [None] * size
        self.merge: list = [None] * size
        for v, kids in enumerate(self.kids):  # children before parents
            if not kids:
                self.tables[v] = ops.blank
                continue
            merge = ops.choose if self.chooses[v] else ops.combine
            f = len(kids)
            seg = [None] * f + [self.tables[c] for c in kids]
            for p in range(f - 1, 0, -1):
                seg[p] = merge(seg[2 * p], seg[2 * p + 1])
            self.segs[v], self.merge[v], self.tables[v] = seg, merge, seg[1]

    @property
    def top(self) -> int:
        """The root's number: children are numbered first, so it is last."""
        return len(self.kids) - 1

    @property
    def root(self):
        return self.tables[self.top]

    def admit(self, tid: int) -> None:
        """Add ``tid`` to the prefix; a tuple outside the tree is skipped."""
        v = self.leaf_of[tid]
        if v < 0:
            return
        table = self.ops.admit(self.tables[v], tid)
        while table != self.tables[v]:
            self.tables[v] = table
            u = self.parent[v]
            if u < 0:
                break
            seg, merge = self.segs[u], self.merge[u]
            p = len(seg) // 2 + self.slot[v]
            seg[p] = table
            p //= 2
            while p:
                value = merge(seg[2 * p], seg[2 * p + 1])
                if value == seg[p]:
                    return
                seg[p] = value
                p //= 2
            v, table = u, seg[1]

    def pinned(self, tid: int):
        """The root table over the repairs that keep ``tid``.

        Such a repair picks tid's child at every consensus node on tid's
        path and any repair of every sibling at each common node on it, so
        the path is merged again with each consensus node replaced by that
        child. ``tid`` must be in the tree.
        """
        v = self.leaf_of[tid]
        table = self.tables[v]
        while (u := self.parent[v]) >= 0:
            if not self.chooses[u]:
                seg, merge = self.segs[u], self.merge[u]
                p = len(seg) // 2 + self.slot[v]
                while p > 1:
                    table = merge(table, seg[p ^ 1])
                    p //= 2
            v = u
        return table
