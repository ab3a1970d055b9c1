"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import knncert as kc
from knncert import certify_dp, counting, fastscan, hardgen, models, oracle
from knncert.decompose import Sweep, build_tree

ATTR_POOL = ("A", "B", "C", "D", "E", "F")


def example_inconsistent():
    """The six-tuple instance with FD A->B, distances over (A, B) at p=1.

    Ordering comes out as ids (0, 2, 1, 4, 5, 3); four repairs; at k=3 every
    repair predicts label 0.
    """
    schema = kc.FdSchema.of(("A", "B", "C"), [(["A"], ["B"])])
    rows = [
        ((1, 0, "a"), "0"),
        ((1, 2, "b"), "0"),
        ((2, 0, "a"), "2"),
        ((2, 5, "c"), "1"),
        ((3, 1, "a"), "0"),
        ((4, 2, "d"), "2"),
    ]
    ds = kc.make_dataset(schema, rows, features=("A", "B"))
    x = kc.TestPoint((0, 0))
    return ds, x, kc.order_by_distance(ds, x, 1)


FIG3_BLOCKS = [
    "orange", "blue", "orange", "purple", "purple", "yellow", "blue", "blue",
    "lightblue", "purple", "lightblue", "lightblue", "yellow", "lightblue",
    "purple", "yellow",
]
FIG3_LABELS = ["1", "1", "1", "3", "1", "1", "3", "1", "2", "1", "3", "3", "1", "1", "3", "3"]


def keyed_sixteen():
    """The sixteen-tuple primary-key instance with blocks by color and an
    explicit rank order equal to the row order."""
    schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
    rows = [((FIG3_BLOCKS[i], i + 1), FIG3_LABELS[i]) for i in range(16)]
    ds = kc.make_dataset(schema, rows, features=())
    return ds, kc.Ordering(tuple(range(16)))


def random_chain_schema(rng, d, allow_consensus=True):
    """FDs whose lhs sets are prefixes of one permutation: a syntactic chain."""
    attrs = ATTR_POOL[:d]
    perm = list(attrs)
    rng.shuffle(perm)
    low = 0 if allow_consensus else 1
    fds = []
    for size in sorted(rng.randint(low, d - 1) for _ in range(rng.randint(1, 3))):
        lhs = perm[:size]
        rest = [a for a in attrs if a not in lhs]
        rhs = rng.sample(rest, rng.randint(1, min(2, len(rest))))
        fds.append((lhs, rhs))
    if not fds:
        fds = [([], [attrs[0]])]
    schema = kc.FdSchema.of(attrs, fds)
    assert kc.decide_lhs_chain(schema).is_chain_equivalent
    return schema


def random_any_schema(rng, d):
    """Arbitrary FD sets, chain or not, for schema-level property tests."""
    attrs = ATTR_POOL[:d]
    fds = []
    for _ in range(rng.randint(0, 4)):
        lhs = rng.sample(attrs, rng.randint(0, d - 1))
        rest = [a for a in attrs if a not in lhs] or list(attrs)
        rhs = rng.sample(rest, rng.randint(1, min(2, len(rest))))
        fds.append((lhs, rhs))
    return kc.FdSchema.of(attrs, fds)


def _random_ordering(rng, ds):
    if rng.random() < 0.5:
        ranked = list(ds.ids())
        rng.shuffle(ranked)
        return kc.Ordering(tuple(ranked))
    p = rng.choice((1, 2))
    x = kc.TestPoint(tuple(rng.randint(0, 3) for _ in ds.features))
    return kc.order_by_distance(ds, x, p)


def random_chain_instance(rng, n_max=12, d_max=4, max_labels=3, weighted=False, n_min=1):
    """A random chain-schema instance of n_min..n_max tuples with plenty of
    conflicts, plus an ordering (explicit or distance-based, mixed)."""
    d = rng.randint(1, d_max)
    schema = random_chain_schema(rng, d)
    n = rng.randint(n_min, n_max)
    domain = max(2, n // 2)
    alphabet = [str(i) for i in range(rng.randint(1, max_labels))]
    rows = []
    for _ in range(n):
        values = tuple(rng.randint(0, domain) for _ in range(d))
        label = rng.choice(alphabet)
        if weighted:
            rows.append((values, label, Fraction(rng.randint(1, 8), rng.choice((1, 2)))))
        else:
            rows.append((values, label))
    features = tuple(rng.sample(schema.attributes, rng.randint(1, d)))
    ds = kc.make_dataset(schema, rows, features=features, labels=alphabet)
    return ds, _random_ordering(rng, ds)


def random_keyed_instance(rng, n_max=12, max_labels=3, extra_attr=False):
    """A primary-key instance with distinct rows inside every block."""
    attrs = ("K", "V", "W") if extra_attr else ("K", "V")
    schema = kc.FdSchema.of(attrs, [(["K"], list(attrs[1:]))])
    n = rng.randint(1, n_max)
    num_blocks = rng.randint(1, max(1, n // 2 + 1))
    alphabet = [str(i) for i in range(rng.randint(1, max_labels))]
    counters = {}
    rows = []
    for _ in range(n):
        block = rng.randrange(num_blocks)
        counters[block] = counters.get(block, 0) + 1
        values = (block, counters[block]) + ((rng.randint(0, 3),) if extra_attr else ())
        rows.append((values, rng.choice(alphabet)))
    ds = kc.make_dataset(schema, rows, features=("K", "V"), labels=alphabet)
    return ds, _random_ordering(rng, ds)


def root_table(ds, ids, ops, tau, ordering):
    """The root table of a sweep over the repairs of ``ids`` once the tau
    nearest tuples are admitted: a ``decompose.size_tables`` list indexed
    by prefix size, with ``ops`` from ``certify_dp._row_ops`` (max-plus
    entries) or ``counting._cell_ops`` (dicts from difference vector to
    count). Non-chain schemas raise from ``build_tree``."""
    sweep = laid_out(ds, sorted(ids))
    sweep.start(ops)
    for tid in ordering.ranked[:tau]:
        sweep.admit(tid)
    return sweep.root


def check_semirings_agree(ds, ordering, k, label, taus=None):
    """Run the counting sweep for ``label`` and, over the same tree, the
    unweighted max-plus sweep of every other label against it, admitting in
    rank order. After each admission (only at ``taus`` when given), the
    max-plus root row of challenger ``others[j]`` must be, entry by entry,
    the largest component j among the vectors of the count table's entry
    (None where the entry is empty). Returns the number of rows compared."""
    others = counting._others(ds, label)
    counts = laid_out(ds)
    counts.start(counting._cell_ops(ds, label, others, k))
    rows = []
    for other in others:
        rows.append(laid_out(ds))
        rows[-1].start(certify_dp._row_ops(ds, other, label, k, False))
    compared = 0
    for tau, tid in enumerate(ordering.ranked, start=1):
        for sweep in [counts, *rows]:
            sweep.admit(tid)
        if taus is not None and tau not in taus:
            continue
        for j, sweep in enumerate(rows):
            want = [max(vec[j] for vec in entry) if entry else None for entry in counts.root]
            assert sweep.root == want, (tau, label, others[j])
            compared += 1
    return compared


def laid_out(ds, ids=None):
    """A ``decompose.Sweep`` laid out by ``build_tree`` over ``ids`` (every
    row by default), not yet started."""
    sweep = Sweep(ds.size)
    build_tree(ds.cells, list(ds.ids()) if ids is None else list(ids), list(ds.schema.fds),
               ds.schema, sweep.leaf, sweep.consensus, sweep.common)
    return sweep


def walk(node, leaf, consensus, common):
    """Evaluate the default tree of ``build_tree`` bottom up, the reference
    for the algebra it evaluates in its partition pass: a leaf's value is
    ``leaf(ids)``, an inner node's ``consensus(attr, values)`` or
    ``common(attr, values)`` over the tuple of its children's values."""
    if not hasattr(node, "children"):
        return leaf(node.ids)
    values = tuple(walk(child, leaf, consensus, common) for child in node.children)
    return (consensus if node.kind == "consensus" else common)(node.attr, values)


def fraction_min_rep(ds, weights, ids=None):
    """``minrepair.min_rep``'s (repair, weight) by a walk in Fractions over
    the default tree of the tuples view: the cheapest repair, ties toward the
    smallest id set."""
    ids = list(ds.ids()) if ids is None else sorted(ids)
    tree = build_tree(ds.tuples, ids, list(ds.schema.fds), ds.schema)

    def union(attr, parts):
        merged = sorted(t for _, repair in parts for t in repair)
        return sum((weight for weight, _ in parts), Fraction(0)), tuple(merged)

    def leaf(leaf_ids):
        return sum((Fraction(weights[t]) for t in leaf_ids), Fraction(0)), leaf_ids

    weight, repair = walk(tree, leaf, lambda attr, parts: min(parts), union)
    return tuple(repair), weight


def uncertain_table(attributes, rows):
    """An uncertain table from (cells, label) rows, with no FDs and no
    features, as ``ingest.load_dataset(..., read=ingest.parse_cell)`` holds
    one: a column with an or-set or interval cell is a column of values."""
    return kc.make_dataset(kc.FdSchema.of(tuple(attributes), []), rows, ())


def codd_certify(attributes, rows, x, k, p, features):
    """Certify a table with interval cells through its extremal instance."""
    keyed, _ = models.codd_extremal_instance(uncertain_table(attributes, rows), x, features)
    return fastscan.certify_pk(keyed, kc.order_by_distance(keyed.dataset, x, p), k)


def orset_realizations(cap):
    """The or-set block of a row of values: (index, realization) pairs,
    counting realizations against ``cap`` over the calls."""
    total = 0

    def block(cells):
        nonlocal total
        options = [c.distinct() if isinstance(c, models.OrSetCell) else (c,) for c in cells]
        total += math.prod(map(len, options))
        if total > cap:
            raise kc.CapExceededError(f"or-set expansion exceeds cap {cap}")
        return list(enumerate(itertools.product(*options)))

    return block


def codd_completions(x, attributes, features):
    """The Codd block of a row of values: its nearest and farthest
    completions, one "only" tuple when they coincide."""
    def block(cells):
        near, far = models._completion_pair(cells, x, attributes, features)
        return [("only", near)] if near == far else [("min", near), ("max", far)]

    return block


def keyed_by_rows(dataset, features, foreign, block):
    """The row route to an expanded uncertain table, for reference: each
    row's values (``Column.values()``), refused for a ``foreign`` cell, an
    ``id`` attribute and then row by row for a non-numeric feature value,
    each row's ``block`` under its row index, then ``make_dataset`` and
    ``fastscan.as_keyed``. Returns (keyed dataset, per tuple (row, role))."""
    attributes = dataset.schema.attributes
    rows = list(zip(zip(*[c.values() for c in dataset.columns]), dataset.row_labels))
    if any(isinstance(cell, foreign) for cells, _ in rows for cell in cells):
        raise kc.InputError(models._REFUSAL[foreign])
    if "id" in attributes:
        raise kc.InputError("attribute 'id' already present")
    feature_cols = [j for j, attr in enumerate(attributes) if attr in features]
    tuples, roles = [], []
    for row, (cells, label) in enumerate(rows):
        for role, values in block(cells):
            if not all(isinstance(values[j], (int, Fraction)) for j in feature_cols):
                raise kc.InputError(f"row {row}: non-numeric feature value")
            tuples.append((values + (row,), label))
            roles.append((row, role))
    schema = kc.FdSchema.of(attributes + ("id",), [(["id"], list(attributes))])
    return fastscan.as_keyed(kc.make_dataset(schema, tuples, features)), tuple(roles)


def brute_max_diff(ds, ordering, label, ref_label, tau, k, weighted=False):
    """Independent oracle for the certification table: classify every repair
    by its prefix size and take per-size maxima of the label difference
    (of label weights when ``weighted``)."""
    weight = ds.weights.values() if weighted else [1] * ds.size
    rows = [None] * (k + 1)
    for repair in oracle.enumerate_repairs(ds):
        prefix = [t for t in repair if ordering.rank_of[t] <= tau]
        if len(prefix) > k:
            continue
        diff = sum(weight[t] for t in prefix if ds.row_labels[t] == label) - sum(
            weight[t] for t in prefix if ds.row_labels[t] == ref_label
        )
        i = len(prefix)
        if rows[i] is None or diff > rows[i]:
            rows[i] = diff
    return rows


def repair_problems(ds, repair, ids=None):
    """Why ``repair`` is not a repair of ``ids`` (default: every id), as a
    list of messages; empty when it is one. Linear in the instance: one dict
    per FD maps the lhs values of a kept tuple to its rhs values, so a kept
    tuple that maps the same lhs elsewhere is a conflict inside the repair,
    and a left-out tuple that meets no such mismatch could be added."""
    ids = list(ds.ids()) if ids is None else list(ids)
    kept = set(repair)
    if len(kept) != len(repair) or not kept <= set(ids):
        return ["repair repeats ids or holds ids outside the instance"]
    values = ds.tuples
    slots = [
        ([ds.schema.index(a) for a in fd.lhs], [ds.schema.index(a) for a in fd.rhs])
        for fd in ds.schema.fds
    ]

    def cells(row, cols):
        return tuple(row[j] for j in cols)

    problems = []
    indexes = []
    for lhs, rhs in slots:
        index: dict = {}
        for tid in repair:
            row = values[tid]
            if index.setdefault(cells(row, lhs), cells(row, rhs)) != cells(row, rhs):
                problems.append(f"tuple {tid} conflicts inside the repair")
        indexes.append((lhs, rhs, index))
    for tid in ids:
        if tid in kept:
            continue
        row = values[tid]
        if all(index.get(cells(row, lhs), cells(row, rhs)) == cells(row, rhs)
               for lhs, rhs, index in indexes):
            problems.append(f"tuple {tid} could be added")
    return problems


def satisfiable(phi) -> bool:
    for bits in itertools.product((False, True), repeat=phi.num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause) for clause in phi.clauses):
            return True
    return False


def all_formulas(num_vars):
    """Exhaustive occurrence-disciplined formulas, canonical up to clause and
    literal order."""
    tokens = []
    for j in range(1, num_vars + 1):
        tokens += [j, j, -j]
    total = len(tokens)
    seen = set()
    out = []
    for m in range(1, total + 1):
        for assign in itertools.product(range(m), repeat=total):
            sizes = [0] * m
            ok = True
            for c in assign:
                sizes[c] += 1
                if sizes[c] > 3:
                    ok = False
                    break
            if not ok or 0 in sizes:
                continue
            clauses = [[] for _ in range(m)]
            for tok, c in zip(tokens, assign):
                clauses[c].append(tok)
            canon = tuple(sorted(tuple(sorted(cl)) for cl in clauses))
            if canon not in seen:
                seen.add(canon)
                out.append(hardgen.Sat3R(num_vars, canon))
    return out
