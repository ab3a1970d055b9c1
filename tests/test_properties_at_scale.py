"""Oracle-free properties on instances of one to five thousand tuples.

The brute-force oracle stops at a dozen tuples. These properties tie the
polynomial routines to each other instead, at sizes where the oracle cannot
follow: the key scan against the DP on keyed data, counting against
certification on chain data, in verdicts and table by table, the weighted
chain routines against the same weights times one factor, every repair the
chain routines return against a linear consistency-and-maximality check,
the one-pass evaluations of the decomposition and the flat layout a sweep
reads, with its tables, against a walk over the default tree, and the three
uncertainty models against plain prediction, against their own budget or
widening, and against an independent DP; the expansion of a loaded
uncertain table's cells against the row route it replaced. Last, the CLI's
bytes are tied to themselves: scaling or shifting every feature and the
point, or permuting the features with the point's coordinates and the
CSV's columns, leaves them as they are, and renaming the labels in order
maps each label in them, through both rankers, the dataset and
uncertain-table readers, ``count`` and ``poison-certify``.
"""

import contextlib
import csv
import functools
import io
import json
import math
import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import knncert as kc
from knncert import certify_dp, cli, counting, fastscan, ingest, minrepair, models
from knncert.dataset import Column
from knncert.decompose import TableOps, build_tree
from knncert.models import CoddCell, OrSetCell

import helpers

# No shrinking: a failing example of a thousand tuples takes minutes to
# shrink and stays about as large.
AT_SCALE = settings(derandomize=True, max_examples=10, deadline=None,
                    phases=(Phase.explicit, Phase.generate))


def _ordering(rng, ds, planted):
    """Planted ids first, the rest in random order."""
    rest = list(range(planted, ds.size))
    rng.shuffle(rest)
    return kc.Ordering(tuple(range(planted)) + tuple(rest))


@st.composite
def keyed_instances(draw):
    """Keyed data: ``planted`` conflict-free label-0 tuples ranked first,
    then blocks of one to ``width`` tuples with skewed random labels."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(800, 1200))
    width = draw(st.integers(2, 4))
    bias = draw(st.sampled_from((0.34, 0.6, 0.9)))
    k = draw(st.sampled_from((1, 3, 5)))
    planted = draw(st.sampled_from((k // 2, k // 2 + 1)))
    rng = random.Random(seed)
    schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
    rows = [((f"p{i}", 0), "0") for i in range(planted)]
    block = 0
    while len(rows) < n:
        for j in range(rng.randint(1, width)):
            rows.append(((block, j), "0" if rng.random() < bias else rng.choice("12")))
        block += 1
    ds = kc.make_dataset(schema, rows, features=(), labels=("0", "1", "2"))
    return ds, _ordering(rng, ds, planted), k


@st.composite
def chain_instances(draw):
    """Chain data on a random lhs-chain schema without consensus FDs, so
    that tuples with values of their own conflict with nothing; ``planted``
    such label-0 tuples are ranked first."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(800, 1200))
    spread = draw(st.sampled_from((4, 16, 64)))
    bias = draw(st.sampled_from((0.34, 0.6, 0.9)))
    k = draw(st.sampled_from((1, 2, 3)))
    planted = draw(st.sampled_from((k // 2, k // 2 + 1)))
    rng = random.Random(seed)
    schema = helpers.random_chain_schema(rng, rng.randint(2, 4), allow_consensus=False)
    d = schema.arity
    domain = max(2, n // spread)
    rows = [((-1 - i,) * d, "0") for i in range(planted)]
    while len(rows) < n:
        values = tuple(rng.randint(0, domain) for _ in range(d))
        rows.append((values, "0" if rng.random() < bias else rng.choice("12")))
    ds = kc.make_dataset(schema, rows, features=(), labels=("0", "1", "2"))
    return ds, _ordering(rng, ds, planted), k


class TestKeyedScanAgreesWithDp:
    @AT_SCALE
    @given(keyed_instances())
    def test_same_verdict(self, inst):
        ds, ordering, k = inst
        scan = fastscan.certify_pk(ds, ordering, k)
        dp = certify_dp.certify(ds, ordering, k)
        assert (scan.robust, scan.certain_label) == (dp.robust, dp.certain_label)


class TestCountsAgreeWithCertification:
    @settings(AT_SCALE, max_examples=6)
    @given(chain_instances())
    def test_counts_match_the_verdict(self, inst):
        # Robust exactly when the certain label is predicted by every
        # repair; and no repair is counted for two labels.
        ds, ordering, k = inst
        res = certify_dp.certify(ds, ordering, k)
        total = counting.count_repairs(ds)
        counts = {lab: counting.count_label(ds, ordering, k, lab) for lab in ds.labels}
        if res.robust:
            assert counts[res.certain_label] == total
        else:
            assert all(c < total for c in counts.values())
        assert sum(counts.values()) <= total


class TestSemiringsAgreeAtScale:
    def test_max_plus_rows_are_the_count_tables_maxima(self):
        # One consensus level over A, common over B, consensus over C: the
        # sweeps add, multiply and admit at every level of a 1,000-row tree.
        rng = random.Random(89)
        schema = kc.FdSchema.of(("A", "B", "C"), [([], ["A"]), (["B"], ["C"])])
        rows = [((rng.randint(0, 3), rng.randint(0, 150), rng.randint(0, 3)), rng.choice("012"))
                for _ in range(1000)]
        ds = kc.make_dataset(schema, rows, features=(), labels=("0", "1", "2"))
        ordering = _ordering(rng, ds, 0)
        for k in (1, 3, 6):
            for label in ds.labels:
                compared = helpers.check_semirings_agree(ds, ordering, k, label,
                                                         taus={1, 5, 50, 500, 1000})
                assert compared == 10


class TestWeightedPathsIgnoreTheScale:
    @settings(AT_SCALE, max_examples=6)
    @given(chain_instances(), st.integers(0, 2**32 - 1))
    def test_weights_times_seven_thirds(self, inst, seed):
        # The weighted DP and fold add the ints of the weight column, so one
        # factor on every weight changes its ints and scale, not a verdict,
        # a witness or a repair.
        ds, ordering, k = inst
        rng = random.Random(seed)
        weights = [Fraction(rng.randint(1, 12), rng.choice((1, 2, 4))) for _ in ds.ids()]
        base = replace(ds, weights=Column.of(weights))
        scaled = replace(ds, weights=Column.of([w * Fraction(7, 3) for w in weights]))
        assert certify_dp.certify(scaled, ordering, k, weighted=True) == certify_dp.certify(
            base, ordering, k, weighted=True)
        repair, weight = minrepair.min_rep(base)
        assert minrepair.min_rep(scaled) == (repair, weight * Fraction(7, 3))

        sweep = helpers.laid_out(scaled)
        sweep.start(certify_dp._row_ops(scaled, "1", "0", k, True))
        for tid in ordering.ranked:
            sweep.admit(tid)
        assert {type(v) for table in sweep.tables for v in table} <= {int, type(None)}


class TestOutputsAreRepairs:
    @settings(AT_SCALE, max_examples=6)
    @given(chain_instances(), st.integers(0, 2**32 - 1))
    def test_witnesses_min_repairs_and_forbidden_repairs(self, inst, seed):
        ds, ordering, k = inst
        rng = random.Random(seed)
        for repair, _ in certify_dp.certify(ds, ordering, k).witnesses:
            assert helpers.repair_problems(ds, repair) == []

        weights = [Fraction(rng.randint(0, 1)) for _ in ds.ids()]
        repair, weight = minrepair.min_rep(ds, weights=weights)
        assert helpers.repair_problems(ds, repair) == []
        assert weight == sum(weights[t] for t in repair)

        # Forbidding everything outside a repair leaves exactly that repair.
        forbidden = set(ds.ids()) - set(repair)
        assert minrepair.forbidden_repair(ds, forbidden) == repair

        pool = sorted(rng.sample(range(ds.size), ds.size // 2))
        for size in (1, 3, 10):
            forbidden = rng.sample(pool, size)
            avoiding = minrepair.forbidden_repair(ds, forbidden, ids=pool)
            if avoiding is not None:
                assert helpers.repair_problems(ds, avoiding, ids=pool) == []
                assert not set(avoiding) & set(forbidden)

    def test_check_rejects_broken_repairs(self):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        ds = kc.make_dataset(schema, [((1, 1), "0"), ((1, 2), "0"), ((2, 1), "0")], features=())
        assert helpers.repair_problems(ds, (0, 2)) == []
        assert helpers.repair_problems(ds, (0,)) == ["tuple 2 could be added"]
        assert helpers.repair_problems(ds, (0, 1, 2)) == ["tuple 1 conflicts inside the repair"]
        assert helpers.repair_problems(ds, (0,), ids=[0, 1]) == []


@st.composite
def weighted_chain_instances(draw):
    """Chain data of 1,000 to 5,000 rows on a random lhs-chain schema,
    consensus FDs included, with weights from a few negative, zero and
    positive values, so that equal-weight repairs are common."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1000, 5000))
    spread = draw(st.sampled_from((4, 32, 256)))
    rng = random.Random(seed)
    schema = helpers.random_chain_schema(rng, rng.randint(2, 4))
    domain = max(2, n // spread)
    rows = [(tuple(rng.randint(0, domain) for _ in range(schema.arity)), rng.choice("01"))
            for _ in range(n)]
    ds = kc.make_dataset(schema, rows, features=(), labels=("0", "1"))
    weights = [rng.choice((-2, -1, 0, 0, Fraction(1, 2), 1, 3)) for _ in range(n)]
    return ds, weights, seed


class TestOnePassAgreesWithTheNodeWalk:
    @settings(AT_SCALE, max_examples=6)
    @given(weighted_chain_instances())
    def test_min_rep_forbidden_repair_and_count_repairs(self, inst):
        ds, weights, seed = inst
        rng = random.Random(seed)
        fds = list(ds.schema.fds)
        for ids in (None, rng.sample(range(ds.size), ds.size // 2)):
            pool = list(ds.ids()) if ids is None else sorted(ids)
            assert minrepair.min_rep(ds, ids=ids, weights=weights) == helpers.fraction_min_rep(
                ds, weights, ids=ids)

            for size in (1, 5, 50):
                forbidden = rng.sample(pool, size)
                flags = [int(t in forbidden) for t in ds.ids()]
                repair, weight = helpers.fraction_min_rep(ds, flags, ids=ids)
                assert minrepair.forbidden_repair(ds, forbidden, ids=ids) == (
                    repair if weight == 0 else None)

            tree = build_tree(ds.tuples, pool, fds, ds.schema)
            total = helpers.walk(tree, lambda leaf: 1, lambda attr, counts: sum(counts),
                                 lambda attr, counts: math.prod(counts))
            assert counting.count_repairs(ds, ids=ids) == total


@st.composite
def labeled_chain_instances(draw):
    """Chain data of 1,000 to 5,000 rows on a random lhs-chain schema,
    consensus FDs included, with three or four labels, positive weights and
    a random rank order."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1000, 5000))
    spread = draw(st.sampled_from((4, 32, 256)))
    k = draw(st.sampled_from((1, 2, 3)))
    rng = random.Random(seed)
    schema = helpers.random_chain_schema(rng, rng.randint(2, 4))
    labels = ("0", "1", "2", "3")[:rng.randint(3, 4)]
    domain = max(2, n // spread)
    rows = [(tuple(rng.randint(0, domain) for _ in range(schema.arity)), rng.choice(labels),
             Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))) for _ in range(n)]
    ds = kc.make_dataset(schema, rows, features=(), labels=labels)
    return ds, _ordering(rng, ds, 0), k


def _table_ops(ds, k):
    """Every table layout a sweep runs, by name: the max-plus rows of each
    challenger, weighted and not, the count tables of each label, and the
    1-NN tables of ``minrepair._nearest_first``."""
    ops = {"1-NN": TableOps(0, lambda c, tid: c + 1, min, operator.add)}
    for label in ds.labels:
        ops[f"count {label}"] = counting._cell_ops(ds, label, counting._others(ds, label), k)
        for other in counting._others(ds, label):
            for weighted in (False, True):
                ops[f"rows {other} {label} {weighted}"] = certify_dp._row_ops(
                    ds, other, label, k, weighted)
    return ops


def _walked_root(tree, ops, admitted, rank_of):
    """The root table of the default tree, evaluated bottom up by
    ``helpers.walk`` with ``admitted`` added to their leaves in rank order."""
    def leaf(ids):
        table = ops.blank
        for tid in sorted(admitted.intersection(ids), key=rank_of.__getitem__):
            table = ops.admit(table, tid)
        return table

    return helpers.walk(tree, leaf, lambda attr, tables: functools.reduce(ops.choose, tables),
                        lambda attr, tables: functools.reduce(ops.combine, tables))


class TestFlatLayoutAgreesWithTheTree:
    @settings(AT_SCALE, max_examples=4)
    @given(labeled_chain_instances())
    def test_layout_is_the_default_tree_numbered_children_first(self, inst):
        ds, _, _ = inst
        sweep = helpers.laid_out(ds)
        tree = build_tree(ds.cells, list(ds.ids()), list(ds.schema.fds), ds.schema)
        nodes = []  # (children, leaf ids, consensus) in the walk's bottom-up order

        def number(kids, ids, chooses):
            nodes.append((kids, ids, chooses))
            return len(nodes) - 1

        root = helpers.walk(tree, lambda ids: number((), ids, False),
                            lambda attr, kids: number(kids, (), True),
                            lambda attr, kids: number(kids, (), False))
        assert root == len(nodes) - 1
        assert list(zip(sweep.kids, sweep.ids, sweep.chooses)) == nodes
        parent, slot, leaf_of = [-1] * len(nodes), [0] * len(nodes), [-1] * ds.size
        for v, (kids, ids, _) in enumerate(nodes):
            assert all(c < v for c in kids)
            for j, c in enumerate(kids):
                parent[c], slot[c] = v, j
            for tid in ids:
                leaf_of[tid] = v
        assert (sweep.parent, sweep.slot, sweep.leaf_of) == (parent, slot, leaf_of)

    @settings(AT_SCALE, max_examples=3)
    @given(labeled_chain_instances())
    def test_root_tables_match_a_walk_of_the_tree(self, inst):
        ds, ordering, k = inst
        tree = build_tree(ds.cells, list(ds.ids()), list(ds.schema.fds), ds.schema)
        taus = {1, 7, ds.size // 3, ds.size}
        rank_of = ordering.rank_of
        for name, ops in _table_ops(ds, k).items():
            sweep = helpers.laid_out(ds)
            sweep.start(ops)
            for tau, tid in enumerate(ordering.ranked, start=1):
                sweep.admit(tid)
                if tau in taus:
                    admitted = set(ordering.ranked[:tau])
                    assert sweep.root == _walked_root(tree, ops, admitted, rank_of), (name, tau)

    @settings(AT_SCALE, max_examples=3)
    @given(labeled_chain_instances())
    def test_one_layout_restarted_equals_fresh_layouts(self, inst):
        # The challengers of one certify call share a layout and restart it.
        ds, ordering, k = inst
        shared = helpers.laid_out(ds)
        taus = {1, 50, ds.size // 2, ds.size}
        for name, ops in _table_ops(ds, k).items():
            fresh = helpers.laid_out(ds)
            for sweep in (shared, fresh):
                sweep.start(ops)
            for tau, tid in enumerate(ordering.ranked, start=1):
                shared.admit(tid)
                fresh.admit(tid)
                if tau in taus:
                    assert shared.root == fresh.root, (name, tau)
            assert shared.tables == fresh.tables, name


@st.composite
def qset_instances(draw):
    """A ?-set table: skewed labels in random rank order, a random share of
    the rows marked, and the budgets 0..min(|marked|, 3k + 2) to try."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1000, 5000))
    bias = draw(st.sampled_from((0.34, 0.6, 0.9)))
    share = draw(st.sampled_from((0.1, 0.5, 1.0)))
    k = draw(st.sampled_from((1, 2, 3, 5)))
    rng = random.Random(seed)
    rows = [((i,), "0" if rng.random() < bias else rng.choice("12")) for i in range(n)]
    ds = kc.make_dataset(kc.FdSchema.of(("A",), []), rows, features=(), labels=("0", "1", "2"))
    marked = frozenset(i for i in range(n) if rng.random() < share)
    return ds, _ordering(rng, ds, 0), k, marked, range(min(len(marked), 3 * k + 2) + 1)


def best_lead(labels, ranked, marked, budget, k, ell, ell1):
    """The largest count of ``ell`` less that of ``ell1`` among the first k
    tuples left after deleting at most ``budget`` marked ones: a DP over
    the first k + budget ranked tuples and the number deleted so far."""
    leads = {0: 0}  # tuples deleted so far -> best lead among those kept
    best = None
    for i, tid in enumerate(ranked[: k + budget]):
        step = (labels[tid] == ell) - (labels[tid] == ell1)
        after: dict = {}
        for gone, lead in leads.items():
            if i + 1 - gone == k:  # keeping it fills the neighborhood
                best = lead + step if best is None else max(best, lead + step)
            else:
                after[gone] = max(after.get(gone, lead + step), lead + step)
            if tid in marked and gone < budget:
                after[gone + 1] = max(after.get(gone + 1, lead), lead)
        leads = after
    return best


class TestQSetAtScale:
    @AT_SCALE
    @given(qset_instances())
    def test_budget_zero_is_the_plain_vote(self, inst):
        ds, ordering, k, marked, _ = inst
        res = models.qset_certify(models.QSetInstance(ds, marked, 0), ordering, k)
        vote = kc.predict(ds, ds.ids(), ordering, k)
        assert (res.robust, res.certain_label) == (vote.kind == "label", vote.label)

    @AT_SCALE
    @given(qset_instances())
    def test_verdict_is_monotone_in_the_budget(self, inst):
        # A larger budget only adds worlds: once flagged, always flagged.
        ds, ordering, k, marked, budgets = inst
        verdicts = [models.qset_certify(models.QSetInstance(ds, marked, b), ordering, k)
                    for b in budgets]
        robust = [res.robust for res in verdicts]
        assert robust == sorted(robust, reverse=True)
        assert len({res.certain_label for res in verdicts if res.robust}) <= 1

    @AT_SCALE
    @given(qset_instances())
    def test_scan_agrees_with_a_dp(self, inst):
        ds, ordering, k, marked, budgets = inst
        labels = ds.row_labels
        for budget in budgets:
            q = models.QSetInstance(ds, marked, budget)
            for ell, ell1 in [("0", "1"), ("1", "0"), ("1", "2"), ("2", "0")]:
                removed = models._qset_scan(q, ordering, k, ell, ell1)
                best = best_lead(labels, ordering.ranked, marked, budget, k, ell, ell1)
                assert (removed is not None) == (best >= 0)
                if removed is not None:  # the world it names reaches the lead
                    gone = set(removed)
                    assert len(removed) <= budget and gone <= marked
                    kept = [t for t in ordering.ranked if t not in gone][:k]
                    assert sum((labels[t] == ell) - (labels[t] == ell1) for t in kept) >= 0


def _planted_rows(rng, n, k, cell):
    """Rows of a two-attribute table around the point 0: ``k // 2`` or
    ``k // 2 + 1`` label-0 rows whose ``cell(rng, 30)`` lies near it, then
    rows of ``cell(rng, 20_000)`` cells and skewed labels."""
    planted = [((cell(rng, 30), "p"), "0") for _ in range(k // 2 + rng.randint(0, 1))]
    bias = rng.choice((0.34, 0.6, 0.9))
    return planted + [((cell(rng, 20_000), cell(rng, 20_000)),
                       "0" if rng.random() < bias else rng.choice("12"))
                      for _ in range(n - len(planted))]


def _orset_cell(rng, top):
    values = [rng.randint(1, top) for _ in range(rng.choice((1, 2, 3)))]
    return values[0] if len(values) == 1 else OrSetCell(tuple(values))


def _codd_cell(rng, top, points=False):
    low = rng.randint(-top, top)
    if rng.random() < 0.5:
        return low
    return CoddCell(low, low if points else low + rng.randint(0, top // 100))


@st.composite
def table_instances(draw, cell):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from((1, 2, 3, 5)))
    return _planted_rows(rng, draw(st.integers(1000, 2000)), k, cell), k, rng


def _codd_verdict(rows, k):
    x = kc.TestPoint((0,))
    keyed, _ = models.codd_extremal_instance(helpers.uncertain_table(("A", "B"), rows), x, ("A",))
    res = fastscan.certify_pk(keyed, kc.order_by_distance(keyed.dataset, x, 1), k)
    return res.robust, res.certain_label


class TestOrSetAndCoddAtScale:
    @AT_SCALE
    @given(table_instances(_orset_cell))
    def test_orset_blocks_scan_as_the_dp_certifies(self, inst):
        rows, k, _ = inst
        keyed = models.orset_expand(helpers.uncertain_table(("A", "B"), rows), ("A",))
        ordering = kc.order_by_distance(keyed.dataset, kc.TestPoint((0,)), 1)
        scan = fastscan.certify_pk(keyed, ordering, k)
        dp = certify_dp.certify(keyed.dataset, ordering, k)
        assert (scan.robust, scan.certain_label) == (dp.robust, dp.certain_label)

    @AT_SCALE
    @given(table_instances(lambda rng, top: _codd_cell(rng, top, points=True)))
    def test_point_intervals_give_the_plain_vote(self, inst):
        rows, k, _ = inst
        plain = [(tuple(c.low if isinstance(c, CoddCell) else c for c in cells), label)
                 for cells, label in rows]
        ds = kc.make_dataset(kc.FdSchema.of(("A", "B"), []), plain, ("A",))
        vote = kc.predict(ds, ds.ids(), kc.order_by_distance(ds, kc.TestPoint((0,)), 1), k)
        assert _codd_verdict(rows, k) == (vote.kind == "label", vote.label)

    @AT_SCALE
    @given(table_instances(_codd_cell))
    def test_widening_never_makes_robust(self, inst):
        # A wider interval only adds completions, so it keeps every world:
        # along nested widenings, once flagged, always flagged.
        rows, k, rng = inst
        verdicts = [_codd_verdict(rows, k)]
        for _ in range(3):
            rows = [(tuple(CoddCell(c.low - rng.randint(0, 200), c.high + rng.randint(0, 200))
                           if isinstance(c, CoddCell) else c for c in cells), label)
                    for cells, label in rows]
            verdicts.append(_codd_verdict(rows, k))
        robust = [robust for robust, _ in verdicts]
        assert robust == sorted(robust, reverse=True)
        assert len({label for robust, label in verdicts if robust}) <= 1


def _number(rng, form):
    """A cell text of a numeric column: an int, a decimal of one or three
    places, or a fraction a/b."""
    if form == "int":
        return str(rng.randint(-500, 500))
    if form == "fraction":
        return f"{rng.randint(-90, 90)}/{rng.randint(1, 12)}"
    places = rng.choice((1, 3))
    v = rng.randint(-50_000, 50_000)
    return f"{'-' if v < 0 else ''}{abs(v) // 10**places}.{abs(v) % 10**places:0{places}d}"


def _uncertain_cell(rng, kind, form):
    """An or-set of one to three alternatives, or an interval, of ``form``."""
    if form == "symbol":
        return f"<{'|'.join(f's{rng.randint(0, 40)}' for _ in range(rng.randint(1, 3)))}>"
    if kind == "or":
        return f"<{'|'.join(_number(rng, form) for _ in range(rng.randint(1, 3)))}>"
    low, high = sorted((Fraction(_number(rng, form)), Fraction(_number(rng, form))))
    return f"[{low},{high}]"


# Faults an expansion refuses, in the order it refuses them: a cell of the
# other model, an ``id`` attribute, the or-set cap or a non-numeric feature
# value, whichever row comes first, and an unknown feature. A low cap may
# also stay unreached.
FAULTS = [(), ("cap",), ("non-numeric",), ("cap", "non-numeric"), ("unknown",),
          ("non-numeric", "unknown"), ("id", "cap", "unknown"), ("foreign", "id", "non-numeric")]


def _uncertain_table(kind, seed, n, faults):
    """(CSV rows, features, cap) of a table of ``n`` rows: two to four
    columns of symbols, ints, decimals or fractions, some holding 1 to 5 %
    ``kind`` cells ("or" or "interval"), features in any order, and
    ``faults``."""
    rng = random.Random(seed)
    forms = [rng.choice(("symbol", "int", "decimal", "fraction")) for _ in range(rng.randint(2, 4))]
    forms[rng.randrange(len(forms))] = rng.choice(("decimal", "fraction"))  # one numeric, at least
    rates = [rng.uniform(0.01, 0.05) if rng.random() < 0.5 else 0 for _ in forms]
    if kind == "interval":
        rates = [0 if form == "symbol" else rate for form, rate in zip(forms, rates)]
    names = list("ABCD"[:len(forms)])
    rows = [[_uncertain_cell(rng, kind, form) if rng.random() < rate else
             f"s{rng.randint(0, 40)}" if form == "symbol" else _number(rng, form)
             for form, rate in zip(forms, rates)] + [rng.choice("012")] for _ in range(n)]
    numeric = [j for j, form in enumerate(forms) if form != "symbol"]
    feature_cols = rng.sample(numeric, rng.randint(1, len(numeric)))
    if "foreign" in faults:
        rows[rng.randrange(n)][rng.choice(numeric)] = "<1|2>" if kind == "interval" else "[1,2]"
    if "id" in faults:
        names[-1] = "id"
    if "non-numeric" in faults:
        symbol = rng.choice(("x", "<1|x>")) if kind == "or" else "x"
        rows[rng.randrange(n)][rng.choice(feature_cols)] = symbol
    features = [names[j] for j in feature_cols]
    if "unknown" in faults:
        features.insert(rng.randint(0, len(features)), "Z")
    cap = rng.randint(n // 2, n + n // 50) if "cap" in faults else 100_000
    return [names + ["label"]] + rows, features, cap


def _expansion(expand):
    """What ``expand()``, a (keyed, roles) pair, gives: the first error, or
    the keyed dataset's roles, schema, labels, blocks and column values."""
    try:
        keyed, roles = expand()
    except (kc.InputError, kc.CapExceededError) as exc:
        return type(exc), str(exc)
    ds = keyed.dataset
    return (roles, ds.schema, ds.row_labels, ds.labels, ds.features, list(keyed.block_of),
            [c.values() for c in ds.columns], ds.weights.values())


def _loaded(tmp_path_factory, rows):
    """The CSV ``rows`` loaded as orset- and codd-certify load a table."""
    path = tmp_path_factory.mktemp("table") / "d.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return ingest.load_dataset(str(path), None, (), read=ingest.parse_cell)[0]


class TestExpansionMatchesTheRowRoute:
    """The expansion of a loaded table's cells against the row route in
    ``helpers.keyed_by_rows``: same tuples, blocks and first error."""

    @pytest.mark.parametrize("faults", FAULTS, ids=lambda faults: "+".join(faults) or "none")
    @settings(AT_SCALE, max_examples=3)
    @given(st.integers(0, 2**32 - 1), st.integers(1_000, 10_000))
    def test_orset(self, tmp_path_factory, faults, seed, n):
        rows, features, cap = _uncertain_table("or", seed, n, faults)
        table = _loaded(tmp_path_factory, rows)
        got = _expansion(lambda: (models.orset_expand(table, features, cap), None))
        want = _expansion(lambda: (helpers.keyed_by_rows(
            table, features, CoddCell, helpers.orset_realizations(cap))[0], None))
        assert got == want

    @pytest.mark.parametrize("faults", FAULTS, ids=lambda faults: "+".join(faults) or "none")
    @settings(AT_SCALE, max_examples=3)
    @given(st.integers(0, 2**32 - 1), st.integers(1_000, 10_000))
    def test_codd(self, tmp_path_factory, faults, seed, n):
        rows, features, _ = _uncertain_table("interval", seed, n, faults)
        table = _loaded(tmp_path_factory, rows)
        x = kc.TestPoint(tuple(Fraction(i - 1, 3) for i in range(len(features))))
        got = _expansion(lambda: models.codd_extremal_instance(table, x, features))
        want = _expansion(lambda: helpers.keyed_by_rows(
            table, features, OrSetCell,
            helpers.codd_completions(x, table.schema.attributes, features)))
        assert got == want


def _tenths(n):
    """n / 10 as a one-place decimal."""
    return f"{'-' if n < 0 else ''}{abs(n) // 10}.{abs(n) % 10}"


# Each edit writes feature value n / 10 on axis 0 or 1. An exact symmetry of
# the surrogate distance keeps every ranking, tie-break by id included, so
# the CLI's stdout must not change. Scaled by 7/3 the cells are fractions,
# which the readers take in their values mode; scaled by 2^40 the distances
# pass the int64 bound, so the primary-key path ranks in Python ints.
SHIFT = (-1234567, 987654)
EDITS = {
    "times-7/3": lambda axis, n: f"{7 * n}/30",
    "times-2^40": lambda axis, n: _tenths(n << 40),
    "shift": lambda axis, n: _tenths(n + SHIFT[axis]),
}


def _unedited(axis, n):
    return _tenths(n)


# The columns a row (key, x, y, label[, uncertain]) fills, in the order the
# schemas and the unpermuted calls list X and Y. The permuted layout writes
# the columns in another order and lists the features and the point's
# coordinates as Y, X. It is shifted as well: the points are on the
# diagonal, where a coordinate paired with the other feature's column would
# give the same distances.
HEADER = ("K", "X", "Y", "label", "uncertain")
PERMUTED = ("uncertain", "X", "label", "K", "Y")
EDITED = [(name, edit, False) for name, edit in EDITS.items()] + [
    ("permuted-shift", EDITS["shift"], True)]


def _text(cell, axis, edit):
    """A feature cell: n, ("or", values) or ("interval", (low, high))."""
    if isinstance(cell, int):
        return edit(axis, cell)
    kind, values = cell
    texts = [edit(axis, v) for v in values]
    return f"<{'|'.join(texts)}>" if kind == "or" else f"[{','.join(texts)}]"


def _write_table(path, rows, edit, order=HEADER):
    """``rows`` (key, x, y, label[, uncertain]) as a CSV, the columns they
    fill in ``order`` and the feature cells written through ``edit``."""
    names = [name for name in order if name in HEADER[:len(rows[0])]]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for key, x, y, *rest in rows:
            cells = dict(zip(HEADER, [key, _text(x, 0, edit), _text(y, 1, edit), *rest]))
            writer.writerow([cells[name] for name in names])
    return str(path)


def _cli_bytes(tmp_path, rows, argv, point, edit, permuted=False):
    """(exit code, stdout) of ``argv`` on ``rows`` and ``point``, both
    written through ``edit``, in the permuted layout when ``permuted``."""
    axes = (1, 0) if permuted else (0, 1)
    path = _write_table(tmp_path / "d.csv", rows, edit, PERMUTED if permuted else HEADER)
    features = ",".join("XY"[axis] for axis in axes)
    at = ",".join(edit(axis, point[axis]) for axis in axes)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--data", path, "--features", features, f"--point={at}",
                         "--k", "3"])
    return code, out.getvalue()


def _scattered_rows(rng, n, block, cell):
    """Two label-0 rows near (0, 0), then rows on a 301 x 301 grid of tenths
    around (25, 25), ``block()`` rows to a key, with skewed labels and
    ``cell`` for each coordinate. Small coordinates give many tied
    distances, so a tie-break by anything but id shows."""
    rows = [("p0", 1, 2, "0"), ("p1", 2, 1, "0")]
    key = 0
    while len(rows) < n:
        cells = rng.sample(range(301 * 301), block())  # distinct within a key
        rows += [(f"k{key}", cell(rng, 100 + c // 301), cell(rng, 100 + c % 301),
                  rng.choice("0012")) for c in cells]
        key += 1
    return rows


def _uncertain(kind):
    def cell(rng, n):
        if rng.random() >= 0.05:
            return n
        return (kind, (n, n + rng.randint(-9, 9)) if kind == "or" else (n, n + rng.randint(0, 9)))
    return cell


ROBUST, FLAGGED = (0, 0), (250, 250)
VERDICTS = {ROBUST: 0, FLAGGED: 1}  # the exit codes of the certifying calls


@functools.cache
def _table_rows(kind):
    """A 10^4-row key table, blocks of one to three rows; a 300-row chain
    table of such blocks; 1,000 rows with every third row marked, on
    average, in an ``uncertain`` column; or a 3,000-row table with 5 %
    ``kind`` cells ("or" or "interval") and, last, two label-1 rows at
    FLAGGED or far from it and two label-2 rows between."""
    rng = random.Random(f"{kind}0")
    if kind in ("key", "chain"):
        n = 10_000 if kind == "key" else 300
        return _scattered_rows(rng, n, lambda: rng.choice((1, 2, 2, 3)), lambda rng, n: n)
    if kind == "poison":
        return [row + (rng.choice("100"),)
                for row in _scattered_rows(rng, 1_000, lambda: 1, lambda rng, n: n)]
    near_or_far = (kind, (250, 400))
    return _scattered_rows(rng, 3_000, lambda: 1, _uncertain(kind)) + [
        ("f0", 250, 252, "2"), ("f1", 252, 250, "2"),
        ("u0", near_or_far, 250, "1"), ("u1", near_or_far, 251, "1")]


# An order-preserving renaming of the labels, and the payload it gives: each
# label string mapped where the payload names one.
RENAMED = {"0": "a0", "1": "b1", "2": "c2"}


def _renamed(payload):
    if isinstance(payload, list):
        return [_renamed(item) for item in payload]
    if not isinstance(payload, dict):
        return payload
    return {key: RENAMED.get(value, value) if key in ("label", "certain_label") else
            [RENAMED[v] for v in value] if key == "possible_labels" else _renamed(value)
            for key, value in payload.items()}


class TestCliBytesUnderExactSymmetries:
    """Metamorphic: no oracle, only the base call's bytes."""

    @pytest.mark.parametrize("point", [ROBUST, FLAGGED], ids=["robust", "flagged"])
    @pytest.mark.parametrize("argv, kind, codes", [
        (["certify", "--schema", "{dir}/key.json"], "key", VERDICTS),
        (["certify", "--schema", "{dir}/key.json", "--force-dp"], "key", VERDICTS),
        (["orset-certify"], "or", VERDICTS),
        (["codd-certify"], "interval", VERDICTS),
        # The chain schema K -> X is no key; count exits 0 at both points.
        (["count", "--schema", "{dir}/chain.json", "--label", "0"], "chain",
         {ROBUST: 0, FLAGGED: 0}),
        (["poison-certify", "--budget", "1"], "poison", VERDICTS),
    ], ids=["certify", "certify-force-dp", "orset-certify", "codd-certify", "count",
            "poison-certify"])
    def test_same_bytes(self, tmp_path, argv, kind, codes, point):
        for name, rhs in [("key", ["X", "Y"]), ("chain", ["X"])]:
            schema = {"attributes": ["K", "X", "Y"], "fds": [{"lhs": ["K"], "rhs": rhs}]}
            (tmp_path / f"{name}.json").write_text(json.dumps(schema))
        argv, rows = [a.format(dir=tmp_path) for a in argv], _table_rows(kind)
        base = _cli_bytes(tmp_path, rows, argv, point, _unedited)
        assert base[0] == codes[point]
        if argv[0] == "certify":
            assert f'"method": "{"dp" if "--force-dp" in argv else "fastscan"}"' in base[1]
        for name, edit, permuted in EDITED:
            assert _cli_bytes(tmp_path, rows, argv, point, edit, permuted) == base, name
        # Labels renamed in order: the same document, each label mapped.
        assert json.dumps(json.loads(base[1]), sort_keys=True, indent=2) + "\n" == base[1]
        renamed = [row[:3] + (RENAMED[row[3]],) + row[4:] for row in rows]
        argv = [RENAMED[a] if flag == "--label" else a for flag, a in zip([""] + argv, argv)]
        mapped = json.dumps(_renamed(json.loads(base[1])), sort_keys=True, indent=2) + "\n"
        assert _cli_bytes(tmp_path, renamed, argv, point, _unedited) == (base[0], mapped)

    def test_times_two_to_the_forty_ranks_in_python_ints(self, tmp_path):
        x = kc.TestPoint((Fraction(0), Fraction(0)))
        ranked = []
        for edit in (_unedited, EDITS["times-2^40"]):
            path = _write_table(tmp_path / "d.csv", _table_rows("key"), edit)
            ds, _, _ = ingest.load_dataset(path, None, ["X", "Y"])
            ranked.append(fastscan._int64_distances(ds, x, 2) is not None)
        assert ranked == [True, False]
