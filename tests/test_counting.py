import random

import pytest

import knncert as kc
from knncert import NotChainError, certify_dp, counting, oracle

import helpers


def count_table(ds, ids, label, tau, k, ordering):
    """The counting DP's root table flattened: repairs of ``ids`` per
    (prefix size at ``tau``, per-label differences against ``label``)."""
    ops = counting._cell_ops(ds, label, counting._others(ds, label), k)
    table = helpers.root_table(ds, ids, ops, tau, ordering)
    return {(i, vec): count for i, entry in enumerate(table) if entry
            for vec, count in entry.items()}


def classify_repairs(ds, ordering, label, tau, k):
    """The cells the count table should hold, by classifying every repair."""
    want: dict = {}
    for repair in oracle.enumerate_repairs(ds):
        prefix = [t for t in repair if ordering.rank_of[t] <= tau]
        if len(prefix) > k:
            continue
        mine = sum(1 for t in prefix if ds.row_labels[t] == label)
        vec = tuple(
            sum(1 for t in prefix if ds.row_labels[t] == other) - mine
            for other in counting._others(ds, label)
        )
        cell = (len(prefix), vec)
        want[cell] = want.get(cell, 0) + 1
    return want


class TestCountTable:
    def test_consistent_base_case_single_cell(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "0"), ((2,), "1")], features=("A",))
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        table = count_table(ds, ds.ids(), "0", tau=1, k=2, ordering=ordering)
        # One repair (everything), one tuple inside tau=1, labels differ by -1.
        assert table == {(1, (-1,)): 1}

    def test_independent_pairs_multiply(self):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        rows = [((1, 1), "0"), ((1, 2), "0"), ((2, 1), "0"), ((2, 2), "0")]
        ds = kc.make_dataset(schema, rows, features=("B",))
        ordering = kc.Ordering((0, 1, 2, 3))
        table = count_table(ds, ds.ids(), "0", tau=4, k=3, ordering=ordering)
        assert sum(table.values()) == 4

    def test_cells_match_repair_classification(self, example1):
        ds, _, ordering = example1
        k, tau = 3, 4
        table = count_table(ds, ds.ids(), "0", tau, k, ordering)
        assert table == classify_repairs(ds, ordering, "0", tau, k)

    def test_cells_match_repair_classification_on_randoms(self):
        rng = random.Random(71)
        for _ in range(40):
            ds, ordering = helpers.random_chain_instance(rng, n_max=9)
            label = rng.choice(ds.labels)
            k = rng.choice((1, 2, 3))
            tau = rng.randint(1, ds.size)
            table = count_table(ds, ds.ids(), label, tau, k, ordering)
            assert table == classify_repairs(ds, ordering, label, tau, k)

    def test_block_subset_skips_outside_tuples(self):
        # A key block's repairs are its single tuples; tuples of other
        # blocks are outside the ids and must not reach any cell.
        rng = random.Random(67)
        for _ in range(30):
            ds, ordering = helpers.random_keyed_instance(rng, n_max=12)
            label = rng.choice(ds.labels)
            tau = rng.randint(1, ds.size)
            block = [tid for tid, t in enumerate(ds.tuples) if t[0] == ds.tuples[0][0]]
            table = count_table(ds, block, label, tau, 2, ordering)
            want: dict = {}
            for t in block:
                inside = int(ordering.rank_of[t] <= tau)
                lab = ds.row_labels[t]
                vec = tuple(
                    inside * ((lab == other) - (lab == label))
                    for other in counting._others(ds, label)
                )
                want[(inside, vec)] = want.get((inside, vec), 0) + 1
            assert table == want


class TestSemiringsAgree:
    def test_max_plus_rows_are_the_count_tables_maxima(self):
        # Certification and counting run one table over two semirings, so
        # the best difference at each size is the largest count-table vector.
        rng = random.Random(83)
        compared = 0
        for _ in range(60):
            ds, ordering = helpers.random_chain_instance(rng, n_max=10)
            k = rng.randint(1, 4)
            for label in ds.labels:
                compared += helpers.check_semirings_agree(ds, ordering, k, label)
        assert compared > 500


class TestCountLabel:
    def test_example_counts(self, example1):
        ds, _, ordering = example1
        assert counting.count_label(ds, ordering, 3, "0") == 4
        assert counting.count_label(ds, ordering, 3, "1") == 0
        assert counting.count_label(ds, ordering, 3, "2") == 0

    def test_empty_dataset_counts_nothing(self):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        ds = kc.make_dataset(schema, [], features=("B",), labels=("0",))
        assert counting.count_label(ds, kc.Ordering(()), 2, "0") == 0

    def test_uniform_label_counts_all_repairs(self):
        rng = random.Random(79)
        for _ in range(15):
            ds, ordering = helpers.random_chain_instance(rng, n_max=9, max_labels=1)
            total = counting.count_repairs(ds)
            assert counting.count_label(ds, ordering, 2, ds.labels[0]) == total

    def test_matches_oracle_on_randoms(self):
        rng = random.Random(83)
        for _ in range(60):
            ds, ordering = helpers.random_chain_instance(rng, n_max=10)
            k = rng.choice((1, 2, 3, 4))
            for label in ds.labels:
                got = counting.count_label(ds, ordering, k, label)
                want = oracle.brute_count(ds, ordering, k, label)
                assert got == want, (ds, k, label)

    def test_counts_plus_ties_cover_total(self):
        rng = random.Random(89)
        for _ in range(40):
            ds, ordering = helpers.random_chain_instance(rng, n_max=9)
            k = rng.choice((1, 2, 3))
            repairs = oracle.enumerate_repairs(ds)
            ties = sum(
                1
                for r in repairs
                if kc.predict(ds, r, ordering, k).kind != "label"
            )
            counted = sum(counting.count_label(ds, ordering, k, lab) for lab in ds.labels)
            assert counted + ties == len(repairs)

    def test_agrees_with_certification(self):
        rng = random.Random(97)
        for _ in range(40):
            ds, ordering = helpers.random_chain_instance(rng, n_max=9)
            if ds.size == 0:
                continue
            k = rng.choice((1, 2, 3))
            res = certify_dp.certify(ds, ordering, k)
            total = counting.count_repairs(ds)
            counts = {lab: counting.count_label(ds, ordering, k, lab) for lab in ds.labels}
            if res.robust:
                assert counts[res.certain_label] == total
                assert all(c == 0 for lab, c in counts.items() if lab != res.certain_label)
            else:
                assert all(c < total for c in counts.values())

    def test_rejects_non_chain(self):
        schema = kc.FdSchema.of(("A", "B", "C"), [(["A"], ["C"]), (["B"], ["C"])])
        ds = kc.make_dataset(schema, [((1, 1, 1), "0")], features=("A",))
        with pytest.raises(NotChainError):
            counting.count_label(ds, kc.Ordering((0,)), 1, "0")


class TestBigCounts:
    def test_ten_blocks_of_two(self):
        schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
        rows = [((i // 2, i % 2), "0") for i in range(20)]
        ds = kc.make_dataset(schema, rows, features=("V",))
        ordering = kc.Ordering(tuple(range(20)))
        assert counting.count_repairs(ds) == 2**10
        assert counting.count_label(ds, ordering, 3, "0") == 2**10

    def test_exact_arbitrary_precision(self):
        schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
        rows = [((i // 2, i % 2), "0") for i in range(50)]
        ds = kc.make_dataset(schema, rows, features=("V",))
        assert counting.count_repairs(ds) == 2**25
