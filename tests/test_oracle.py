import itertools
import random

import pytest

import knncert as kc
from knncert import CapExceededError, oracle

import helpers


def powerset_repairs(ds):
    """Second, even dumber oracle: filter all subsets for maximal consistency."""
    ids = list(ds.ids())
    consistent = []
    for r in range(len(ids) + 1):
        for sub in itertools.combinations(ids, r):
            ok = True
            for a, b in itertools.combinations(sub, 2):
                if kc.conflicts(ds.tuples[a], ds.tuples[b], ds.schema):
                    ok = False
                    break
            if ok:
                consistent.append(frozenset(sub))
    maximal = [
        s
        for s in consistent
        if not any(s < other for other in consistent)
    ]
    return sorted(tuple(sorted(s)) for s in maximal)


class TestEnumerateRepairs:
    def test_example_four_repairs(self, example1):
        ds, _, _ = example1
        assert oracle.enumerate_repairs(ds) == (
            (0, 2, 4, 5),
            (0, 3, 4, 5),
            (1, 2, 4, 5),
            (1, 3, 4, 5),
        )

    def test_consistent_dataset(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "0"), ((2,), "1")], features=("A",))
        assert oracle.enumerate_repairs(ds) == ((0, 1),)

    def test_two_conflicting_tuples(self):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        ds = kc.make_dataset(schema, [((1, 1), "0"), ((1, 2), "1")], features=("A",))
        assert oracle.enumerate_repairs(ds) == ((0,), (1,))

    def test_cap_is_hard(self, example1):
        ds, _, _ = example1
        with pytest.raises(CapExceededError):
            oracle.enumerate_repairs(ds, cap=3)

    def test_matches_powerset_filter(self):
        rng = random.Random(21)
        for _ in range(40):
            ds, _ = helpers.random_chain_instance(rng, n_max=8)
            assert list(oracle.enumerate_repairs(ds)) == powerset_repairs(ds)

    def test_every_repair_is_consistent_and_maximal(self):
        rng = random.Random(23)
        for _ in range(30):
            ds, _ = helpers.random_chain_instance(rng, n_max=10)
            for repair in oracle.enumerate_repairs(ds):
                for a, b in itertools.combinations(repair, 2):
                    assert not kc.conflicts(ds.tuples[a], ds.tuples[b], ds.schema)
                for out in set(ds.ids()) - set(repair):
                    assert any(
                        kc.conflicts(ds.tuples[out], ds.tuples[t], ds.schema) for t in repair
                    )

    def test_primary_key_counts_multiply(self):
        rng = random.Random(25)
        for _ in range(20):
            ds, _ = helpers.random_keyed_instance(rng, n_max=10)
            sizes = {}
            for t in ds.tuples:
                sizes[t[0]] = sizes.get(t[0], 0) + 1
            expected = 1
            for s in sizes.values():
                expected *= s
            assert len(oracle.enumerate_repairs(ds)) == expected


class TestBruteCertify:
    def test_example_robust(self, example1):
        ds, _, ordering = example1
        res = oracle.brute_certify(ds, ordering, 3)
        assert res.robust and res.certain_label == "0"

    def test_sixteen_tuple_fixture_not_robust(self, figure3):
        ds, ordering = figure3
        res = oracle.brute_certify(ds, ordering, 3)
        assert not res.robust
        assert res.possible_labels == ("1", "3")

    def test_single_tuple(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "9")], features=("A",))
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        res = oracle.brute_certify(ds, ordering, 1)
        assert res.robust and res.certain_label == "9"

    def test_witnesses_disagree(self, figure3):
        ds, ordering = figure3
        res = oracle.brute_certify(ds, ordering, 3)
        outcomes = [kc.predict(ds, ids, ordering, 3) for ids, _ in res.witnesses]
        assert outcomes[0] != outcomes[1]

    def test_robust_iff_counts_line_up(self):
        rng = random.Random(27)
        for _ in range(40):
            ds, ordering = helpers.random_chain_instance(rng, n_max=9)
            k = rng.choice((1, 2, 3))
            res = oracle.brute_certify(ds, ordering, k)
            total = len(oracle.enumerate_repairs(ds))
            counts = {lab: oracle.brute_count(ds, ordering, k, lab) for lab in ds.labels}
            if res.robust:
                assert counts[res.certain_label] == total
                assert all(c == 0 for lab, c in counts.items() if lab != res.certain_label)
            else:
                assert all(c < total for c in counts.values())


class TestBruteCount:
    def test_example_counts(self, example1):
        ds, _, ordering = example1
        assert oracle.brute_count(ds, ordering, 3, "0") == 4
        assert oracle.brute_count(ds, ordering, 3, "1") == 0
        assert oracle.brute_count(ds, ordering, 3, "2") == 0

    def test_uniform_label_counts_everything(self):
        rng = random.Random(29)
        for _ in range(10):
            ds, ordering = helpers.random_chain_instance(rng, n_max=8, max_labels=1)
            total = len(oracle.enumerate_repairs(ds))
            assert oracle.brute_count(ds, ordering, 2, ds.labels[0]) == total

    def test_ties_leave_a_gap(self):
        # Two conflicting pairs whose repairs are always one 0 and one 1:
        # every repair ties at k=2, so no label gets counted.
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        rows = [((1, 1), "0"), ((1, 2), "1"), ((2, 1), "1"), ((2, 2), "0")]
        ds = kc.make_dataset(schema, rows, features=("B",))
        ordering = kc.Ordering((0, 1, 2, 3))
        total = len(oracle.enumerate_repairs(ds))
        counted = sum(oracle.brute_count(ds, ordering, 2, lab) for lab in ds.labels)
        assert total == 4 and counted < total


class TestBruteMinRepair:
    def test_consistent_returns_everything(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "0", 2), ((2,), "1", 3)], features=("A",))
        repair, weight = oracle.brute_min_repair(ds)
        assert repair == (0, 1) and weight == 5

    def test_two_sided_conflict_prefers_light_side(self):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        ds = kc.make_dataset(schema, [((1, 1), "0", 3), ((1, 2), "1", 1)], features=("A",))
        repair, weight = oracle.brute_min_repair(ds)
        assert repair == (1,) and weight == 1


class TestQsetWorlds:
    def test_zero_budget(self, example1):
        ds, _, _ = example1
        assert oracle.enumerate_qset_worlds(ds, ds.ids(), 0) == [tuple(ds.ids())]

    def test_empty_uncertain(self, example1):
        ds, _, _ = example1
        assert oracle.enumerate_qset_worlds(ds, (), 0) == [tuple(ds.ids())]

    def test_powerset_of_two(self, example1):
        ds, _, _ = example1
        worlds = oracle.enumerate_qset_worlds(ds, (0, 1), 2)
        assert len(worlds) == 4

    @pytest.mark.parametrize("budget", [-1, 3])
    def test_budget_out_of_range_rejected(self, example1, budget):
        ds, _, _ = example1
        with pytest.raises(kc.InputError, match=r"^budget must lie in 0\.\.\|uncertain\|$"):
            oracle.enumerate_qset_worlds(ds, (0, 1), budget)

    def test_worlds_over_the_cap_rejected(self, example1):
        ds, _, _ = example1
        assert len(oracle.enumerate_qset_worlds(ds, (0, 1), 2, cap=4)) == 4
        with pytest.raises(CapExceededError, match="^4 worlds exceed cap 3$"):
            oracle.enumerate_qset_worlds(ds, (0, 1), 2, cap=3)
