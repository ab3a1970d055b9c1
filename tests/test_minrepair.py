import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knncert as kc
from knncert import InputError, NotChainError, certify_dp, minrepair, oracle
from knncert.decompose import build_tree

import helpers


class TestMinRep:
    def test_consistent_returns_everything(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "0", 2), ((2,), "1", 3)], features=("A",))
        assert minrepair.min_rep(ds) == ((0, 1), Fraction(5))

    def test_consensus_takes_cheapest_group(self):
        schema = kc.FdSchema.of(("A", "B"), [([], ["A"])])
        rows = [((1, 1), "0", 5), ((2, 1), "0", 2), ((2, 2), "0", 1)]
        ds = kc.make_dataset(schema, rows, features=("B",))
        repair, weight = minrepair.min_rep(ds)
        assert repair == (1, 2) and weight == 3

    @pytest.mark.parametrize("weights", [[1], [1, 2, 3, 4]])
    def test_weights_must_cover_each_row_once(self, weights):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        ds = kc.make_dataset(schema, [((1, 1), "0"), ((1, 2), "1"), ((2, 1), "0")], features=("A",))
        with pytest.raises(InputError, match=f"^{len(weights)} weights for 3 rows$"):
            minrepair.min_rep(ds, weights=weights)

    def test_matches_oracle_on_randoms(self):
        rng = random.Random(101)
        for _ in range(80):
            ds, _ = helpers.random_chain_instance(rng, n_max=11, weighted=True)
            got_repair, got_weight = minrepair.min_rep(ds)
            want_repair, want_weight = oracle.brute_min_repair(ds)
            assert got_weight == want_weight
            assert got_repair in oracle.enumerate_repairs(ds)

    def test_a_lightest_repair_at_scale(self):
        # No oracle at hundreds of tuples: the result must be a repair, its
        # weight its tuples' total, and no repair found greedily is lighter.
        rng = random.Random(113)
        for _ in range(20):
            ds, ordering = helpers.random_chain_instance(rng, n_max=300, weighted=True, n_min=100)
            repair, weight = minrepair.min_rep(ds)
            assert helpers.repair_problems(ds, repair) == []
            weights = ds.weights.values()
            assert weight == sum(weights[t] for t in repair)
            for order in (ordering.ranked, sorted(ds.ids(), key=weights.__getitem__)):
                greedy = kc.greedy_repair(ds, kc.Ordering(tuple(order)))
                assert weight <= sum(weights[t] for t in greedy)

    def test_zero_weights_allowed(self):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        ds = kc.make_dataset(schema, [((1, 1), "0"), ((1, 2), "0")], features=("A",))
        repair, weight = minrepair.min_rep(ds, weights=[Fraction(0), Fraction(1)])
        assert repair == (0,) and weight == 0

    @pytest.mark.parametrize("bad", [0.5, "1", None])
    def test_rejects_weights_that_are_not_exact_numbers(self, bad):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        ds = kc.make_dataset(schema, [((1, 1), "0"), ((1, 2), "0")], features=("A",))
        with pytest.raises(InputError, match="^weights must be ints or Fractions$"):
            minrepair.min_rep(ds, weights=[Fraction(1), bad])

    def test_rejects_non_chain(self):
        schema = kc.FdSchema.of(("A", "B", "C"), [(["A"], ["C"]), (["B"], ["C"])])
        ds = kc.make_dataset(schema, [((1, 1, 1), "0")], features=("A",))
        with pytest.raises(NotChainError):
            minrepair.min_rep(ds)


# Exact weights of mixed denominators, zeros and negatives included.
WEIGHTS = st.one_of(st.sampled_from([0, Fraction(0)]), st.integers(-4, 4),
                    st.fractions(-4, 4, max_denominator=12))


class TestIntegerFoldMatchesFractionFold:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_min_rep_and_forbidden_repair(self, seed, data):
        rng = random.Random(seed)
        ds, _ = helpers.random_chain_instance(rng, n_max=14, d_max=4, weighted=True)
        weights = data.draw(st.lists(WEIGHTS, min_size=ds.size, max_size=ds.size))
        ids = None if rng.random() < 0.5 else rng.sample(range(ds.size), rng.randint(0, ds.size))

        got = minrepair.min_rep(ds, ids=ids, weights=weights)
        assert got == helpers.fraction_min_rep(ds, weights, ids=ids)
        assert type(got[1]) is Fraction
        own = minrepair.min_rep(ds, ids=ids)
        assert own == helpers.fraction_min_rep(ds, ds.weights.values(), ids=ids)
        assert type(own[1]) is Fraction

        pool = list(ds.ids()) if ids is None else ids
        forbidden = [t for t in pool if rng.random() < 0.3]
        flags = [Fraction(int(t in forbidden)) for t in ds.ids()]
        repair, weight = helpers.fraction_min_rep(ds, flags, ids=ids)
        want = repair if weight == 0 else None
        assert minrepair.forbidden_repair(ds, forbidden, ids=ids) == want


class TestForbiddenRepair:
    def test_empty_forbidden_always_exists(self, example1):
        ds, _, _ = example1
        repair = minrepair.forbidden_repair(ds, ())
        assert repair in oracle.enumerate_repairs(ds)

    def test_whole_consistent_instance_impossible(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "0"), ((2,), "1")], features=("A",))
        assert minrepair.forbidden_repair(ds, (0, 1)) is None

    def test_one_side_of_a_conflict(self):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        ds = kc.make_dataset(schema, [((1, 1), "0"), ((1, 2), "1")], features=("A",))
        assert minrepair.forbidden_repair(ds, (0,)) == (1,)

    def test_matches_enumeration(self):
        rng = random.Random(103)
        for _ in range(60):
            ds, _ = helpers.random_chain_instance(rng, n_max=10)
            if ds.size == 0:
                continue
            forbidden = frozenset(rng.sample(list(ds.ids()), rng.randint(0, ds.size)))
            got = minrepair.forbidden_repair(ds, forbidden)
            avoiding = [
                r
                for r in oracle.enumerate_repairs(ds)
                if not forbidden & set(r)
            ]
            if got is None:
                assert not avoiding
            else:
                assert not forbidden & set(got)
                assert got in oracle.enumerate_repairs(ds)


def node_count(attr, counts):
    return 1 + sum(counts)


class TestCertify1nn:
    def test_example_not_robust_at_k1(self, example1):
        ds, _, ordering = example1
        res = minrepair.certify_1nn_via_forbidden(ds, ordering)
        assert not res.robust
        assert res.possible_labels == ("0", "2")
        for ids, outcome in res.witnesses:
            assert kc.predict(ds, ids, ordering, 1) == outcome

    def test_singleton_robust(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "4")], features=("A",))
        res = minrepair.certify_1nn_via_forbidden(ds, kc.Ordering((0,)))
        assert res.robust and res.certain_label == "4"

    def test_witness_failing_reverification_raises(self, example1, monkeypatch):
        # The greedy repair predicts the incumbent, so it can never be a witness.
        ds, _, ordering = example1
        monkeypatch.setattr(
            minrepair, "_nearest_first",
            lambda ds, ordering, tree, ell2: kc.greedy_repair(ds, ordering),
        )
        with pytest.raises(AssertionError, match="still predicts '0'"):
            minrepair.certify_1nn_via_forbidden(ds, ordering)

    def test_witness_keeping_a_closer_tuple_raises(self, example1, monkeypatch):
        # The nearest tuple carries the incumbent label, so it is closer than
        # every challenger's tuple and no 1-NN witness may keep it.
        ds, _, ordering = example1
        monkeypatch.setattr(
            minrepair, "min_rep",
            lambda dataset, ids=None, weights=None: (ordering.ranked[:1], Fraction(-1)),
        )
        with pytest.raises(AssertionError, match="closer tuple"):
            minrepair.certify_1nn_via_forbidden(ds, ordering)

    @pytest.mark.parametrize("rows, robust, folds", [
        # The nearest tuple conflicts with nothing: no challenger is tried.
        ([((0, 0), "0"), ((1, 0), "1"), ((1, 1), "1")], True, 0),
        # Tuple 1 shares a leaf with the closer tuple 0; tuple 2 is the witness.
        ([((0, 0), "0"), ((0, 0), "1"), ((0, 1), "1")], False, 1),
    ])
    def test_folds_the_tree_only_for_the_witness(self, monkeypatch, rows, robust, folds):
        calls = []

        def counted(dataset, ids=None, weights=None):
            calls.append(weights)
            return min_rep(dataset, ids=ids, weights=weights)

        min_rep = minrepair.min_rep
        monkeypatch.setattr(minrepair, "min_rep", counted)
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        ds = kc.make_dataset(schema, rows, features=("A",))
        res = minrepair.certify_1nn_via_forbidden(ds, kc.Ordering((0, 1, 2)))
        assert (res.robust, len(calls)) == (robust, folds)
        if not robust:
            assert res.witnesses[1][0] == (2,)

    def test_matches_dp_and_oracle(self):
        rng = random.Random(107)
        for _ in range(80):
            ds, ordering = helpers.random_chain_instance(rng, n_max=10)
            got = minrepair.certify_1nn_via_forbidden(ds, ordering)
            dp = certify_dp.certify(ds, ordering, 1)
            want = oracle.brute_certify(ds, ordering, 1)
            assert got.robust == dp.robust == want.robust
            assert got.certain_label == want.certain_label

    def test_matches_dp_at_scale(self):
        # Trees of hundreds of nodes, swept once per challenger label.
        rng = random.Random(109)
        sizes = []
        for _ in range(18):
            ds, ordering = helpers.random_chain_instance(rng, n_max=300, n_min=100)
            tree = build_tree(ds.cells, list(ds.ids()), list(ds.schema.fds), ds.schema)
            sizes.append(helpers.walk(tree, lambda ids: 1, node_count, node_count))
            got = minrepair.certify_1nn_via_forbidden(ds, ordering)
            dp = certify_dp.certify(ds, ordering, 1)
            assert got.robust == dp.robust
            assert got.certain_label == dp.certain_label
            for ids, _ in got.witnesses:
                assert helpers.repair_problems(ds, ids) == []
        assert max(sizes) >= 200
