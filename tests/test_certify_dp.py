import functools
import operator
import random

import pytest

import knncert as kc
from knncert import NotChainError, certify_dp, oracle
from knncert.certify_dp import _row_ops
from knncert.decompose import size_tables

import helpers


def max_label_diff(ds, ids, label, ref_label, tau, k, ordering):
    """The certification DP's root row: best (label minus ref_label)
    difference per prefix size over the repairs of ``ids`` at ``tau``."""
    return helpers.root_table(ds, ids, _row_ops(ds, label, ref_label, k, False), tau, ordering)


class TestMaxLabelDiff:
    def test_base_case_no_fds(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "0"), ((2,), "1"), ((3,), "1")], features=("A",))
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        table = max_label_diff(ds, ds.ids(), "1", "0", tau=2, k=3, ordering=ordering)
        # The only repair is the whole set; two tuples sit inside tau=2.
        assert table == [None, None, 0, None]

    def test_example_label2_tau2(self, example1):
        ds, _, ordering = example1
        table = max_label_diff(ds, ds.ids(), "2", "0", tau=2, k=3, ordering=ordering)
        assert table[2] == 0
        assert table[1] == 1

    def test_example_label2_best_over_tau_is_negative(self, example1):
        ds, _, ordering = example1
        best = None
        for tau in range(1, ds.size + 1):
            entry = max_label_diff(ds, ds.ids(), "2", "0", tau, 3, ordering)[3]
            if entry is not None and (best is None or entry > best):
                best = entry
        assert best == -1

    def test_matches_brute_force_tables(self):
        rng = random.Random(31)
        for _ in range(40):
            ds, ordering = helpers.random_chain_instance(rng, n_max=9)
            if ds.size == 0 or len(ds.labels) < 2:
                continue
            ell, ell1 = rng.sample(ds.labels, 2)
            k = rng.choice((1, 2, 3, 5))
            tau = rng.randint(1, ds.size)
            got = max_label_diff(ds, ds.ids(), ell, ell1, tau, k, ordering)
            want = helpers.brute_max_diff(ds, ordering, ell, ell1, tau, k)
            assert got == want

    def test_block_tables_combine_to_the_whole(self):
        # Key blocks never conflict with each other, so the whole table is
        # the max-plus combination of per-block tables, and each per-block
        # table must skip the tuples outside its block.
        rng = random.Random(61)
        for _ in range(30):
            ds, ordering = helpers.random_keyed_instance(rng, n_max=12)
            if len(ds.labels) < 2:
                continue
            ell, ell1 = rng.sample(ds.labels, 2)
            k = rng.choice((1, 2, 3))
            tau = rng.randint(1, ds.size)
            blocks: dict = {}
            for tid, t in enumerate(ds.tuples):
                blocks.setdefault(t[0], []).append(tid)
            parts = [
                max_label_diff(ds, ids, ell, ell1, tau, k, ordering) for ids in blocks.values()
            ]
            whole = max_label_diff(ds, ds.ids(), ell, ell1, tau, k, ordering)
            assert convolve_all(parts) == whole

    def test_rejects_non_chain(self):
        schema = kc.FdSchema.of(("A", "B", "C"), [(["A"], ["C"]), (["B"], ["C"])])
        ds = kc.make_dataset(schema, [((1, 1, 1), "0")], features=("A",))
        ordering = kc.Ordering((0,))
        with pytest.raises(NotChainError):
            max_label_diff(ds, ds.ids(), "0", "0", 1, 1, ordering)


def convolve_all(rows):
    """Max-plus combination of rows at a shared total prefix size."""
    convolve = size_tables(len(rows[0]) - 1, 0, max, operator.add, None).combine
    return functools.reduce(convolve, [list(r) for r in rows])


class TestCombineRows:
    def test_single_row_unchanged(self):
        assert convolve_all([[None, 1, 0]]) == [None, 1, 0]

    def test_forced_indices_add(self):
        assert convolve_all([[None, 0, None], [None, 0, None]]) == [None, None, 0]

    def test_mixed_infinities(self):
        assert convolve_all([[None, 1, 0], [2, None, None]]) == [None, 3, 2]

    def test_exhaustive_pairing_oracle(self):
        rng = random.Random(33)
        for _ in range(50):
            k = rng.randint(1, 5)
            rows = [
                [rng.choice((None, rng.randint(-3, 3))) for _ in range(k + 1)]
                for _ in range(rng.randint(1, 4))
            ]
            got = convolve_all(rows)
            want = [None] * (k + 1)
            import itertools

            for combo in itertools.product(*(range(k + 1) for _ in rows)):
                if sum(combo) > k:
                    continue
                parts = [r[c] for r, c in zip(rows, combo)]
                if any(p is None for p in parts):
                    continue
                s = sum(parts)
                i = sum(combo)
                if want[i] is None or s > want[i]:
                    want[i] = s
            assert got == want


class TestCertify:
    def test_example_robust(self, example1):
        ds, _, ordering = example1
        res = certify_dp.certify(ds, ordering, 3)
        assert res.robust and res.certain_label == "0"
        assert res.possible_labels == ("0",)

    def test_sixteen_tuple_fixture_not_robust(self, figure3):
        ds, ordering = figure3
        res = certify_dp.certify(ds, ordering, 3)
        assert not res.robust
        for ids, outcome in res.witnesses:
            assert kc.predict(ds, ids, ordering, 3) == outcome

    def test_consistent_dataset(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "0"), ((2,), "0"), ((3,), "1")], features=("A",))
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        assert certify_dp.certify(ds, ordering, 2).robust
        assert certify_dp.certify(ds, ordering, 3).robust  # strict 2-vs-1 majority

    def test_tie_on_consistent_dataset_falsifies(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "0"), ((2,), "1")], features=("A",))
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        res = certify_dp.certify(ds, ordering, 2)
        assert not res.robust
        assert res.witnesses[0][1] == kc.PredictOutcome.TIE

    def test_small_repairs_use_whole_repair(self):
        # Consensus FD forces one A-group: repairs are {0} and {1, 2}. With
        # k=3 every repair is smaller than k, so the vote covers it whole.
        schema = kc.FdSchema.of(("A", "B"), [([], ["A"])])
        rows = [((1, 1), "0"), ((2, 2), "1"), ((2, 3), "1")]
        ds = kc.make_dataset(schema, rows, features=("B",))
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        res = certify_dp.certify(ds, ordering, 3)
        brute = oracle.brute_certify(ds, ordering, 3)
        assert res.robust == brute.robust == False  # noqa: E712

    def test_matches_oracle_on_randoms(self):
        rng = random.Random(37)
        for _ in range(120):
            ds, ordering = helpers.random_chain_instance(rng, n_max=10)
            k = rng.choice((1, 2, 3, 5))
            got = certify_dp.certify(ds, ordering, k)
            want = oracle.brute_certify(ds, ordering, k)
            assert got.robust == want.robust
            assert got.certain_label == want.certain_label

    def test_weighted_matches_weighted_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            ds, ordering = helpers.random_chain_instance(rng, n_max=9, weighted=True)
            k = rng.choice((1, 2, 3))
            got = certify_dp.certify(ds, ordering, k, weighted=True)
            want = oracle.brute_certify(ds, ordering, k, weighted=True)
            assert got.robust == want.robust
            assert got.certain_label == want.certain_label

    def test_unit_weights_equal_unweighted(self):
        rng = random.Random(43)
        for _ in range(40):
            ds, ordering = helpers.random_chain_instance(rng, n_max=9)
            k = rng.choice((1, 2, 3))
            assert certify_dp.certify(ds, ordering, k) == certify_dp.certify(
                ds, ordering, k, weighted=True
            )

    def test_witnesses_always_reverify(self):
        rng = random.Random(47)
        for _ in range(60):
            ds, ordering = helpers.random_chain_instance(rng, n_max=10)
            k = rng.choice((1, 2, 3, 5))
            res = certify_dp.certify(ds, ordering, k)
            for ids, outcome in res.witnesses:
                assert kc.predict(ds, ids, ordering, k) == outcome
            if not res.robust and len(res.witnesses) == 2:
                repair = res.witnesses[1][0]
                assert repair in oracle.enumerate_repairs(ds)

    def check_sweep_and_traceback(self, rng, weighted):
        # At every tau the sweep's root row must equal the brute-force table,
        # and the traceback over the stored tables must rebuild a repair
        # attaining each finite entry: right prefix size, exact difference.
        from knncert.certify_dp import _row_ops, _trace

        for _ in range(25):
            ds, ordering = helpers.random_chain_instance(rng, n_max=8, weighted=weighted)
            if ds.size == 0 or len(ds.labels) < 2:
                continue
            ell, ell1 = rng.sample(ds.labels, 2)
            k = rng.choice((2, 3))
            sweep = helpers.laid_out(ds)
            sweep.start(_row_ops(ds, ell, ell1, k, weighted))
            repairs = set(oracle.enumerate_repairs(ds))
            # Weighted entries are in the ints of the weight column: the
            # brute-force Fractions times its scale.
            weight, scale = [1] * ds.size, 1
            if weighted:
                weight, scale = ds.weights.values(), ds.weights.scale
            for tau, tid in enumerate(ordering.ranked, start=1):
                sweep.admit(tid)
                row = sweep.root
                want = helpers.brute_max_diff(ds, ordering, ell, ell1, tau, k, weighted)
                assert row == [None if v is None else v * scale for v in want]
                for i, value in enumerate(row):
                    if value is None:
                        continue
                    repair = tuple(sorted(_trace(sweep, sweep.top, i)))
                    assert repair in repairs
                    prefix = [t for t in repair if ordering.rank_of[t] <= tau]
                    assert len(prefix) == i
                    diff = sum(
                        weight[t] for t in prefix if ds.row_labels[t] == ell
                    ) - sum(weight[t] for t in prefix if ds.row_labels[t] == ell1)
                    assert diff * scale == value

    def test_traceback_attains_every_finite_entry(self):
        self.check_sweep_and_traceback(random.Random(53), weighted=False)

    def test_weighted_traceback_attains_every_finite_entry(self):
        self.check_sweep_and_traceback(random.Random(59), weighted=True)

    def test_witness_failing_reverification_raises(self, figure3, monkeypatch):
        # The greedy repair predicts the incumbent, so it can never be a witness.
        ds, ordering = figure3
        monkeypatch.setattr(
            certify_dp, "_challenge", lambda ds, ordering, *rest: kc.greedy_repair(ds, ordering)
        )
        with pytest.raises(AssertionError, match="still predicts '1'"):
            certify_dp.certify(ds, ordering, 3)

    def test_rejects_non_chain(self):
        schema = kc.FdSchema.of(("A", "B", "C"), [(["A"], ["C"]), (["B"], ["C"])])
        ds = kc.make_dataset(schema, [((1, 1, 1), "0"), ((1, 2, 2), "1")], features=("A",))
        ordering = kc.Ordering((0, 1))
        with pytest.raises(NotChainError):
            certify_dp.certify(ds, ordering, 1)
