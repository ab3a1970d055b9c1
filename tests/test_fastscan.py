import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knncert as kc
from knncert import NotPrimaryKeyError, certify_dp, fastscan, oracle

import helpers


class TestAsKeyed:
    def test_single_fd_key(self, figure3):
        ds, _ = figure3
        keyed = fastscan.as_keyed(ds)
        assert keyed.key == ("K",)
        assert keyed.num_blocks == 5

    def test_implied_key_through_minimization(self):
        # {A->B, AB->C} minimizes to lhs {A} covering everything.
        schema = kc.FdSchema.of(("A", "B", "C"), [(["A"], ["B"]), (["A", "B"], ["C"])])
        ds = kc.make_dataset(schema, [((1, 1, 1), "0"), ((1, 2, 2), "1")], features=("A",))
        assert fastscan.as_keyed(ds).key == ("A",)

    def test_non_key_schema_rejected(self, example1):
        ds, _, _ = example1  # A->B does not determine C
        with pytest.raises(NotPrimaryKeyError):
            fastscan.as_keyed(ds)

    def test_split_lhs_rejected(self):
        schema = kc.FdSchema.of(("A", "B"), [(["A"], ["B"]), (["B"], ["A"])])
        ds = kc.make_dataset(schema, [((1, 1), "0")], features=("A",))
        with pytest.raises(NotPrimaryKeyError):
            fastscan.as_keyed(ds)

    def test_duplicate_rows_in_block_rejected(self):
        # Identical rows never conflict, so they are not a real block clique.
        schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
        ds = kc.make_dataset(schema, [((1, 1), "0"), ((1, 1), "1")], features=("V",))
        with pytest.raises(NotPrimaryKeyError, match=r"block \(1,\) holds identical rows"):
            fastscan.as_keyed(ds)

    def test_empty_fd_set_needs_distinct_rows(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "0"), ((2,), "1")], features=("A",))
        keyed = fastscan.as_keyed(ds)
        assert keyed.num_blocks == 2

    # Each kind of value column: ints past 2^63 (kept in a list), fractions
    # (ints over a scale) and symbols. The block of rows 1 and 3 holds two
    # identical rows; the block of rows 0 and 2 holds two different ones.
    @pytest.mark.parametrize(
        "values",
        [[2**64, 2**70, 2**70 + 1, 2**70], [Fraction(1, 3), Fraction(1, 2), 2, Fraction(1, 2)],
         ["x", "y", "z", "y"]],
        ids=["past-int64", "fraction", "symbol"],
    )
    def test_identical_rows_refused_on_every_column_kind(self, values):
        schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
        rows = [((key, v), str(i % 2)) for i, (key, v) in enumerate(zip("abab", values))]
        ds = kc.make_dataset(schema, rows, features=())
        with pytest.raises(NotPrimaryKeyError, match=r"^block \('b',\) holds identical rows$"):
            fastscan.as_keyed(ds)
        rows[3] = ((rows[3][0][0], values[0]), "1")
        keyed = fastscan.as_keyed(kc.make_dataset(schema, rows, features=()))
        assert (keyed.block_of.tolist(), keyed.num_blocks) == ([0, 1, 0, 1], 2)

    def test_rows_with_equal_digests_are_told_apart(self):
        # Rows (k, 0, 0) and (k, 1, 2^64 - mix) share the digest
        # (b * mix + x) * mix + y mod 2^64 without being identical.
        schema = kc.FdSchema.of(("K", "X", "Y"), [(["K"], ["X", "Y"])])
        twin = 2**64 - fastscan._DIGEST_MIX
        rows = [(("a", 0, 0), "0"), (("a", 1, twin), "1"), (("b", 2, 2), "0")]
        keyed = fastscan.as_keyed(kc.make_dataset(schema, rows, features=()))
        assert (keyed.block_of.tolist(), keyed.num_blocks) == ([0, 0, 1], 2)
        rows.append((("a", 1, twin), "0"))
        with pytest.raises(NotPrimaryKeyError, match=r"^block \('a',\) holds identical rows$"):
            fastscan.as_keyed(kc.make_dataset(schema, rows, features=()))

    def test_two_attribute_key(self):
        schema = kc.FdSchema.of(("A", "B", "V"), [(["A", "B"], ["V"])])
        cells = [(1, "p", 5), (1, "q", 5), (2, "p", 5), (1, "q", 6), (2, "p", 5)]
        ds = kc.make_dataset(schema, [(c, "0") for c in cells], features=())
        with pytest.raises(NotPrimaryKeyError, match=r"^block \(2, 'p'\) holds identical rows$"):
            fastscan.as_keyed(ds)
        ds = kc.make_dataset(schema, [(c, "0") for c in cells[:4]], features=())
        keyed = fastscan.as_keyed(ds)
        assert keyed.key == ("A", "B")
        assert (keyed.block_of.tolist(), keyed.num_blocks) == ([0, 1, 2, 1], 3)

    def test_without_fds_every_attribute_is_the_key(self):
        schema = kc.FdSchema.of(("A", "B"), [])
        cells = [(1, "x"), (2, "x"), (1, "y"), (2, "x")]
        ds = kc.make_dataset(schema, [(c, "0") for c in cells], features=())
        with pytest.raises(NotPrimaryKeyError, match=r"^block \(2, 'x'\) holds identical rows$"):
            fastscan.as_keyed(ds)
        keyed = fastscan.as_keyed(kc.make_dataset(schema, [(c, "0") for c in cells[:3]], ()))
        assert keyed.key == ("A", "B")
        assert (keyed.block_of.tolist(), keyed.num_blocks) == ([0, 1, 2], 3)


# Per column one domain, so columns come out of every kind: packed ints,
# ints past 2^63 in a list, ints over a scale, and values.
DOMAINS = [
    [0, 1, -2], [2**64, -(2**70), 3], [Fraction(1, 2), Fraction(-1, 3), 1],
    ["a", "b", "c"], ["a", 1, Fraction(1, 2), 2**64],
]


@st.composite
def key_datasets(draw):
    width = draw(st.integers(1, 3))
    attrs = ("A", "B", "C")[:width]
    key = draw(st.lists(st.sampled_from(attrs), unique=True, max_size=width))
    rest = [a for a in attrs if a not in key]
    domains = [draw(st.sampled_from(DOMAINS)) for _ in attrs]
    rows = draw(st.lists(st.tuples(*[st.sampled_from(d) for d in domains]), max_size=25))
    schema = kc.FdSchema.of(attrs, [(key, rest)] if rest else [])
    return kc.make_dataset(schema, [(row, "0") for row in rows], features=())


def reference_keyed(dataset, key):
    """Block codes by first appearance over row tuples, and the block the
    identical-row refusal names (None when every row is distinct)."""
    rows = dataset.tuples
    key_idx = [dataset.schema.index(a) for a in key]
    code_of: dict = {}
    blocks = [code_of.setdefault(tuple(row[i] for i in key_idx), len(code_of)) for row in rows]
    count = Counter(rows)
    named = min((b for b, row in zip(blocks, rows) if count[row] > 1), default=None)
    return blocks, len(code_of), named


class TestAsKeyedMatchesRowTuples:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(key_datasets())
    def test_blocks_and_refusals(self, ds):
        key = kc.decide_lhs_chain(ds.schema).key
        blocks, num_blocks, named = reference_keyed(ds, key)
        if named is None:
            keyed = fastscan.as_keyed(ds)
            assert (keyed.block_of.tolist(), keyed.num_blocks) == (blocks, num_blocks)
            return
        first = ds.tuples[blocks.index(named)]
        cells = tuple(first[ds.schema.index(a)] for a in key)
        with pytest.raises(NotPrimaryKeyError) as err:
            fastscan.as_keyed(ds)
        assert str(err.value) == f"block {cells!r} holds identical rows"


class TestPrune:
    def test_fixture_pair_2_1(self, figure3):
        ds, ordering = figure3
        keyed = fastscan.as_keyed(ds)
        kept = fastscan.prune(keyed, "2", "1", ordering)
        assert [t + 1 for t in kept] == [3, 4, 7, 8, 9, 15, 16]

    def test_fixture_pair_3_1(self, figure3):
        ds, ordering = figure3
        keyed = fastscan.as_keyed(ds)
        kept = fastscan.prune(keyed, "3", "1", ordering)
        assert [t + 1 for t in kept] == [3, 4, 7, 9, 11, 16]

    @pytest.mark.parametrize("ell2, ell1", [("9", "1"), ("2", "9")])
    def test_unknown_label_rejected(self, figure3, ell2, ell1):
        ds, ordering = figure3
        with pytest.raises(kc.InputError, match="^unknown label '9'$"):
            fastscan.prune(fastscan.as_keyed(ds), ell2, ell1, ordering)

    def test_noop_when_no_rule_fires(self):
        schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
        rows = [((i, 0), "7") for i in range(4)]
        ds = kc.make_dataset(schema, rows, features=("K",), labels=("1", "2", "7"))
        ordering = kc.Ordering((0, 1, 2, 3))
        keyed = fastscan.as_keyed(ds)
        assert fastscan.prune(keyed, "2", "1", ordering) == (0, 1, 2, 3)

    def test_pruned_shape(self):
        # Every block keeps at most one tuple labeled ell1/ell2, always last,
        # and no block disappears.
        rng = random.Random(61)
        for _ in range(60):
            ds, ordering = helpers.random_keyed_instance(rng, n_max=12)
            if len(ds.labels) < 2:
                continue
            ell2, ell1 = rng.sample(ds.labels, 2)
            keyed = fastscan.as_keyed(ds)
            kept = fastscan.prune(keyed, ell2, ell1, ordering)
            blocks: dict = {}
            for pos, tid in enumerate(kept):
                blocks.setdefault(keyed.block_of[tid], []).append(pos)
            assert set(blocks) == set(range(keyed.num_blocks))
            for positions in blocks.values():
                special = [
                    p for p in positions if ds.row_labels[kept[p]] in (ell1, ell2)
                ]
                assert len(special) <= 1
                if special:
                    assert special[0] == positions[-1]

    def test_prune_transfer(self):
        # A repair where ell2 catches ell1 exists in the original instance
        # iff one exists in the pruned instance.
        rng = random.Random(67)
        for _ in range(50):
            ds, ordering = helpers.random_keyed_instance(rng, n_max=10)
            if len(ds.labels) < 2:
                continue
            ell2, ell1 = rng.sample(ds.labels, 2)
            k = rng.choice((1, 2, 3))
            keyed = fastscan.as_keyed(ds)
            kept = fastscan.prune(keyed, ell2, ell1, ordering)

            def catches(ids_pool):
                for repair in oracle.enumerate_repairs(ds, ids=ids_pool):
                    nbhd = [t for t in ordering.ranked if t in set(repair)][: min(k, len(repair))]
                    c2 = sum(1 for t in nbhd if ds.row_labels[t] == ell2)
                    c1 = sum(1 for t in nbhd if ds.row_labels[t] == ell1)
                    if c2 >= c1:
                        return True
                return False

            assert catches(list(ds.ids())) == catches(list(kept))


class TestFastscan:
    def test_fixture_trigger_state(self, figure3):
        ds, ordering = figure3
        keyed = fastscan.as_keyed(ds)
        kept = fastscan.prune(keyed, "3", "1", ordering)
        trig = fastscan.fastscan(keyed, "1", "3", 3, ordering, kept)
        assert trig is not None
        assert (trig.index, trig.target_count, trig.forced_ref_count) == (3, 2, 1)
        assert trig.blocks_closed == 3 and trig.blocks_seen == 3

    def test_single_incumbent_tuple_never_fires(self):
        schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
        ds = kc.make_dataset(schema, [((0, 0), "1")], features=("K",), labels=("1", "2"))
        ordering = kc.Ordering((0,))
        keyed = fastscan.as_keyed(ds)
        kept = fastscan.prune(keyed, "2", "1", ordering)
        assert fastscan.fastscan(keyed, "1", "2", 1, ordering, kept) is None

    def test_single_challenger_tuple_fires_immediately(self):
        schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
        ds = kc.make_dataset(schema, [((0, 0), "2")], features=("K",), labels=("1", "2"))
        ordering = kc.Ordering((0,))
        keyed = fastscan.as_keyed(ds)
        trig = fastscan.fastscan(keyed, "1", "2", 1, ordering)
        assert trig is not None and trig.index == 1


class TestCertifyPk:
    def test_fixture_not_robust(self, figure3):
        ds, ordering = figure3
        res = fastscan.certify_pk(ds, ordering, 3)
        assert not res.robust
        for ids, outcome in res.witnesses:
            assert kc.predict(ds, ids, ordering, 3) == outcome

    def test_uniform_label_is_robust(self):
        schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
        rows = [((i % 3, i), "5") for i in range(9)]
        ds = kc.make_dataset(schema, rows, features=("V",))
        ordering = kc.Ordering(tuple(range(9)))
        for k in (1, 2, 3, 7):
            res = fastscan.certify_pk(ds, ordering, k)
            assert res.robust and res.certain_label == "5"

    def test_ordering_of_another_length_rejected(self, figure3):
        ds, ordering = figure3
        shorter = kc.Ordering(tuple(range(ds.size - 1)))
        with pytest.raises(kc.InputError, match="^ordering must rank every tuple of the dataset$"):
            fastscan.certify_pk(ds, shorter, 3)

    def test_k_beyond_block_count_clamps(self):
        schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
        rows = [((0, 0), "0"), ((0, 1), "1"), ((1, 0), "1")]
        ds = kc.make_dataset(schema, rows, features=("V",))
        ordering = kc.Ordering((0, 1, 2))
        for k in (2, 5, 9):
            got = fastscan.certify_pk(ds, ordering, k)
            want = oracle.brute_certify(ds, ordering, k)
            assert got.robust == want.robust and got.certain_label == want.certain_label

    def test_matches_oracle_and_dp_on_randoms(self):
        rng = random.Random(71)
        for _ in range(120):
            ds, ordering = helpers.random_keyed_instance(
                rng, n_max=12, extra_attr=bool(rng.getrandbits(1))
            )
            k = rng.choice((1, 2, 3, 5))
            got = fastscan.certify_pk(ds, ordering, k)
            dp = certify_dp.certify(ds, ordering, k)
            want = oracle.brute_certify(ds, ordering, k)
            assert got.robust == dp.robust == want.robust
            assert got.certain_label == dp.certain_label == want.certain_label

    def test_witness_failing_reverification_raises(self, figure3, monkeypatch):
        # The greedy repair predicts the incumbent, so it can never be a witness.
        ds, ordering = figure3
        monkeypatch.setattr(
            fastscan, "_build_witness", lambda keys, labels, verdict, k: verdict.greedy
        )
        with pytest.raises(AssertionError, match="still predicts '1'"):
            fastscan.certify_pk(ds, ordering, 3)


class TestArrayPath:
    def test_matches_object_path(self):
        rng = random.Random(73)
        for _ in range(60):
            ds, ordering = helpers.random_keyed_instance(rng, n_max=12)
            k = rng.choice((1, 2, 3, 5))
            keys = np.fromiter(
                (fastscan.as_keyed(ds).block_of[t] for t in ordering.ranked), np.int64, ds.size
            )
            lab_code = {lab: i for i, lab in enumerate(ds.labels)}
            labels = np.fromiter(
                (lab_code[ds.row_labels[t]] for t in ordering.ranked), np.int64, ds.size
            )
            verdict = fastscan.certify_pk_arrays(keys, labels, k)
            want = fastscan.certify_pk(ds, ordering, k)
            assert verdict.robust == want.robust

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)), min_size=1, max_size=40),
           st.integers(1, 6))
    def test_int32_positions_match_int64(self, cells, k):
        keys = np.array([key for key, _ in cells], dtype=np.int64)
        labels = np.array([label for _, label in cells], dtype=np.int64)
        narrow = fastscan.certify_pk_arrays(keys, labels, k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fastscan, "_NARROW_BELOW", 0)
            wide = fastscan.certify_pk_arrays(keys, labels, k)
        if narrow.greedy is not None:
            assert (narrow.greedy.dtype, wide.greedy.dtype) == (np.int32, np.int64)
        for field in ("robust", "incumbent", "challenger", "trigger"):
            assert getattr(narrow, field) == getattr(wide, field)
        for field in ("greedy", "kept"):
            got, want = getattr(narrow, field), getattr(wide, field)
            assert (got is None and want is None) or got.tolist() == want.tolist()

    def test_linearity_smoke(self):
        # Same shape as the acceptance perf check, at friendlier sizes.
        def build(n):
            keys = np.repeat(np.arange(n // 2, dtype=np.int64), 2)
            labels = np.zeros(n, dtype=np.int64)
            labels[-max(2, n // 100) :] = 1
            return keys, labels

        def scan_time(n):
            keys, labels = build(n)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                fastscan.certify_pk_arrays(keys, labels, 5)
                best = min(best, time.perf_counter() - t0)
            return best

        scan_time(10_000)  # warm-up
        small, big = scan_time(100_000), scan_time(200_000)
        assert big <= small * 4  # generous: smoke only
