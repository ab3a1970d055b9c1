import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knncert as kc
from knncert import InputError, fastscan, oracle
from knncert.dataset import Column, _check_power_cost

import helpers


def simple_dataset(values_rows, labels, features=("A",)):
    d = len(values_rows[0])
    schema = kc.FdSchema.of(helpers.ATTR_POOL[:d], [])
    rows = list(zip(values_rows, labels))
    return kc.make_dataset(schema, rows, features=features)


class TestColumns:
    def test_numeric_columns_share_one_scale(self):
        schema = kc.FdSchema.of(("A", "B", "C"), [])
        rows = [((1, Fraction(1, 2), "x"), "0", 2), ((Fraction(3, 4), 2, 5), "1")]
        ds = kc.make_dataset(schema, rows, features=("A",))
        assert [(list(c.data), c.scale) for c in ds.columns] == [
            ([4, 3], 4), ([1, 4], 2), (["x", 5], None)
        ]
        assert ds.row_labels == ("0", "1")
        assert (list(ds.weights.data), ds.weights.scale) == ([2, 1], 1)
        values = list(ds.tuples)
        assert values == [(1, Fraction(1, 2), "x"), (Fraction(3, 4), 2, 5)]
        assert [type(v) for v in values[0]] == [int, Fraction, str]

    def test_constructor_rebuilds_the_same_columns(self, example1):
        ds, _, _ = example1
        rows = list(zip(ds.tuples, ds.row_labels, ds.weights.values()))
        again = kc.make_dataset(ds.schema, rows, ds.features, ds.labels)
        assert [(list(c.data), c.scale) for c in again.columns] == [
            (list(c.data), c.scale) for c in ds.columns
        ]
        assert again.tuples == ds.tuples
        assert again.row_labels == ds.row_labels
        assert again.weights.values() == ds.weights.values()

    def test_given_alphabet_is_read_as_strings(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), 0), ((2,), 1)], ("A",), labels=[0, 1])
        assert ds.labels == ("0", "1") and ds.row_labels == ("0", "1")


class TestMakeDatasetRefusals:
    SCHEMA = kc.FdSchema.of(("A", "B"), [])

    @pytest.mark.parametrize("weight", [0, -1, Fraction(-1, 2)])
    def test_weight_must_be_positive(self, weight):
        rows = [((1, 2), "0"), ((3, 4), "1", weight)]
        with pytest.raises(InputError, match="^tuple 1: weight must be positive$"):
            kc.make_dataset(self.SCHEMA, rows, ("A",))

    @pytest.mark.parametrize("values", [(1,), (1, 2, 3), ()])
    def test_arity_mismatch(self, values):
        rows = [((1, 2), "0"), (values, "1")]
        with pytest.raises(InputError, match="^tuple 1: arity mismatch$"):
            kc.make_dataset(self.SCHEMA, rows, ("A",))

    def test_every_weight_is_checked_before_any_arity(self):
        rows = [((1,), "0"), ((3, 4), "1", 0)]
        with pytest.raises(InputError, match="^tuple 1: weight must be positive$"):
            kc.make_dataset(self.SCHEMA, rows, ("A",))


class TestConstructor:
    SCHEMA = kc.FdSchema.of(("A", "B"), [])

    def build(self, **change):
        fields = dict(
            schema=self.SCHEMA,
            columns=(Column.of([1, 2]), Column.of(["x", "y"])),
            row_labels=("0", "1"),
            weights=Column.of([1, 2]),
            labels=("0", "1"),
            features=("A",),
        )
        fields.update(change)
        return kc.LabeledDataset(**fields)

    def test_well_formed(self):
        ds = self.build()
        assert ds.size == 2 and ds.tuples[1] == (2, "y")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"columns": (Column.of([1, 2]),)}, "one column per schema attribute is required"),
            ({"columns": (Column.of([1, 2]), Column.of(["x"]))},
             "columns, labels and weights must have one entry per row"),
            ({"weights": Column.of([1])},
             "columns, labels and weights must have one entry per row"),
            ({"labels": ("1", "0")}, "label alphabet must be sorted and distinct"),
            ({"labels": ("0", "0", "1")}, "label alphabet must be sorted and distinct"),
            ({"labels": ("0",)}, "labels outside alphabet: ['1']"),
            ({"features": ("C",)}, "unknown attribute: 'C'"),
        ],
    )
    def test_refusal(self, change, message):
        with pytest.raises(InputError) as info:
            self.build(**change)
        assert str(info.value) == message

    def test_compares_by_identity(self):
        a, b = self.build(), self.build()
        assert a != b and a == a and len({a, b}) == 2


class TestDistance:
    def test_l1_unit(self):
        ds = simple_dataset([(1, 0)], ["0"], features=("A", "B"))
        x = kc.TestPoint((0, 0))
        assert kc.surrogate_distance(x, ds, 0, 1) == 1

    def test_l2_three_four_five(self):
        ds = simple_dataset([(3, 4)], ["0"], features=("A", "B"))
        x = kc.TestPoint((0, 0))
        assert kc.surrogate_distance(x, ds, 0, 2) == 25

    def test_example_distances(self, example1):
        ds, x, _ = example1
        got = [kc.surrogate_distance(x, ds, t, 1) for t in ds.ids()]
        assert got == [1, 3, 2, 7, 4, 6]

    def test_rejects_symbolic_feature(self):
        ds = simple_dataset([("a",)], ["0"])
        with pytest.raises(InputError):
            kc.surrogate_distance(kc.TestPoint((0,)), ds, 0, 1)

    def test_rejects_bad_p(self):
        ds = simple_dataset([(1,)], ["0"])
        with pytest.raises(InputError):
            kc.surrogate_distance(kc.TestPoint((0,)), ds, 0, 0)


class TestOrdering:
    def test_example_order(self, example1):
        ds, x, ordering = example1
        assert ordering.ranked == (0, 2, 1, 4, 5, 3)

    def test_all_ties_fall_back_to_id_order(self):
        ds = simple_dataset([(1,), (1,), (1,)], ["0", "1", "0"])
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 2)
        assert ordering.ranked == (0, 1, 2)

    def test_single_tuple(self):
        ds = simple_dataset([(5,)], ["0"])
        assert kc.order_by_distance(ds, kc.TestPoint((0,)), 1).ranked == (0,)

    def test_rescaling_invariance_without_ties(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 8)
            values = rng.sample(range(100), n)
            ds = simple_dataset([(v,) for v in values], ["0"] * n)
            x = kc.TestPoint((0,))
            base = kc.order_by_distance(ds, x, 1).ranked
            scale = rng.randint(2, 9)
            scaled = simple_dataset([(v * scale,) for v in values], ["0"] * n)
            assert kc.order_by_distance(scaled, x, 1).ranked == base

    def test_non_numeric_error_names_lowest_id(self):
        ds = simple_dataset([(1, 2), (3, "b"), ("a", 4)], ["0", "0", "1"], features=("A", "B"))
        with pytest.raises(InputError, match=r"^non-numeric feature value in tuple 1$"):
            kc.order_by_distance(ds, kc.TestPoint((0, 0)), 2)

    def test_bad_p_rejected_up_front(self):
        ds = simple_dataset([(1,), (2,)], ["0", "1"])
        for p in (0, -1, 1.5):
            with pytest.raises(InputError, match=r"^p must be an integer >= 1$"):
                kc.order_by_distance(ds, kc.TestPoint((0,)), p)

    def test_rank_of_is_one_based(self, example1):
        _, _, ordering = example1
        assert ordering.rank_of[0] == 1
        assert ordering.rank_of[3] == 6

    @pytest.mark.parametrize(
        "ranked",
        [(0, 1, 1), (0, 1, 3), (-1, 0, 1), (0, 0.5, 1), ("a", 0), (1.0, 0.0),
         (Fraction(1), 0)],
        ids=["duplicate", "gap", "minus-one", "half", "unorderable", "floats", "fraction"],
    )
    def test_non_permutation_rejected(self, ranked):
        with pytest.raises(InputError, match=r"^ordering must be a permutation of 0\.\.n-1$"):
            kc.Ordering(ranked)

    def test_permutation_accepted(self):
        assert kc.Ordering((2, 0, 1)).rank_of == (2, 3, 1)
        assert kc.Ordering(()).ranked == ()

    def test_integer_ids_of_other_types_accepted(self):
        np = pytest.importorskip("numpy")
        assert kc.Ordering((True, False)).rank_of == (2, 1)
        assert kc.Ordering(tuple(np.array([1, 2, 0]))).rank_of == (3, 1, 2)
        assert kc.Ordering((np.int32(1), 0)).rank_of == (2, 1)


# Cells for the ordering property: small ints tie often, huge ints pass
# 2^63, and fractions with large coprime denominators make the lcm large.
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**80), 2**80),
    st.fractions(min_value=-10, max_value=10, max_denominator=50),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**9)),
)


@st.composite
def ordering_instances(draw, symbols=False):
    d = draw(st.integers(1, 3))
    pool = draw(st.lists(NUMBERS, min_size=1, max_size=4))
    cell = st.one_of(st.sampled_from(pool), NUMBERS)
    if symbols:
        cell = st.one_of(cell, st.just("sym"))
    n = draw(st.integers(1 if symbols else 0, 24))
    rows = [tuple(draw(cell) for _ in range(d)) for _ in range(n)]
    coord = st.one_of(st.sampled_from(pool), NUMBERS)
    x = kc.TestPoint(tuple(draw(coord) for _ in range(d)))
    schema = kc.FdSchema.of(helpers.ATTR_POOL[:d], [])
    ds = kc.make_dataset(schema, [(r, "0") for r in rows], features=helpers.ATTR_POOL[:d])
    return ds, x


def rational_order(ds, x, p):
    """The reference ranking: exact Fraction distances, ties by id."""

    def key(i):
        return kc.surrogate_distance(x, ds, i, p), i

    return tuple(sorted(ds.ids(), key=key))


class TestOrderingMatchesRationalSurrogate:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(ordering_instances(), st.sampled_from((1, 2, 3)))
    def test_same_order(self, inst, p):
        # Cells past 2^63 and large scales send rank_by_distance to the
        # Python ints, small ones to int64: both must rank as Fractions do.
        ds, x = inst
        want = rational_order(ds, x, p)
        assert kc.order_by_distance(ds, x, p).ranked == want
        assert fastscan.rank_by_distance(ds, x, p).ranked == want

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(ordering_instances(symbols=True), st.sampled_from((1, 2)))
    def test_same_error_on_symbols(self, inst, p):
        ds, x = inst
        try:
            want = rational_order(ds, x, p)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                kc.order_by_distance(ds, x, p)
            assert str(got.value) == str(exc)
        else:
            assert kc.order_by_distance(ds, x, p).ranked == want


class TestPowerBudget:
    """``order_by_distance`` refuses a p whose powers would take too long
    to form, before it forms any of them."""

    def test_a_cell_five_away_refuses_p_two_to_the_63(self):
        ds = simple_dataset([(5,), (0,)], ["0", "1"])
        with pytest.raises(InputError, match=f"^p = {2**63} is too large"):
            kc.order_by_distance(ds, kc.TestPoint((0,)), 2**63)

    def test_cells_within_one_take_any_p(self):
        ds = simple_dataset([(1,), (0,), (-1,), (1,)], ["0"] * 4)
        assert kc.order_by_distance(ds, kc.TestPoint((0,)), 2**200).ranked == (1, 0, 2, 3)
        empty = kc.make_dataset(kc.FdSchema.of(("A",), []), [], features=("A",), labels=("0",))
        assert kc.order_by_distance(empty, kc.TestPoint((0,)), 2**200).ranked == ()

    def test_the_budget_counts_rows_and_the_widest_column(self):
        # 3**(2**20) has at least 2**20 + 1 bits: (2**20)**1.6 = 2**32 per row.
        _check_power_cost(1, 2**20, [0, 3])
        _check_power_cost(2**5, 2**20, [3, 1])
        with pytest.raises(InputError, match="^p = 1048576 is too large: 128 distances"):
            _check_power_cost(2**7, 2**20, [1, 3])
        _check_power_cost(10**9, 2**1000, [0, 1])


class TestInt64Ranking:
    """``fastscan.rank_by_distance`` sums in int64 only below 2^63."""

    @staticmethod
    def ranks(rows, point, p=1):
        attrs = helpers.ATTR_POOL[:len(point)]
        ds = kc.make_dataset(kc.FdSchema.of(attrs, []), [(r, "0") for r in rows], features=attrs)
        x = kc.TestPoint(point)
        assert fastscan.rank_by_distance(ds, x, p).ranked == rational_order(ds, x, p)
        return fastscan._int64_distances(ds, x, p)

    def test_a_sum_of_two_to_the_63_minus_one_stays_in_int64(self):
        dist = self.ranks([(2**62, 2**62 - 1), (0, 0), (1, 0), (2**62, 2**62 - 2)], (0, 0))
        assert dist is not None and dist.tolist() == [2**63 - 1, 0, 1, 2**63 - 2]

    def test_a_sum_of_two_to_the_63_takes_the_python_ints(self):
        # In int64 the first distance would wrap to -2^63 and rank first.
        assert self.ranks([(2**62, 2**62), (0, 0), (1, 0)], (0, 0)) is None

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_the_bound_includes_the_power(self, p):
        # The farthest cell, 2^21, is 3 * 2^20 from the point at -2^20.
        reach = 3 * 2**20
        dist = self.ranks([(2**21,), (-(2**20) + 1,), (5,), (-(2**20) - 1,)], (-(2**20),), p)
        fits = reach**p < 2**63
        assert (dist is not None) == fits

    def test_a_scaled_cell_past_int64_takes_the_python_ints(self):
        # The cells fit, but the point's denominator scales 2^62 past 2^63.
        assert self.ranks([(2**62,), (0,)], (Fraction(1, 3),)) is None

    def test_a_point_at_two_to_the_63_takes_the_python_ints(self):
        # Every |dx| is small, but the coordinate itself is not an int64.
        assert self.ranks([(2**63 - 1,), (2**63 - 2,)], (2**63,)) is None
        assert self.ranks([(2**63 - 1,), (2**63 - 2,)], (2**63 - 1,)) is not None

    def test_a_list_column_takes_the_python_ints(self):
        # A column with one cell past int64 is kept in a list, not array('q').
        rows = [(2**64,), (3,), (-(2**70),), (3,)]
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [(r, "0") for r in rows], features=("A",))
        assert isinstance(ds.columns[0].data, list)
        assert self.ranks(rows, (0,)) is None

    def test_ties_keep_ascending_ids(self):
        # Thousands of rows on a few distances: an unstable sort would
        # reorder the tied ids.
        rng = random.Random(3)
        rows = [(rng.choice((-1, 0, 1, 2)),) for _ in range(3000)]
        assert self.ranks(rows, (0,), 2) is not None

    def test_a_power_past_int64_takes_the_python_ints(self):
        # Every |dx| is 0 or 1, so the bound holds, but numpy cannot take
        # 2^63 as an exponent.
        assert self.ranks([(1,), (0,), (-1,), (1,)], (0,), 2**63) is None
        assert self.ranks([(1,), (0,), (-1,), (1,)], (0,), 2**63 - 1) is not None

    def test_a_factor_past_int64_takes_the_python_ints(self):
        # Zero cells bound every product by 0, but the point's denominator
        # makes the column's factor 2^63 + 1, which numpy cannot take.
        assert self.ranks([(0,), (0,), (0,)], (Fraction(1, 2**63 + 1),)) is None
        assert self.ranks([(0,), (0,), (0,)], (Fraction(1, 2**63 - 1),)) is not None

    def test_errors_are_those_of_order_by_distance(self):
        symbols = [(1,), ("sym",)]
        for rows, x, p in [
            (symbols, (0,), 1),
            (symbols, (0, 1), 1),
            (symbols, (0,), 0),
            # A cell 5 away: the power budget refuses p = 2^63 in the
            # Python ints, which the int64 ranker falls back to.
            ([(5,), (0,)], (0,), 2**63),
            ([(1,), (2,)], ("sym",), 1),
            # The column's first symbol is at id 2, and the error names it.
            ([(1,), (Fraction(1, 2),), ("sym",), ("other",)], (0,), 2),
        ]:
            ds = simple_dataset(rows, ["0"] * len(rows))
            with pytest.raises(InputError) as want:
                kc.order_by_distance(ds, kc.TestPoint(x), p)
            with pytest.raises(InputError, match=f"^{re.escape(str(want.value))}$"):
                fastscan.rank_by_distance(ds, kc.TestPoint(x), p)

    def test_an_empty_dataset_ranks_no_ids(self):
        empty = kc.make_dataset(kc.FdSchema.of(("A",), []), [], features=("A",), labels=("0",))
        for rank in (kc.order_by_distance, fastscan.rank_by_distance):
            assert rank(empty, kc.TestPoint((0,)), 2) == kc.Ordering(())


class TestConflicts:
    def test_same_lhs_different_rhs(self, example1):
        ds, _, _ = example1
        assert kc.conflicts(ds.tuples[0], ds.tuples[1], ds.schema)

    def test_different_lhs(self, example1):
        ds, _, _ = example1
        assert not kc.conflicts(ds.tuples[0], ds.tuples[2], ds.schema)

    def test_self_conflict_impossible(self, example1):
        ds, _, _ = example1
        assert not kc.conflicts(ds.tuples[0], ds.tuples[0], ds.schema)

    def test_consensus_fd(self):
        schema = kc.FdSchema.of(("A", "B"), [([], ["A"])])
        ds = kc.make_dataset(schema, [((1, 1), "0"), ((2, 1), "0"), ((1, 2), "0")], features=("A",))
        assert kc.conflicts(ds.tuples[0], ds.tuples[1], schema)
        assert not kc.conflicts(ds.tuples[0], ds.tuples[2], schema)


class TestKnnPredict:
    def test_example_repair(self, example1):
        ds, _, ordering = example1
        out = kc.predict(ds, (0, 2, 4, 5), ordering, 3)
        assert out == kc.PredictOutcome.of_label("0")

    def test_k1_single(self):
        ds = simple_dataset([(1,)], ["7"])
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        assert kc.predict(ds, (0,), ordering, 1).is_label("7")

    def test_equal_weights_tie(self):
        ds = simple_dataset([(1,), (2,)], ["0", "1"])
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        assert kc.predict(ds, (0, 1), ordering, 2) == kc.PredictOutcome.TIE

    def test_empty(self):
        ds = simple_dataset([(1,)], ["0"])
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        assert kc.predict(ds, (), ordering, 1) == kc.PredictOutcome.EMPTY

    def test_small_subset_uses_everything(self):
        ds = simple_dataset([(1,), (2,), (3,)], ["0", "1", "1"])
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        assert kc.predict(ds, (1, 2), ordering, 5).is_label("1")

    def test_unit_weights_match_unweighted(self):
        rng = random.Random(5)
        for _ in range(30):
            ds, ordering = helpers.random_chain_instance(rng, n_max=8)
            ids = tuple(t for t in ds.ids() if rng.random() < 0.7)
            k = rng.choice((1, 2, 3))
            assert kc.predict(ds, ids, ordering, k) == kc.predict(
                ds, ids, ordering, k, weighted=True
            )

    def test_weighted_majority(self):
        schema = kc.FdSchema.of(("A",), [])
        rows = [((1,), "0", Fraction(5)), ((2,), "1", Fraction(1)), ((3,), "1", Fraction(1))]
        ds = kc.make_dataset(schema, rows, features=("A",))
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        assert kc.predict(ds, (0, 1, 2), ordering, 3, weighted=True).is_label("0")
        assert kc.predict(ds, (0, 1, 2), ordering, 3).is_label("1")


class TestGreedyRepair:
    def test_example(self, example1):
        ds, _, ordering = example1
        assert kc.greedy_repair(ds, ordering) == (0, 2, 4, 5)

    def test_consistent_dataset_kept_whole(self):
        ds = simple_dataset([(1,), (2,), (3,)], ["0", "1", "0"])
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        assert kc.greedy_repair(ds, ordering) == (0, 1, 2)

    def test_empty(self):
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [], ("A",))
        assert kc.greedy_repair(ds, kc.Ordering(())) == ()

    def test_output_is_maximal_consistent(self):
        rng = random.Random(9)
        for _ in range(50):
            ds, ordering = helpers.random_chain_instance(rng, n_max=10)
            repair = kc.greedy_repair(ds, ordering)
            members = [ds.tuples[t] for t in repair]
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    assert not kc.conflicts(a, b, ds.schema)
            for out in set(ds.ids()) - set(repair):
                assert any(
                    kc.conflicts(ds.tuples[out], m, ds.schema) for m in members
                ), "greedy repair missed an addable tuple"

    def test_greedy_is_one_of_the_enumerated_repairs(self):
        rng = random.Random(15)
        for _ in range(30):
            ds, ordering = helpers.random_chain_instance(rng, n_max=9)
            repair = kc.greedy_repair(ds, ordering)
            assert repair in oracle.enumerate_repairs(ds)
