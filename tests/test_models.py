import itertools
import random
from fractions import Fraction

import pytest

import helpers
import knncert as kc
from knncert import InputError, fastscan, ingest, models, oracle


def plain_dataset(rng, n, max_labels=3):
    schema = kc.FdSchema.of(("A", "B"), [])
    alphabet = [str(i) for i in range(rng.randint(2, max_labels))]
    rows = []
    seen = set()
    for _ in range(n):
        while True:
            v = (rng.randint(0, 9), rng.randint(0, 9))
            if v not in seen:
                seen.add(v)
                break
        rows.append((v, rng.choice(alphabet)))
    ds = kc.make_dataset(schema, rows, features=("A", "B"), labels=alphabet)
    ranked = list(ds.ids())
    rng.shuffle(ranked)
    return ds, kc.Ordering(tuple(ranked))


def brute_qset(q, ordering, k):
    worlds = oracle.enumerate_qset_worlds(q.dataset, q.uncertain, q.budget)
    outcomes = [kc.predict(q.dataset, w, ordering, k) for w in worlds]
    first = outcomes[0]
    return first.kind == "label" and all(o == first for o in outcomes)


class TestQsetCertify:
    def test_budget_zero_is_plain_prediction(self):
        rng = random.Random(1)
        ds, ordering = plain_dataset(rng, 6)
        q = models.QSetInstance(ds, frozenset(ds.ids()), 0)
        res = models.qset_certify(q, ordering, 3)
        assert res.robust == kc.predict(ds, ds.ids(), ordering, 3).is_label()

    def test_empty_uncertain_set(self):
        rng = random.Random(2)
        ds, ordering = plain_dataset(rng, 5)
        q = models.QSetInstance(ds, frozenset(), 0)
        res = models.qset_certify(q, ordering, 2)
        assert res.robust == kc.predict(ds, ds.ids(), ordering, 2).is_label()

    def test_matches_world_enumeration(self):
        rng = random.Random(3)
        for _ in range(150):
            n = rng.randint(2, 12)
            ds, ordering = plain_dataset(rng, n)
            uncertain = frozenset(rng.sample(list(ds.ids()), rng.randint(0, n)))
            budget = rng.randint(0, min(3, len(uncertain)))
            k = rng.randint(1, max(1, n - budget))
            q = models.QSetInstance(ds, uncertain, budget)
            got = models.qset_certify(q, ordering, k)
            assert got.robust == brute_qset(q, ordering, k)

    def test_witness_world_respects_budget(self):
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randint(3, 12)
            ds, ordering = plain_dataset(rng, n)
            budget = rng.randint(1, min(3, n - 1))
            k = rng.randint(1, n - budget)
            q = models.QSetInstance(ds, frozenset(ds.ids()), budget)
            res = models.qset_certify(q, ordering, k)
            if not res.robust and len(res.witnesses) == 2:
                world, outcome = res.witnesses[1]
                assert n - len(world) <= budget
                assert kc.predict(ds, world, ordering, k) == outcome

    def test_robustness_monotone_in_budget(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(3, 10)
            ds, ordering = plain_dataset(rng, n)
            budget = rng.randint(1, min(3, n - 1))
            k = rng.randint(1, n - budget)
            q_hi = models.QSetInstance(ds, frozenset(ds.ids()), budget)
            q_lo = models.QSetInstance(ds, frozenset(ds.ids()), budget - 1)
            if models.qset_certify(q_hi, ordering, k).robust:
                assert models.qset_certify(q_lo, ordering, k).robust

    def test_witness_failing_reverification_raises(self, monkeypatch):
        # Deleting nothing leaves the whole dataset, whose vote is the incumbent.
        schema = kc.FdSchema.of(("A",), [])
        ds = kc.make_dataset(schema, [((1,), "0"), ((2,), "0"), ((3,), "1")], features=("A",))
        ordering = kc.order_by_distance(ds, kc.TestPoint((0,)), 1)
        q = models.QSetInstance(ds, frozenset(ds.ids()), 1)
        monkeypatch.setattr(models, "_qset_scan", lambda *args: [])
        with pytest.raises(AssertionError, match="still predicts '0'"):
            models.qset_certify(q, ordering, 2)

    @pytest.mark.parametrize("uncertain", [{5}, {0, 9}, {-1}],
                             ids=["past-end", "one-of-two", "minus-one"])
    def test_ids_outside_the_dataset_rejected(self, uncertain):
        ds, _ = plain_dataset(random.Random(7), 5)
        with pytest.raises(InputError, match="^uncertain ids outside the dataset$"):
            models.QSetInstance(ds, frozenset(uncertain), 0)

    def test_k_must_leave_full_neighborhoods(self):
        rng = random.Random(6)
        ds, ordering = plain_dataset(rng, 4)
        q = models.QSetInstance(ds, frozenset(ds.ids()), 2)
        with pytest.raises(InputError):
            models.qset_certify(q, ordering, 3)


class TestOrsetExpand:
    def test_two_choices_make_two_tuples(self):
        keyed = models.orset_expand(
            helpers.uncertain_table(("A", "B"), [((models.OrSetCell((2, 5)), 7), "0")]),
            features=("A", "B"),
        )
        assert keyed.dataset.size == 2
        values = set(keyed.dataset.tuples)
        assert values == {(2, 7, 0), (5, 7, 0)}

    def test_plain_rows_stay_single(self):
        keyed = models.orset_expand(helpers.uncertain_table(("A",), [((1,), "0"), ((2,), "1")]),
                                    features=("A",))
        assert keyed.dataset.size == 2
        assert keyed.num_blocks == 2

    def test_expansion_size_formula(self):
        rng = random.Random(7)
        for _ in range(30):
            rows = []
            expected = 0
            for _ in range(rng.randint(1, 4)):
                cells = []
                count = 1
                for _ in range(2):
                    if rng.random() < 0.5:
                        choices = tuple(rng.sample(range(6), rng.randint(1, 3)))
                        cells.append(models.OrSetCell(choices))
                        count *= len(set(choices))
                    else:
                        cells.append(rng.randint(0, 5))
                rows.append(((cells[0], cells[1]), str(rng.randint(0, 1))))
                expected += count
            keyed = models.orset_expand(helpers.uncertain_table(("A", "B"), rows),
                                        features=("A", "B"))
            assert keyed.dataset.size == expected

    def test_same_row_realizations_conflict(self):
        keyed = models.orset_expand(
            helpers.uncertain_table(("A",), [((models.OrSetCell((1, 2, 3)),), "0")]),
            features=("A",),
        )
        ds = keyed.dataset
        for a, b in itertools.combinations(ds.ids(), 2):
            assert kc.conflicts(ds.tuples[a], ds.tuples[b], ds.schema)

    def test_certify_matches_realization_enumeration(self):
        rng = random.Random(8)
        for _ in range(60):
            n_rows = rng.randint(1, 5)
            rows = []
            for _ in range(n_rows):
                cells = []
                for _ in range(2):
                    if rng.random() < 0.6:
                        cells.append(
                            models.OrSetCell(tuple(rng.sample(range(5), rng.randint(1, 3))))
                        )
                    else:
                        cells.append(rng.randint(0, 4))
                rows.append((tuple(cells), str(rng.randint(0, 1))))
            x = kc.TestPoint((0, 0))
            p = rng.choice((1, 2))
            k = rng.randint(1, n_rows)

            keyed = models.orset_expand(helpers.uncertain_table(("A", "B"), rows),
                                        features=("A", "B"))
            ordering = kc.order_by_distance(keyed.dataset, x, p)
            got = fastscan.certify_pk(keyed, ordering, k)

            # Brute force over all realization choices.
            options = []
            for cells, label in rows:
                opts = [
                    c.distinct() if isinstance(c, models.OrSetCell) else (c,) for c in cells
                ]
                options.append([(tuple(v), label) for v in itertools.product(*opts)])
            outcomes = set()
            schema = kc.FdSchema.of(("A", "B"), [])
            for combo in itertools.product(*options):
                world = kc.make_dataset(schema, list(combo), features=("A", "B"))
                w_ord = kc.order_by_distance(world, x, p)
                outcomes.add(kc.predict(world, world.ids(), w_ord, k))
            want = len(outcomes) == 1 and next(iter(outcomes)).kind == "label"
            assert got.robust == want


class TestCoddCells:
    def test_min_clamps_max_takes_far_endpoint(self):
        near, far = models._completion_pair(
            (models.CoddCell(Fraction(2), Fraction(5)),),
            kc.TestPoint((0,)),
            ("A",),
            ("A",),
        )
        assert near == (2,) and far == (5,)

    def test_point_inside_interval(self):
        near, far = models._completion_pair(
            (models.CoddCell(Fraction(-3), Fraction(2)),),
            kc.TestPoint((0,)),
            ("A",),
            ("A",),
        )
        assert near == (0,)
        assert far == (-3,)

    def test_far_tie_prefers_high(self):
        near, far = models._completion_pair(
            (models.CoddCell(Fraction(-2), Fraction(2)),),
            kc.TestPoint((0,)),
            ("A",),
            ("A",),
        )
        assert near == (0,) and far == (2,)

    def test_interval_outside_the_features_completes_at_its_low_end(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text('A,B,label\n1,"[2,9]",0\n3,4,1\n')
        table = ingest.load_dataset(str(data), None, (), read=ingest.parse_cell)[0]
        keyed, roles = models.codd_extremal_instance(table, kc.TestPoint((0,)), ("A",))
        assert roles == ((0, "only"), (1, "only"))
        assert keyed.dataset.columns[1].value(0) == 2

    def test_bad_interval_rejected(self):
        with pytest.raises(InputError, match="^interval low must not exceed high$"):
            models.CoddCell(Fraction(3), Fraction(1))

    def test_sampled_completions_stay_inside_extremes(self):
        rng = random.Random(9)
        for _ in range(20):
            lo = rng.randint(-5, 3)
            hi = lo + rng.randint(0, 6)
            cell = models.CoddCell(Fraction(lo), Fraction(hi))
            xi = Fraction(rng.randint(-4, 4))
            p = rng.choice((1, 2))
            near, far = models._completion_pair(
                (cell,), kc.TestPoint((xi,)), ("A",), ("A",)
            )
            lo_d = abs(xi - near[0]) ** p
            hi_d = abs(xi - far[0]) ** p
            for _ in range(200):
                y = Fraction(rng.randint(lo * 4, hi * 4), 4) if hi > lo else Fraction(lo)
                if not lo <= y <= hi:
                    continue
                d = abs(xi - y) ** p
                assert lo_d <= d <= hi_d


class TestCoddCertify:
    def test_no_missing_values_is_plain_knn(self):
        rows = [((1, 1), "0"), ((2, 2), "0"), ((3, 3), "1")]
        res = helpers.codd_certify(("A", "B"), rows, kc.TestPoint((0, 0)), 2, 1, ("A", "B"))
        assert res.robust and res.certain_label == "0"

    def test_matches_discretized_brute_force(self):
        rng = random.Random(10)
        for _ in range(50):
            n_rows = rng.randint(1, 5)
            rows = []
            for _ in range(n_rows):
                cells = []
                for _ in range(2):
                    if rng.random() < 0.5:
                        lo = rng.randint(0, 4)
                        cells.append(models.CoddCell(Fraction(lo), Fraction(lo + rng.randint(0, 3))))
                    else:
                        cells.append(rng.randint(0, 5))
                rows.append((tuple(cells), str(rng.randint(0, 1))))
            x = kc.TestPoint((rng.randint(0, 3), rng.randint(0, 3)))
            p = rng.choice((1, 2))
            k = rng.randint(1, n_rows)
            got = helpers.codd_certify(("A", "B"), rows, x, k, p, ("A", "B"))

            options = []
            for cells, label in rows:
                opts = [
                    tuple(range(int(c.low), int(c.high) + 1))
                    if isinstance(c, models.CoddCell)
                    else (c,)
                    for c in cells
                ]
                options.append([(tuple(v), label) for v in itertools.product(*opts)])
            schema = kc.FdSchema.of(("A", "B"), [])
            outcomes = set()
            for combo in itertools.product(*options):
                world = kc.make_dataset(schema, list(combo), features=("A", "B"))
                w_ord = kc.order_by_distance(world, x, p)
                outcomes.add(kc.predict(world, world.ids(), w_ord, k))
            want = len(outcomes) == 1 and next(iter(outcomes)).kind == "label"
            assert got.robust == want


EXPANDERS = {
    "orset": lambda attrs, rows: models.orset_expand(helpers.uncertain_table(attrs, rows), ("A",)),
    "codd": lambda attrs, rows: models.codd_extremal_instance(
        helpers.uncertain_table(attrs, rows), kc.TestPoint((0,)), ("A",)
    ),
}

# A cell of the other model, per expander, with the message that refuses it.
FOREIGN = {
    "orset": (models.CoddCell(Fraction(1), Fraction(3)),
              "interval cells are not allowed in orset-certify input"),
    "codd": (models.OrSetCell((1, 3)), "or-set cells are not allowed in codd-certify input"),
}


class TestExpansionRefusals:
    @pytest.mark.parametrize("model", sorted(EXPANDERS))
    def test_id_attribute_already_present(self, model):
        with pytest.raises(InputError, match="^attribute 'id' already present$"):
            EXPANDERS[model](("A", "id"), [((1, 2), "0")])

    @pytest.mark.parametrize("model", sorted(EXPANDERS))
    def test_row_arity_mismatch(self, model):
        # A dataset cannot be ragged: the table is refused before expansion.
        with pytest.raises(InputError, match="^tuple 0: arity mismatch$"):
            EXPANDERS[model](("A", "B"), [((1,), "0"), ((1, 2), "0")])

    def test_orset_expansion_over_cap(self):
        rows = [((models.OrSetCell((1, 2)),), "0"), ((models.OrSetCell((3, 4)),), "1")]
        table = helpers.uncertain_table(("A",), rows)
        assert models.orset_expand(table, ("A",), cap=4).dataset.size == 4
        with pytest.raises(kc.CapExceededError, match="^or-set expansion exceeds cap 3$"):
            models.orset_expand(table, ("A",), cap=3)

    def test_an_or_set_offers_a_value(self):
        with pytest.raises(InputError, match="^or-set must offer at least one value$"):
            models.OrSetCell(())

    def test_orset_expand_refuses_an_interval_cell(self):
        rows = [((1,), "0"), ((models.CoddCell(Fraction(1), Fraction(3)),), "1")]
        with pytest.raises(InputError, match="^interval cells are not allowed in orset-certify"):
            models.orset_expand(helpers.uncertain_table(("A",), rows), ("A",))

    def test_codd_extremal_instance_refuses_an_or_set_cell(self):
        rows = [((1,), "0"), ((models.OrSetCell((1, 3)),), "1")]
        with pytest.raises(InputError, match="^or-set cells are not allowed in codd-certify"):
            models.codd_extremal_instance(helpers.uncertain_table(("A",), rows),
                                          kc.TestPoint((0,)), ("A",))

    @pytest.mark.parametrize(
        "model, bad", [("orset", "x"), ("orset", models.OrSetCell((1, "x"))), ("codd", "x")]
    )
    def test_non_numeric_feature_names_the_table_row(self, model, bad):
        # Only the feature A must be numeric; B holds symbols.
        rows = [((1, "a"), "0"), ((2, "b"), "0"), ((bad, "c"), "1")]
        with pytest.raises(InputError, match="^row 2: non-numeric feature value$"):
            EXPANDERS[model](("A", "B"), rows)

    @pytest.mark.parametrize("model", sorted(EXPANDERS))
    def test_non_numeric_feature_reported_after_the_refusals(self, model):
        cell, message = FOREIGN[model]
        with pytest.raises(InputError, match=f"^{message}$"):
            EXPANDERS[model](("A",), [(("x",), "0"), ((cell,), "1")])
        with pytest.raises(InputError, match="^attribute 'id' already present$"):
            EXPANDERS[model](("A", "id"), [(("x", 1), "0")])
        with pytest.raises(InputError, match="^tuple 0: arity mismatch$"):
            EXPANDERS[model](("A",), [(("x", 1), "0")])

    @pytest.mark.parametrize("model", sorted(EXPANDERS))
    def test_other_models_cell_reported_before_id_attribute(self, model):
        cell, message = FOREIGN[model]
        with pytest.raises(InputError, match=f"^{message}$"):
            EXPANDERS[model](("A", "id"), [((1, 2), "0"), ((cell, 2), "1")])
