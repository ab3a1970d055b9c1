"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

import knncert as kc
from knncert import certify_dp, counting, fastscan, hardgen, minrepair, models, oracle

import helpers


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_example_reproduction():
    t0 = time.perf_counter()
    ds, _, ordering = helpers.example_inconsistent()
    res = certify_dp.certify(ds, ordering, 3)
    repairs = oracle.enumerate_repairs(ds)
    counts = {lab: counting.count_label(ds, ordering, 3, lab) for lab in ("0", "1", "2")}
    elapsed = time.perf_counter() - t0
    ok = (
        res.robust
        and res.certain_label == "0"
        and len(repairs) == 4
        and counts == {"0": 4, "1": 0, "2": 0}
        and elapsed < 1.0
    )
    report(1, "six-tuple example reproduction", ok, f"{elapsed:.3f}s")


def test_criterion_2_sixteen_tuple_reproduction():
    t0 = time.perf_counter()
    ds, ordering = helpers.keyed_sixteen()
    keyed = fastscan.as_keyed(ds)
    kept_21 = [t + 1 for t in fastscan.prune(keyed, "2", "1", ordering)]
    kept_31 = [t + 1 for t in fastscan.prune(keyed, "3", "1", ordering)]
    trig = fastscan.fastscan(
        keyed, "1", "3", 3, ordering, fastscan.prune(keyed, "3", "1", ordering)
    )
    verdict = fastscan.certify_pk(keyed, ordering, 3)
    elapsed = time.perf_counter() - t0
    ok = (
        kept_21 == [3, 4, 7, 8, 9, 15, 16]
        and kept_31 == [3, 4, 7, 9, 11, 16]
        and trig is not None
        and (trig.index, trig.target_count, trig.forced_ref_count) == (3, 2, 1)
        and trig.blocks_closed == 3
        and trig.blocks_seen == 3
        and not verdict.robust
        and elapsed < 1.0
    )
    report(2, "sixteen-tuple fixture reproduction", ok, f"{elapsed:.3f}s")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(20240)
    t0 = time.perf_counter()
    instances = 0
    keyed_checked = 0
    while instances < 500:
        keyed_case = instances % 10 < 3
        if keyed_case:
            ds, ordering = helpers.random_keyed_instance(
                rng, n_max=12, extra_attr=bool(rng.getrandbits(1))
            )
        else:
            ds, ordering = helpers.random_chain_instance(rng, n_max=12, d_max=4)
        k = rng.choice((1, 2, 3, 5))
        want = oracle.brute_certify(ds, ordering, k)
        got = certify_dp.certify(ds, ordering, k)
        assert got.robust == want.robust and got.certain_label == want.certain_label, (
            ds,
            k,
        )
        if keyed_case:
            pk = fastscan.certify_pk(ds, ordering, k)
            assert pk.robust == want.robust and pk.certain_label == want.certain_label
            keyed_checked += 1
        for lab in ds.labels:
            assert counting.count_label(ds, ordering, k, lab) == oracle.brute_count(
                ds, ordering, k, lab
            ), (ds, k, lab)
        instances += 1
    elapsed = time.perf_counter() - t0
    ok = instances >= 500 and keyed_checked >= 100 and elapsed < 60.0
    report(
        3,
        "oracle equivalence over random instances",
        ok,
        f"{instances} instances, {keyed_checked} keyed, {elapsed:.1f}s",
    )


def test_criterion_4_min_repair():
    rng = random.Random(20241)
    t0 = time.perf_counter()
    checked = 0
    while checked < 200:
        ds, _ = helpers.random_chain_instance(rng, n_max=12, weighted=True)
        got_repair, got_weight = minrepair.min_rep(ds)
        _, want_weight = oracle.brute_min_repair(ds)
        assert got_weight == want_weight
        assert got_repair in oracle.enumerate_repairs(ds)
        if ds.size:
            forbidden = frozenset(rng.sample(list(ds.ids()), rng.randint(0, ds.size)))
            got = minrepair.forbidden_repair(ds, forbidden)
            avoiding = [
                r for r in oracle.enumerate_repairs(ds) if not forbidden & set(r)
            ]
            assert (got is not None) == bool(avoiding)
        checked += 1
    elapsed = time.perf_counter() - t0
    report(4, "minimum-weight repair correctness", checked >= 200, f"{checked} instances, {elapsed:.1f}s")


def test_criterion_5_hardness_pipeline():
    t0 = time.perf_counter()
    rng = random.Random(20242)
    formulas = helpers.all_formulas(1) + helpers.all_formulas(2)
    exhaustive = len(formulas)
    formulas += [hardgen.random_formula(rng, 3) for _ in range(45)]
    formulas += [hardgen.random_formula(rng, 4) for _ in range(5)]
    target = hardgen.default_target()
    for phi in formulas:
        base = hardgen.generate(phi, target, k=1, p=2)
        base_ord = kc.order_by_distance(base.dataset, base.test_point, 2)
        base_res = oracle.brute_certify(base.dataset, base_ord, 1, cap=60)
        assert helpers.satisfiable(phi) == (not base_res.robust), phi
        for k in (3, 5):
            lifted = hardgen.lift_to_k(base, k)
            lord = kc.order_by_distance(lifted.dataset, lifted.test_point, 2)
            lres = oracle.brute_certify(lifted.dataset, lord, k, cap=60)
            assert lres.robust == base_res.robust, (phi, k)
    elapsed = time.perf_counter() - t0
    report(
        5,
        "hardness pipeline soundness",
        len(formulas) >= exhaustive + 50,
        f"{exhaustive} exhaustive + {len(formulas) - exhaustive} random, {elapsed:.1f}s",
    )


def test_criterion_6_uncertainty_models():
    rng = random.Random(20243)
    t0 = time.perf_counter()

    # ?-sets against world enumeration.
    for _ in range(150):
        n = rng.randint(2, 12)
        schema = kc.FdSchema.of(("A", "B"), [])
        seen = set()
        rows = []
        for _ in range(n):
            while True:
                v = (rng.randint(0, 9), rng.randint(0, 9))
                if v not in seen:
                    seen.add(v)
                    break
            rows.append((v, str(rng.randint(0, 2))))
        ds = kc.make_dataset(schema, rows, features=("A", "B"))
        ranked = list(ds.ids())
        rng.shuffle(ranked)
        ordering = kc.Ordering(tuple(ranked))
        uncertain = frozenset(rng.sample(list(ds.ids()), rng.randint(0, n)))
        budget = rng.randint(0, min(3, len(uncertain), n - 1))
        k = rng.randint(1, n - budget)
        q = models.QSetInstance(ds, uncertain, budget)
        got = models.qset_certify(q, ordering, k).robust
        worlds = oracle.enumerate_qset_worlds(ds, uncertain, budget)
        outcomes = {kc.predict(ds, w, ordering, k) for w in worlds}
        want = len(outcomes) == 1 and next(iter(outcomes)).kind == "label"
        assert got == want

    # Or-sets against realization enumeration.
    for _ in range(60):
        n_rows = rng.randint(1, 5)
        rows = []
        for _ in range(n_rows):
            cells = tuple(
                models.OrSetCell(tuple(rng.sample(range(5), rng.randint(1, 3))))
                if rng.random() < 0.6
                else rng.randint(0, 4)
                for _ in range(2)
            )
            rows.append((cells, str(rng.randint(0, 1))))
        x = kc.TestPoint((0, 0))
        p = rng.choice((1, 2))
        k = rng.randint(1, n_rows)
        keyed = models.orset_expand(("A", "B"), rows, features=("A", "B"))
        ordering = kc.order_by_distance(keyed.dataset, x, p)
        got = fastscan.certify_pk(keyed, ordering, k).robust
        options = []
        for cells, label in rows:
            opts = [c.distinct() if isinstance(c, models.OrSetCell) else (c,) for c in cells]
            options.append([(tuple(v), label) for v in itertools.product(*opts)])
        schema = kc.FdSchema.of(("A", "B"), [])
        outcomes = set()
        for combo in itertools.product(*options):
            world = kc.make_dataset(schema, list(combo), features=("A", "B"))
            w_ord = kc.order_by_distance(world, x, p)
            outcomes.add(kc.predict(world, world.ids(), w_ord, k))
        want = len(outcomes) == 1 and next(iter(outcomes)).kind == "label"
        assert got == want

    # Codd tables against discretized completion enumeration.
    for _ in range(60):
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
        got = helpers.codd_certify(("A", "B"), rows, x, k, p, ("A", "B")).robust
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
        assert got == want

    elapsed = time.perf_counter() - t0
    report(6, "uncertainty models vs enumeration", True, f"{elapsed:.1f}s")


def _perf_instance(n):
    half = n // 2
    keys = np.repeat(np.arange(half, dtype=np.int64), 2)
    labels = np.zeros(n, dtype=np.int64)
    labels[-1000:] = 1  # far-away challenger tail keeps the scan honest
    return keys, labels


def test_criterion_7_linearity_smoke():
    # Interleave the two sizes and keep per-size minima, so transient system
    # load cannot skew the ratio by hitting only one of them.
    half = _perf_instance(500_000)
    full = _perf_instance(1_000_000)
    fastscan.certify_pk_arrays(*_perf_instance(10_000), 5)  # warm-up
    t_half = t_full = float("inf")
    verdict = None
    for _ in range(6):
        t0 = time.perf_counter()
        fastscan.certify_pk_arrays(*half, 5)
        t_half = min(t_half, time.perf_counter() - t0)
        t0 = time.perf_counter()
        verdict = fastscan.certify_pk_arrays(*full, 5)
        t_full = min(t_full, time.perf_counter() - t0)
    ratio = t_full / t_half
    ok = verdict.robust and ratio <= 2.5 and t_full < 2.0
    report(
        7,
        "linear-scan performance",
        ok,
        f"5e5: {t_half * 1000:.0f}ms, 1e6: {t_full * 1000:.0f}ms, ratio {ratio:.2f}",
    )


def test_criterion_8_big_integer_counting():
    schema = kc.FdSchema.of(("K", "V"), [(["K"], ["V"])])
    rows = [((i // 2, i % 2), "0") for i in range(80)]
    ds = kc.make_dataset(schema, rows, features=("V",))
    ordering = kc.Ordering(tuple(range(80)))
    count = counting.count_label(ds, ordering, 3, "0")
    total = counting.count_repairs(ds)
    ok = count == total == 2**40 and str(count) == "1099511627776"
    report(8, "forty-block exact count", ok, str(count))
