"""Oracle-free properties on instances of about a thousand tuples.

The brute-force oracle stops at a dozen tuples. These properties tie the
polynomial routines to each other instead, at sizes where the oracle cannot
follow: the key scan against the DP on keyed data, counting against
certification on chain data, and every repair the chain routines return
against a linear consistency-and-maximality check.
"""

import random
from fractions import Fraction

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import knncert as kc
from knncert import certify_dp, counting, fastscan, minrepair

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
