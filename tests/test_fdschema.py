import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knncert as kc
from knncert import InputError, NotPrimaryKeyError, fastscan
from knncert.fdschema import Fd, _subtract

import helpers


def schema(attrs, fds):
    return kc.FdSchema.of(attrs, fds)


class TestClosure:
    def test_single_application(self):
        s = schema("AB", [("A", "B")])
        assert kc.closure({"A"}, s) == {"A", "B"}

    def test_empty_set_stays_empty(self):
        s = schema("AB", [("A", "B")])
        assert kc.closure(set(), s) == set()

    def test_fixpoint_chains(self):
        s = schema("ABC", [("A", "B"), ("B", "C")])
        assert kc.closure({"A"}, s) == {"A", "B", "C"}

    def test_unknown_attribute(self):
        s = schema("AB", [("A", "B")])
        with pytest.raises(InputError):
            kc.closure({"Z"}, s)

    def test_closure_operator_laws(self):
        rng = random.Random(7)
        for _ in range(50):
            s = helpers.random_any_schema(rng, rng.randint(1, 5))
            attrs = set(rng.sample(s.attributes, rng.randint(0, s.arity)))
            closed = kc.closure(attrs, s)
            assert attrs <= closed
            assert kc.closure(closed, s) == closed
            bigger = attrs | set(rng.sample(s.attributes, rng.randint(0, s.arity)))
            assert closed <= kc.closure(bigger, s)


class TestSubtractAttribute:
    def test_removes_from_lhs(self):
        s = schema("ABC", [("AB", "C")])
        assert _subtract(s.fds, "A") == [Fd.of("B", "C")]

    def test_drops_empty_rhs(self):
        s = schema("AB", [("A", "B")])
        assert _subtract(s.fds, "B") == []

    def test_consensus_residual_survives(self):
        # {A->B, B->A} minus A: B->A collapses (empty rhs), A->B becomes a
        # consensus FD ()->B and must be kept.
        s = schema("AB", [("A", "B"), ("B", "A")])
        assert _subtract(s.fds, "A") == [Fd.of("", "B")]


class TestDecideLhsChain:
    def test_two_incomparable_sides(self):
        s = schema("ABCD", [("A", "C"), ("B", "C")])
        decision = kc.decide_lhs_chain(s)
        assert not decision.is_chain_equivalent
        assert decision.trace[-1] == "stuck"

    def test_nested_sides(self):
        s = schema("ABCD", [("AB", "C"), ("B", "D")])
        decision = kc.decide_lhs_chain(s)
        assert decision.is_chain_equivalent
        assert decision.trace[-1] != "stuck"

    def test_trivial_schema(self):
        assert kc.decide_lhs_chain(schema("A", [])).is_chain_equivalent

    def test_full_trace_breaks_ties_by_schema_index(self):
        s = schema("ABCD", [("CA", "DB"), ("CAB", "A")])
        assert kc.decide_lhs_chain(s).trace == (
            "removed-trivial", "common-lhs(A)", "common-lhs(C)", "consensus(B)", "consensus(D)",
        )

    def test_agrees_with_minimized_form(self):
        rng = random.Random(11)
        for _ in range(200):
            s = helpers.random_any_schema(rng, rng.randint(1, 5))
            assert (
                kc.decide_lhs_chain(s).is_chain_equivalent
                == kc.decide_lhs_chain(kc.minimize(s)).is_chain_equivalent
            )


@st.composite
def fd_schemas(draw):
    """Any FD set over up to four attributes, trivial FDs included."""
    attrs = helpers.ATTR_POOL[:draw(st.integers(1, 4))]
    lhs = st.sets(st.sampled_from(attrs), max_size=len(attrs))
    rhs = st.sets(st.sampled_from(attrs), min_size=1, max_size=len(attrs))
    fds = draw(st.lists(st.tuples(lhs, rhs), max_size=4))
    return kc.FdSchema.of(attrs, fds)


def single_key(s):
    """The K with FDs equivalent to K -> every attribute, by brute force
    over closures (K is every attribute when no FD is nontrivial), or None."""
    every = frozenset(s.attributes)
    subsets = [frozenset(c) for r in range(s.arity + 1) for c in itertools.combinations(s.attributes, r)]
    for key in subsets:
        if all(kc.closure(x, s) == (every if key <= x else x) for x in subsets):
            return tuple(s.sort_attrs(key))
    return None


class TestDecidePrimaryKey:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(fd_schemas())
    @example(schema("ABC", [("A", "B"), ("AB", "C")]))  # key implied through minimization
    @example(schema("AB", [("AB", "A")]))  # trivial FDs only: every attribute is the key
    @example(schema("AB", [("A", "B"), ("B", "A")]))  # two candidate keys
    @example(schema("ABC", [("A", "B")]))  # the lhs is not a key
    @example(schema("AB", [("", "AB")]))  # the empty key: one block
    @example(schema("ABCD", [("A", "BC"), ("AC", "D")]))  # a key through a redundant chain
    def test_accepts_exactly_what_as_keyed_accepts(self, s):
        # Distinct rows, so as_keyed's data-level check never refuses.
        rows = [((i,) * s.arity, "0") for i in range(3)]
        ds = kc.make_dataset(s, rows, features=s.attributes[:1])
        key = kc.decide_lhs_chain(s).key
        try:
            assert fastscan.as_keyed(ds).key == key
        except NotPrimaryKeyError as exc:
            assert key is None
            assert str(exc) == "FDs are not equivalent to a single primary key"
        assert key == single_key(s)


def _closure_function_equal(a, b):
    import itertools

    for r in range(len(a.attributes) + 1):
        for sub in itertools.combinations(a.attributes, r):
            if kc.closure(sub, a) != kc.closure(sub, b):
                return False
    return True


class TestMinimize:
    def test_duplicate_removal(self):
        s = schema("AB", [("A", "B"), ("A", "B")])
        assert kc.minimize(s).fds == (Fd.of("A", "B"),)

    def test_extraneous_lhs_attribute(self):
        s = schema("ABC", [("AB", "C"), ("A", "B")])
        assert kc.minimize(s).fds == (Fd.of("A", "B"), Fd.of("A", "C"))

    def test_rhs_split(self):
        s = schema("ABC", [("A", "BC")])
        assert kc.minimize(s).fds == (Fd.of("A", "B"), Fd.of("A", "C"))

    def test_preserves_closure_function(self):
        rng = random.Random(13)
        for _ in range(60):
            s = helpers.random_any_schema(rng, rng.randint(1, 6))
            assert _closure_function_equal(s, kc.minimize(s))


class TestFindIncomparablePair:
    def test_present_for_split_lhs(self):
        s = kc.minimize(schema("ABC", [("A", "C"), ("B", "C")]))
        pair = kc.find_incomparable_pair(s)
        assert pair is not None
        assert {frozenset(pair[0].lhs), frozenset(pair[1].lhs)} == {
            frozenset("A"),
            frozenset("B"),
        }

    def test_absent_for_chain(self):
        s = kc.minimize(schema("ABCD", [("AB", "C"), ("B", "D")]))
        assert kc.find_incomparable_pair(s) is None

    def test_absent_for_empty(self):
        assert kc.find_incomparable_pair(schema("A", [])) is None

    def test_none_means_totally_ordered(self):
        rng = random.Random(17)
        for _ in range(100):
            s = kc.minimize(helpers.random_any_schema(rng, rng.randint(1, 5)))
            if kc.find_incomparable_pair(s) is None:
                for a in s.fds:
                    for b in s.fds:
                        assert a.lhs <= b.lhs or b.lhs <= a.lhs

    def test_chain_equivalent_has_no_pair_after_minimize(self):
        rng = random.Random(19)
        for _ in range(100):
            s = helpers.random_chain_schema(rng, rng.randint(1, 5))
            assert kc.find_incomparable_pair(kc.minimize(s)) is None


class TestWithLabelAttribute:
    def test_fresh_schema(self):
        s = kc.with_label_attribute(schema("A", []))
        assert s.attributes == ("A", "label")
        assert s.fds == (Fd.of("A", ["label"]),)

    def test_appends_full_lhs_fd(self):
        s = kc.with_label_attribute(schema("AB", [("A", "B")]))
        assert s.attributes == ("A", "B", "label")
        assert Fd.of("AB", ["label"]) in s.fds

    def test_name_clash(self):
        with pytest.raises(InputError):
            kc.with_label_attribute(schema("AB", [("A", "B")]), name="A")

    def test_preserves_chain_decision(self):
        rng = random.Random(23)
        for _ in range(50):
            s = helpers.random_any_schema(rng, rng.randint(1, 5))
            before = kc.decide_lhs_chain(s).is_chain_equivalent
            after = kc.decide_lhs_chain(kc.with_label_attribute(s)).is_chain_equivalent
            assert before == after
