"""The decomposition tree against the lhs-chain simplification it follows.

Every level of ``build_tree`` splits on the attribute of one consensus or
common-lhs step of ``decide_lhs_chain``, in order, so the tree's shape can
be checked against the schema-level trace without an oracle.
"""

import operator
import os
import random
import tempfile
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knncert as kc
from knncert import InputError, NotChainError, counting, ingest, minrepair, oracle
from knncert.decompose import build_tree, size_tables

import helpers

KINDS = {"consensus": "consensus", "common-lhs": "common"}
NON_CHAIN = kc.FdSchema.of(("A", "B", "C"), [(["A"], ["C"]), (["B"], ["C"])])


def split_steps(schema):
    """(node kind, attribute) of each consensus and common-lhs step."""
    out = []
    for step in kc.decide_lhs_chain(schema).trace:
        kind, _, attr = step.partition("(")
        if kind in KINDS:
            out.append((KINDS[kind], attr.rstrip(")")))
    return out


def paths(node, prefix=()):
    """(splits from the root, leaf) for every leaf."""
    if not hasattr(node, "children"):
        yield prefix, node
        return
    for child in node.children:
        yield from paths(child, prefix + ((node.kind, node.attr),))


def ids_under(node):
    return [tid for _, leaf in paths(node) for tid in leaf.ids]


def random_case(rng):
    """A chain instance with trivial FDs mixed in, a random FD subset (still
    a chain, since removing FDs keeps the lhs sets a chain) and an id subset."""
    ds, _ = helpers.random_chain_instance(rng, n_max=30, d_max=5)
    schema = ds.schema
    fds = list(schema.fds)
    for _ in range(rng.randint(0, 2)):
        lhs = rng.sample(schema.attributes, rng.randint(1, schema.arity))
        trivial = kc.Fd.of(lhs, rng.sample(lhs, rng.randint(1, len(lhs))))
        fds.insert(rng.randint(0, len(fds)), trivial)
    if rng.random() < 0.5:
        fds = [fd for fd in fds if rng.random() < 0.6]
    ids = list(ds.ids())
    if rng.random() < 0.5:
        ids = sorted(rng.sample(ids, rng.randint(1, len(ids))))
    return ds, fds, ids


class TestTreeFollowsTheChainSteps:
    def test_properties_on_random_chains(self):
        rng = random.Random(71)
        for _ in range(300):
            ds, fds, ids = random_case(rng)
            schema = ds.schema
            steps = split_steps(kc.FdSchema(schema.attributes, tuple(fds)))
            tree = build_tree(ds.tuples, ids, fds, schema)

            def value(tid, attr):
                return ds.tuples[tid][schema.index(attr)]

            # Every root-to-leaf path splits on the steps' attributes, in
            # order and with the steps' node kinds; its leaf's ids agree on
            # all of them.
            for path, leaf in paths(tree):
                assert list(path) == steps
                assert leaf.ids
                for _, attr in steps:
                    assert len({value(tid, attr) for tid in leaf.ids}) == 1

            # Siblings differ on their parent's attribute.
            stack = [tree]
            while stack:
                node = stack.pop()
                if not hasattr(node, "children"):
                    continue
                seen = [value(ids_under(child)[0], node.attr) for child in node.children]
                assert len(set(seen)) == len(seen)
                stack.extend(node.children)

            # The leaves partition the ids.
            assert sorted(ids_under(tree)) == sorted(ids)

    def test_no_split_without_fds(self):
        schema = kc.FdSchema.of(("A", "B"), [(["A", "B"], ["A"])])
        ds = kc.make_dataset(schema, [((1, 1), "0"), ((1, 2), "0")], features=("A",))
        assert build_tree(ds.tuples, [0, 1], list(schema.fds), schema) == SimpleNamespace(ids=(0, 1))

    def test_empty_ids_on_a_chain_is_the_empty_leaf(self):
        schema = kc.FdSchema.of(("A", "B"), [([], ["A"]), (["A"], ["B"])])
        ds = kc.make_dataset(schema, [((1, 1), "0")], features=("A",))
        assert build_tree(ds.tuples, [], list(schema.fds), schema) == SimpleNamespace(ids=())
        assert counting.count_repairs(ds, ids=[]) == 1
        assert minrepair.min_rep(ds, ids=[]) == ((), Fraction(0))


WIDE = 2**64
# Spellings of each value a column kind draws from: several texts per value.
SPELLINGS = {
    "rational": [["0", "0.0", "-0", "0/3"], ["0.5", "1/2", "0.50", "2/4", ".5"],
                 ["1", "1.0", "01", "2/2"], ["1.5", "3/2", "1.50"]],
    "mixed": [["x"], ["y"], ["0.5", "1/2", "0.50"], ["1", "1.0"]],
    "wide": [[str(WIDE), f"{WIDE}.0", f"{2 * WIDE}/2"], [f"{WIDE}.5", f"{2 * WIDE + 1}/2"],
             [str(WIDE + 1), f"{WIDE + 1}.00"], ["0", "0.0"]],
}


@st.composite
def spelled_chain_csvs(draw):
    """A random chain schema and CSV text whose columns spell one value
    several ways, mix symbols and numbers, or hold numbers past int64."""
    schema = helpers.random_chain_schema(random.Random(draw(st.integers(0, 2**32 - 1))),
                                         draw(st.integers(1, 4)))
    kinds = [draw(st.sampled_from(sorted(SPELLINGS))) for _ in schema.attributes]
    lines = [",".join(schema.attributes) + ",label"]
    for _ in range(draw(st.integers(1, 25))):
        cells = [draw(st.sampled_from(draw(st.sampled_from(SPELLINGS[kind])))) for kind in kinds]
        lines.append(",".join(cells) + "," + draw(st.sampled_from("01")))
    return schema, kinds, "\n".join(lines) + "\n"


class TestCellsSplitLikeValues:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(spelled_chain_csvs(), st.data())
    def test_cells_and_tuples_build_the_same_tree(self, case, data):
        schema, kinds, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            with open(path, "w") as fh:
                fh.write(text)
            ds, _, _ = ingest.load_dataset(path, schema, [])
        for kind, column in zip(kinds, ds.columns):
            if kind == "wide" and max(column.values()) >= WIDE:  # ``Column.numeric``'s list kind
                assert isinstance(column.data, list) and column.scale is not None
        ids = data.draw(st.lists(st.sampled_from(list(ds.ids())), unique=True))
        fds = list(schema.fds)
        for chosen in (list(ds.ids()), sorted(ids)):
            assert build_tree(ds.cells, chosen, fds, schema) == build_tree(
                ds.tuples, chosen, fds, schema)


class TestOnePass:
    def test_each_node_gets_its_attr_and_childrens_values_in_order(self):
        # Recording callbacks: the pass must hand every node what a walk
        # over the default tree hands it.
        def algebra(kind):
            return lambda attr, values: (kind, attr, values)

        record = (lambda leaf_ids: leaf_ids, algebra("consensus"), algebra("common"))
        rng = random.Random(73)
        for _ in range(100):
            ds, fds, ids = random_case(rng)
            shuffled = rng.sample(ids, len(ids))
            for order in (ids, shuffled):
                tree = build_tree(ds.tuples, order, fds, ds.schema)
                got = build_tree(ds.tuples, order, fds, ds.schema, *record)
                assert got == helpers.walk(tree, *record)
            # Leaves keep the given order and children come in order of first
            # appearance, so every node's first ids keep the shuffled order.
            position = {tid: i for i, tid in enumerate(shuffled)}

            def in_order(tids):
                assert [position[t] for t in tids] == sorted(position[t] for t in tids)
                return tids[0]

            if shuffled:
                build_tree(ds.tuples, shuffled, fds, ds.schema, in_order,
                           lambda attr, firsts: in_order(firsts),
                           lambda attr, firsts: in_order(firsts))


class TestNonChainRejected:
    def test_with_ids(self):
        ds = kc.make_dataset(NON_CHAIN, [((1, 1, 1), "0")], features=("A",))
        with pytest.raises(NotChainError):
            build_tree(ds.tuples, [0], list(NON_CHAIN.fds), NON_CHAIN)

    def test_with_empty_ids(self):
        # The decision depends on the FDs only, not on whether any tuple
        # reaches the step that gets stuck.
        ds = kc.make_dataset(NON_CHAIN, [((1, 1, 1), "0")], features=("A",))
        with pytest.raises(NotChainError):
            build_tree(ds.tuples, [], list(NON_CHAIN.fds), NON_CHAIN)
        with pytest.raises(NotChainError):
            minrepair.min_rep(ds, ids=[])
        with pytest.raises(NotChainError):
            counting.count_repairs(ds, ids=[])
        with pytest.raises(NotChainError):
            minrepair.forbidden_repair(ds, [], ids=[])

    def test_empty_dataset(self):
        ds = kc.make_dataset(NON_CHAIN, [], features=("A",), labels=("0",))
        with pytest.raises(NotChainError):
            counting.count_label(ds, kc.Ordering(()), 1, "0")


class TestIdsChecked:
    SCHEMA = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
    ROWS = [((1, 1), "0"), ((1, 2), "0"), ((2, 1), "1")]

    @pytest.mark.parametrize("ids, message", [
        ([0, 0], "id 0 is repeated"),
        ([7], "id 7 is not one of the 3 rows"),
        ([-1, 0], "id -1 is not one of the 3 rows"),
        ([2, 5, 2], "id 5 is not one of the 3 rows"),
        ([1, 2, 1, 9], "id 1 is repeated"),
    ])
    def test_build_tree_names_the_first_bad_id(self, ids, message):
        ds = kc.make_dataset(self.SCHEMA, self.ROWS, features=("A",))
        with pytest.raises(InputError, match=f"^{message}$"):
            build_tree(ds.tuples, ids, list(self.SCHEMA.fds), self.SCHEMA)

    @pytest.mark.parametrize("ids", [[0, 0], [7]])
    def test_chain_paths_and_the_oracle_refuse(self, ids):
        ds = kc.make_dataset(self.SCHEMA, self.ROWS, features=("A",))
        with pytest.raises(InputError):
            minrepair.min_rep(ds, ids=ids)
        with pytest.raises(InputError):
            minrepair.forbidden_repair(ds, [], ids=ids)
        with pytest.raises(InputError):
            counting.count_repairs(ds, ids=ids)
        with pytest.raises(InputError):
            oracle.enumerate_repairs(ds, ids=ids)

    def test_non_chain_is_decided_first(self):
        ds = kc.make_dataset(NON_CHAIN, [((1, 1, 1), "0")], features=("A",))
        with pytest.raises(NotChainError):
            build_tree(ds.tuples, [0, 0], list(NON_CHAIN.fds), NON_CHAIN)


def max_plus(rng, k):
    return size_tables(k, 0, max, operator.add, None), lambda: rng.randint(-3, 3)


def polynomials(rng, k):
    width = rng.randint(0, 2)

    def entry():
        return {tuple(rng.randint(-2, 2) for _ in range(width)): rng.randint(1, 4)
                for _ in range(rng.randint(1, 3))}

    return size_tables(k, {(0,) * width: 1}, counting._add, counting._times, None), entry


class TestSizeTableLaws:
    # ``Sweep`` regroups merges along its segment trees, so both semirings'
    # tables must add and multiply associatively and commutatively.
    @pytest.mark.parametrize("semiring", [max_plus, polynomials])
    def test_add_and_product_are_associative_and_commutative(self, semiring):
        rng = random.Random(97)
        for _ in range(200):
            k = rng.randint(1, 4)
            ops, entry = semiring(rng, k)
            a, b, c = ([entry() if rng.random() < 0.6 else None for _ in range(k + 1)]
                       for _ in range(3))
            for merge in (ops.choose, ops.combine):
                assert merge(a, b) == merge(b, a)
                assert merge(merge(a, b), c) == merge(a, merge(b, c))
            # A copy, so the product runs in full rather than return early.
            unit = list(ops.blank)
            assert ops.combine(unit, a) == a == ops.combine(a, unit)
            assert ops.combine(ops.blank, a) == a == ops.combine(a, ops.blank)
