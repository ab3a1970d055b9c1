import itertools
import random

import pytest

import knncert as kc
from knncert import InputError, hardgen, oracle

import helpers

PHI = hardgen.Sat3R(2, ((1, 2), (1, 2), (-1, -2)))


class TestValidate:
    def test_valid_formula(self):
        assert hardgen.validate_sat3r(PHI) == ()

    def test_single_occurrence_violation(self):
        phi = hardgen.Sat3R(1, ((1,),))
        issues = hardgen.validate_sat3r(phi)
        assert any("positively" in msg for msg in issues)
        assert any("negatively" in msg for msg in issues)

    def test_four_literal_clause(self):
        phi = hardgen.Sat3R(4, ((1, 2, 3, 4),) + tuple((j,) for j in (1, 2, 3, 4)) + tuple((-j,) for j in (1, 2, 3, 4)))
        assert any("at most 3" in msg for msg in hardgen.validate_sat3r(phi))

    @pytest.mark.parametrize("clauses", [(), ((),)])
    def test_a_formula_without_variables_is_refused(self, clauses):
        assert hardgen.validate_sat3r(hardgen.Sat3R(0, clauses)) == ("need at least one variable",)

    def test_random_formulas_validate(self):
        rng = random.Random(11)
        for _ in range(50):
            phi = hardgen.random_formula(rng, rng.randint(1, 5))
            assert hardgen.validate_sat3r(phi) == ()


class TestGadgetGraph:
    def test_edge_count(self):
        g = hardgen.gadget_graph(PHI)
        assert len(g.edges) == len(PHI.clauses) + 8 * PHI.num_vars == 19

    def test_per_variable_edges(self):
        phi = hardgen.Sat3R(1, ((1, 1), (-1,)))
        g = hardgen.gadget_graph(phi)
        variable_edges = [e for e in g.edges if e[2] is not None][len(phi.clauses):]
        assert variable_edges == [
            (("C+", 1), ("x", 1, 0), 1),
            (("y", 1, 0), ("x", 1, 0), 1),
            (("C+", 1), ("x", 1, 1), 1),
            (("y", 1, 1), ("x", 1, 1), 1),
            (("x", 1, 2), ("C-", 2), 1),
            (("x", 1, 2), ("y", 1, 2), 1),
            (("y", 1, 0), ("y", 1, 2), 0),
            (("y", 1, 1), ("y", 1, 2), 0),
        ]

    def test_one_zero_edge_per_clause(self):
        g = hardgen.gadget_graph(PHI)
        clause_edges = [e for e in g.edges if e[0][0] == "C+" and e[1][0] == "C-"]
        assert len(clause_edges) == len(PHI.clauses)
        assert all(lab == 0 for _, _, lab in clause_edges)

    def test_bipartite_orientation(self):
        rng = random.Random(13)
        for _ in range(20):
            g = hardgen.gadget_graph(hardgen.random_formula(rng, rng.randint(1, 4)))
            sources = {e[0] for e in g.edges}
            targets = {e[1] for e in g.edges}
            assert not sources & targets

    def test_invalid_formula_rejected(self):
        with pytest.raises(InputError):
            hardgen.gadget_graph(hardgen.Sat3R(1, ((1,),)))


def maximal_matchings(edges):
    """All maximal matchings, by brute force over edge subsets."""
    n = len(edges)
    matchings = []
    for mask in range(1 << n):
        chosen = [edges[i] for i in range(n) if mask >> i & 1]
        seen = set()
        ok = True
        for s, t, _ in chosen:
            if s in seen or t in seen:
                ok = False
                break
            seen.add(s)
            seen.add(t)
        if not ok:
            continue
        matchings.append((mask, chosen, seen))
    maximal = []
    for mask, chosen, seen in matchings:
        extendable = any(
            s not in seen and t not in seen
            for s, t, _ in edges
            if (s, t) not in {(a, b) for a, b, _ in chosen}
        )
        if not extendable:
            maximal.append(chosen)
    return maximal


class TestMatchingEquivalence:
    def test_all_label_one_matching_iff_satisfiable(self):
        # Exhaustive over one-variable formulas: the gadget graph has a
        # maximal matching avoiding 0-edges iff the formula is satisfiable.
        for phi in helpers.all_formulas(1):
            g = hardgen.gadget_graph(phi)
            has = any(
                all(lab == 1 for _, _, lab in matching)
                for matching in maximal_matchings(list(g.edges))
            )
            assert has == helpers.satisfiable(phi), phi


class TestFactwiseReduce:
    def test_symmetric_two_attribute_target_is_identity(self):
        g = hardgen.gadget_graph(PHI)
        reduced = hardgen.factwise_reduce(g, hardgen.default_target())
        assert reduced.slots == ("src", "dst")
        for (values, label), (src, dst, lab) in zip(reduced.rows, g.edges):
            assert values == (src, dst) and label == str(lab)

    def test_pair_slot_target(self):
        target = kc.FdSchema.of(("A", "B", "C"), [(["A"], ["C"]), (["B"], ["C"])])
        g = hardgen.gadget_graph(PHI)
        reduced = hardgen.factwise_reduce(g, target)
        assert reduced.slots == ("src", "dst", "pair")

    def test_chain_target_rejected(self):
        target = kc.FdSchema.of(("A", "B"), [(["A"], ["B"])])
        with pytest.raises(InputError):
            hardgen.factwise_reduce(hardgen.gadget_graph(PHI), target)

    def test_injective(self):
        g = hardgen.gadget_graph(PHI)
        for target in (
            hardgen.default_target(),
            kc.FdSchema.of(("A", "B", "C"), [(["A"], ["C"]), (["B"], ["C"])]),
        ):
            reduced = hardgen.factwise_reduce(g, target)
            values = [v for v, _ in reduced.rows]
            assert len(set(values)) == len(values)

    def test_conflicts_preserved_exhaustively(self):
        g = hardgen.gadget_graph(PHI)
        for target in (
            hardgen.default_target(),
            kc.FdSchema.of(("A", "B", "C"), [(["A"], ["C"]), (["B"], ["C"])]),
            kc.FdSchema.of(
                ("A", "B", "C", "D"),
                [(["A", "B"], ["D"]), (["A", "C"], ["D"])],
            ),
        ):
            reduced = hardgen.factwise_reduce(g, target)
            ds = kc.make_dataset(target, list(reduced.rows), features=())
            for i, j in itertools.combinations(range(len(g.edges)), 2):
                si, ti, _ = g.edges[i]
                sj, tj, _ = g.edges[j]
                edge_conflict = si == sj or ti == tj
                tuple_conflict = kc.conflicts(ds.tuples[i], ds.tuples[j], target)
                assert edge_conflict == tuple_conflict


class TestNumericEmbed:
    def test_shared_constant_is_zero(self):
        target = kc.FdSchema.of(
            ("A", "B", "C"),
            [(["A", "C"], ["B"]), (["B", "C"], ["A"])],
        )
        # Intersection {C} closes to {C}: the C slot takes the constant 0.
        g = hardgen.gadget_graph(PHI)
        reduced = hardgen.factwise_reduce(g, target)
        assert "shared" in reduced.slots
        inst = hardgen.numeric_embed(reduced, p=2)
        col = reduced.slots.index("shared")
        assert all(t[col] == 0 for t in inst.dataset.tuples)
        assert inst.embedding[hardgen.SHARED] == 0

    def test_separation_invariant(self):
        rng = random.Random(17)
        for _ in range(15):
            phi = hardgen.random_formula(rng, rng.randint(1, 4))
            inst = hardgen.numeric_embed(
                hardgen.factwise_reduce(hardgen.gadget_graph(phi), hardgen.default_target()),
                p=2,
            )
            m, n = len(phi.clauses), phi.num_vars
            for t, label in zip(inst.dataset.tuples, inst.dataset.row_labels):
                if label == "0":
                    assert max(t) <= 2 * m + 8 * n
                else:
                    assert max(t) > inst.alpha

    def test_numeric_instance_keeps_the_conflict_graph(self):
        # Stage three must not create or destroy conflicts either.
        for target in (
            hardgen.default_target(),
            kc.FdSchema.of(("A", "B", "C"), [(["A"], ["C"]), (["B"], ["C"])]),
        ):
            g = hardgen.gadget_graph(PHI)
            inst = hardgen.numeric_embed(hardgen.factwise_reduce(g, target), p=2)
            ds = inst.dataset
            for i, j in itertools.combinations(range(len(g.edges)), 2):
                si, ti, _ = g.edges[i]
                sj, tj, _ = g.edges[j]
                assert (si == sj or ti == tj) == kc.conflicts(
                    ds.tuples[i], ds.tuples[j], target
                )

    def test_zero_labeled_tuples_rank_first(self):
        inst = hardgen.numeric_embed(
            hardgen.factwise_reduce(hardgen.gadget_graph(PHI), hardgen.default_target()), p=2
        )
        ordering = kc.order_by_distance(inst.dataset, inst.test_point, 2)
        labels = [inst.dataset.row_labels[t] for t in ordering.ranked]
        boundary = labels.index("1")
        assert all(lab == "0" for lab in labels[:boundary])
        assert all(lab == "1" for lab in labels[boundary:])


class TestEndToEnd:
    def test_satisfiable_iff_not_robust_one_var_exhaustive(self):
        for phi in helpers.all_formulas(1):
            inst = hardgen.generate(phi, hardgen.default_target(), k=1, p=2)
            ordering = kc.order_by_distance(inst.dataset, inst.test_point, 2)
            res = oracle.brute_certify(inst.dataset, ordering, 1, cap=40)
            assert helpers.satisfiable(phi) == (not res.robust), phi

    def test_lift_identity_at_k1(self):
        inst = hardgen.generate(PHI, hardgen.default_target(), k=1, p=2)
        assert hardgen.lift_to_k(inst, 1) is inst

    def test_lift_padding_is_closest_and_conflict_free(self):
        rng = random.Random(19)
        for k in (3, 5):
            phi = hardgen.random_formula(rng, 2)
            inst = hardgen.generate(phi, hardgen.default_target(), k=k, p=2)
            ds = inst.dataset
            pad = list(range(ds.size - (k - 1), ds.size))
            pad_far = max(kc.surrogate_distance(inst.test_point, ds, t, 2) for t in pad)
            rest_near = min(
                kc.surrogate_distance(inst.test_point, ds, t, 2)
                for t in range(ds.size - (k - 1))
            )
            assert pad_far < rest_near
            for t in pad:
                for u in ds.ids():
                    if u != t:
                        assert not kc.conflicts(ds.tuples[t], ds.tuples[u], ds.schema)

    def test_lift_scales_past_k_when_the_nearest_tuple_is_close(self):
        # Surrogate distance 1 is below the arity 2, so lam = k = 3 leaves
        # 3**2 * 1 < 2 * 3**2, and lam grows to 5, the first with 5**2 >= 18.
        rows = [((1, 0), "0"), ((0, 2), "1")]
        ds = kc.make_dataset(hardgen.default_target(), rows, features=("A", "B"))
        lifted = hardgen.lift_to_k(hardgen.HardInstance(ds, kc.TestPoint((0, 0)), 0, {}, 2), 3)
        assert lifted.scale == 5
        dist = [kc.surrogate_distance(lifted.test_point, lifted.dataset, t, 2)
                for t in lifted.dataset.ids()]
        assert dist[:2] == [25, 100]  # (5, 0) and (0, 10)
        assert max(dist[2:]) < min(dist[:2])

    def test_lift_preserves_verdict(self):
        rng = random.Random(23)
        for _ in range(6):
            phi = hardgen.random_formula(rng, 2)
            base = hardgen.generate(phi, hardgen.default_target(), k=1, p=2)
            base_ord = kc.order_by_distance(base.dataset, base.test_point, 2)
            base_res = oracle.brute_certify(base.dataset, base_ord, 1, cap=40)
            for k in (3, 5):
                lifted = hardgen.lift_to_k(base, k)
                lord = kc.order_by_distance(lifted.dataset, lifted.test_point, 2)
                lifted_res = oracle.brute_certify(lifted.dataset, lord, k, cap=40)
                assert lifted_res.robust == base_res.robust
