"""Generator of provably hard certification instances.

Pipeline: a CNF formula in which every variable occurs twice positively and
once negatively (clauses of at most three literals) becomes a directed
bipartite gadget graph whose label-1 maximal matchings correspond exactly
to satisfying assignments; edges become tuples over a target non-chain FD
schema through an injective, conflict-preserving translation; vertex and
edge symbols are embedded into the naturals so that every label-0 tuple is
strictly closer to the origin than every label-1 tuple. The origin then has
no certain 1-NN label iff the formula is satisfiable. A final lift scales
the instance and adds near-origin padding so the same equivalence holds for
any odd k.
"""

from __future__ import annotations

from dataclasses import dataclass
from .dataset import LabeledDataset, TestPoint, make_dataset, surrogate_distance
from .errors import InputError
from .fdschema import FdSchema, closure, find_incomparable_pair, minimize

SHARED = "+"  # fills attributes determined by both lhs sides


@dataclass(frozen=True)
class Sat3R:
    """CNF with clauses of <= 3 literals, each variable twice positive and
    once negative. Literals are signed 1-based variable indices."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


def validate_sat3r(phi: Sat3R) -> tuple[str, ...]:
    """All occurrence-discipline violations, empty when the formula is valid."""
    issues = [] if phi.num_vars else ["need at least one variable"]
    positive = {j: 0 for j in range(1, phi.num_vars + 1)}
    negative = {j: 0 for j in range(1, phi.num_vars + 1)}
    for ci, clause in enumerate(phi.clauses, start=1):
        if len(clause) > 3:
            issues.append(f"clause {ci} has {len(clause)} literals (at most 3)")
        for lit in clause:
            if lit == 0 or abs(lit) > phi.num_vars:
                issues.append(f"clause {ci}: literal {lit} out of range")
            elif lit > 0:
                positive[lit] += 1
            else:
                negative[-lit] += 1
    for j in range(1, phi.num_vars + 1):
        if positive[j] != 2:
            issues.append(f"variable {j} occurs positively {positive[j]} times (need 2)")
        if negative[j] != 1:
            issues.append(f"variable {j} occurs negatively {negative[j]} times (need 1)")
    return tuple(issues)


# Vertices are tagged tuples: ("C+", i), ("C-", i), ("x", j, v), ("y", j, v).
Vertex = tuple


@dataclass(frozen=True)
class GadgetGraph:
    """Directed labeled graph whose maximal matchings mirror the formula."""

    num_vars: int
    num_clauses: int
    edges: tuple[tuple[Vertex, Vertex, int], ...]


def gadget_graph(phi: Sat3R) -> GadgetGraph:
    """Emit the clause edges, then per variable the eight gadget edges."""
    issues = validate_sat3r(phi)
    if issues:
        raise InputError("; ".join(issues))
    m = len(phi.clauses)
    edges: list[tuple[Vertex, Vertex, int]] = []
    for i in range(1, m + 1):
        edges.append((("C+", i), ("C-", i), 0))

    pos_in: dict[int, list[int]] = {j: [] for j in range(1, phi.num_vars + 1)}
    neg_in: dict[int, list[int]] = {j: [] for j in range(1, phi.num_vars + 1)}
    for ci, clause in enumerate(phi.clauses, start=1):
        for lit in clause:
            (pos_in if lit > 0 else neg_in)[abs(lit)].append(ci)

    for j in range(1, phi.num_vars + 1):
        kappa, lam = pos_in[j]
        mu = neg_in[j][0]
        edges.extend(
            [
                (("C+", kappa), ("x", j, 0), 1),
                (("y", j, 0), ("x", j, 0), 1),
                (("C+", lam), ("x", j, 1), 1),
                (("y", j, 1), ("x", j, 1), 1),
                (("x", j, 2), ("C-", mu), 1),
                (("x", j, 2), ("y", j, 2), 1),
                (("y", j, 0), ("y", j, 2), 0),
                (("y", j, 1), ("y", j, 2), 0),
            ]
        )
    return GadgetGraph(phi.num_vars, m, tuple(edges))


@dataclass(frozen=True)
class ReducedInstance:
    """The gadget edges rewritten as tuples of the target schema.

    ``slots`` tags each attribute with what it carries: "shared" (the fresh
    constant), "src" (the edge source), "dst" (the edge target), or "pair"
    (the whole edge). Row i corresponds to edge i of the graph.
    """

    schema: FdSchema
    slots: tuple[str, ...]
    rows: tuple[tuple[tuple, str], ...]
    num_vars: int
    num_clauses: int


def factwise_reduce(graph: GadgetGraph, target: FdSchema) -> ReducedInstance:
    """Translate edges to target-schema tuples, preserving conflicts.

    Needs two FDs of the minimized target whose left-hand sides are mutually
    non-contained; attributes inside the closure of their intersection take
    a shared constant, the private parts carry the two endpoints, everything
    else carries the edge itself. Same endpoint on the same side then still
    means conflict, and distinct edges map to distinct tuples.
    """
    mini = minimize(target)
    pair = find_incomparable_pair(mini)
    if pair is None:
        raise InputError("target schema has an lhs chain; hard instances need a non-chain target")
    first, second = pair
    shared = closure(first.lhs & second.lhs, mini)
    slots = []
    for attr in target.attributes:
        if attr in shared:
            slots.append("shared")
        elif attr in first.lhs:
            slots.append("src")
        elif attr in second.lhs:
            slots.append("dst")
        else:
            slots.append("pair")
    rows = []
    for src, dst, lab in graph.edges:
        values = []
        for slot in slots:
            if slot == "shared":
                values.append(SHARED)
            elif slot == "src":
                values.append(src)
            elif slot == "dst":
                values.append(dst)
            else:
                values.append((src, dst))
        rows.append((tuple(values), str(lab)))
    return ReducedInstance(target, tuple(slots), tuple(rows), graph.num_vars, graph.num_clauses)


@dataclass(frozen=True)
class HardInstance:
    """A numeric labeled instance with the origin as test point."""

    dataset: LabeledDataset
    test_point: TestPoint
    alpha: int
    embedding: dict
    p: int
    scale: int = 1


def numeric_embed(reduced: ReducedInstance, p: int = 2) -> HardInstance:
    """Embed symbols into the naturals with the label-separation margin.

    Clause vertices take 1..2m, y-vertices sit below 2m+8n, x-vertices start
    above alpha = d*(2m+8n), edges are numbered from 1, and the shared
    constant is 0. Every label-1 tuple contains an x-vertex value, so it is
    strictly farther from the origin than any label-0 tuple.
    """
    if p < 1:
        raise InputError("p must be >= 1")
    m, n = reduced.num_clauses, reduced.num_vars
    d = reduced.schema.arity
    alpha = d * (2 * m + 8 * n)

    embedding: dict = {SHARED: 0}
    for i in range(1, m + 1):
        embedding[("C+", i)] = i
        embedding[("C-", i)] = m + i
    for j in range(1, n + 1):
        for v in range(3):
            embedding[("y", j, v)] = 2 * m + 3 * j + v
            embedding[("x", j, v)] = alpha + 3 * j + v

    rows = []
    for edge_index, (values, label) in enumerate(reduced.rows, start=1):
        numeric = []
        for slot, value in zip(reduced.slots, values):
            if slot == "pair":
                numeric.append(edge_index)
            else:
                numeric.append(embedding[value])
        rows.append((tuple(numeric), label))
        low_bound = 2 * m + 8 * n
        if label == "0":
            assert max(numeric) <= low_bound
        else:
            assert max(numeric) > alpha >= low_bound

    dataset = make_dataset(reduced.schema, rows, features=reduced.schema.attributes)
    origin = TestPoint((0,) * d)
    return HardInstance(dataset, origin, alpha, embedding, p)


def lift_to_k(inst: HardInstance, k: int) -> HardInstance:
    """Scale the instance and pad it so the 1-NN verdict transfers to k-NN.

    Coordinates are multiplied by an integer lam chosen so that every scaled
    tuple stays strictly farther than the k-1 padding tuples (j,...,j) with
    labels alternating 0,1,... ; lam >= k also keeps every padding value
    below every scaled non-zero value, so the padding never conflicts with
    anything. Odd k preserves the verdict exactly.
    """
    if k == 1:
        return inst
    if k < 1:
        raise InputError("k must be >= 1")
    ds = inst.dataset
    if set(ds.labels) - {"0", "1"}:
        raise InputError("lift expects binary labels 0/1")
    d = ds.schema.arity
    p = inst.p
    nearest = min(surrogate_distance(inst.test_point, ds, tid, p) for tid in ds.ids())
    if nearest <= 0:
        raise InputError("test point must not coincide with a tuple")

    lam = k
    while lam**p * nearest < d * k**p:
        lam += 1

    rows = [(tuple(v * lam for v in t), label) for t, label in zip(ds.tuples, ds.row_labels)]
    for j in range(1, k):
        rows.append(((j,) * d, "0" if j % 2 == 1 else "1"))
    lifted = make_dataset(ds.schema, rows, features=ds.schema.attributes, labels=("0", "1"))

    pad_worst = d * (k - 1) ** p
    assert pad_worst < lam**p * nearest
    return HardInstance(lifted, inst.test_point, inst.alpha, inst.embedding, p, scale=lam)


def generate(
    phi: Sat3R,
    target: FdSchema,
    k: int = 1,
    p: int = 2,
) -> HardInstance:
    """Full pipeline: validate, build the gadget, reduce, embed, lift."""
    inst = numeric_embed(factwise_reduce(gadget_graph(phi), target), p)
    return lift_to_k(inst, k)


def default_target() -> FdSchema:
    """The canonical non-chain schema: two attributes determining each other."""
    return FdSchema.of(("A", "B"), [(["A"], ["B"]), (["B"], ["A"])])


def random_formula(rng, num_vars: int) -> Sat3R:
    """Random formula respecting the occurrence discipline.

    The 3*num_vars literal occurrences are shuffled and dealt into a random
    number of clauses, each holding one to three literals.
    """
    if num_vars < 1:
        raise InputError("need at least one variable")
    tokens = []
    for j in range(1, num_vars + 1):
        tokens += [j, j, -j]
    rng.shuffle(tokens)
    total = len(tokens)
    m = rng.randint(num_vars, total)
    sizes = [1] * m
    slots = total - m
    while slots:
        pick = rng.randrange(m)
        if sizes[pick] < 3:
            sizes[pick] += 1
            slots -= 1
    clauses = []
    cursor = 0
    for size in sizes:
        clauses.append(tuple(tokens[cursor : cursor + size]))
        cursor += size
    return Sat3R(num_vars, tuple(clauses))
