"""The benchmark's own checks of CLI outputs, independent of the package.

Everything here works from the generated tables, never from the program's
parse of the CSV. Distances are exact: coordinates are integers over the
common denominator 1000, so sum(|dx|^p) over milli-units is the rational
surrogate the program uses, scaled by the constant 1000^p, and it orders the
tuples identically, ties broken by id. Repairs are checked with one dict per
FD (a linear FD index). Each check returns a list of problems; empty means
the output is correct.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter


def _fd_slots(table):
    return [
        (tuple(table.index[a] for a in lhs), tuple(table.index[a] for a in rhs))
        for lhs, rhs in table.fds
    ]


def repair_problems(table, ids) -> list:
    """Problems with ``ids`` as a repair: unknown or repeated ids, an FD
    violation among the kept tuples, or a left-out tuple that conflicts
    with none of them (the repair is not maximal)."""
    if any(not isinstance(i, int) or not 0 <= i < table.n for i in ids):
        return ["repair holds ids outside the table"]
    kept = set(ids)
    if len(kept) != len(ids):
        return ["repair repeats ids"]
    rows = table.rows
    indexes = []
    for lhs, rhs in _fd_slots(table):
        index: dict = {}
        for i in ids:
            row = rows[i]
            if index.setdefault(tuple(row[j] for j in lhs), tuple(row[j] for j in rhs)) != \
                    tuple(row[j] for j in rhs):
                return [f"repair violates an FD at tuple {i}"]
        indexes.append((lhs, rhs, index))
    for i in range(table.n):
        if i in kept:
            continue
        row = rows[i]
        blocked = False
        for lhs, rhs, index in indexes:
            seen = index.get(tuple(row[j] for j in lhs))
            if seen is not None and seen != tuple(row[j] for j in rhs):
                blocked = True
                break
        if not blocked:
            return [f"repair is not maximal: tuple {i} can be added"]
    return []


def distances(table, point, p: int) -> list:
    cols = [table.index[f] for f in table.features]
    return [sum(abs(c - row[j]) ** p for c, j in zip(point, cols)) for row in table.rows]


def vote(table, dist, ids, k: int) -> dict:
    """k-NN outcome over ``ids`` in the CLI's JSON shape."""
    if not ids:
        return {"kind": "empty"}
    nearest = heapq.nsmallest(k, ids, key=lambda i: (dist[i], i))
    tally = Counter(table.labels[i] for i in nearest).most_common()
    if len(tally) > 1 and tally[0][1] == tally[1][1]:
        return {"kind": "tie"}
    return {"kind": "label", "label": tally[0][0]}


def certify_check(table, point, p: int, k: int, robust: bool, method: str):
    dist_cache: list = []

    def check(out: dict) -> list:
        problems = []
        if out.get("method") != method:
            problems.append(f"method {out.get('method')!r}, expected {method!r}")
        if out.get("robust") is not robust:
            return problems + [f"robust {out.get('robust')!r}, expected {robust!r}"]
        witnesses = out.get("witnesses") or []
        if robust:
            if out.get("certain_label") != "0" or witnesses or out.get("possible_labels") != ["0"]:
                problems.append("robust result must certify label 0 with no witnesses")
            return problems
        if out.get("certain_label") is not None or not witnesses:
            return problems + ["flagged result needs witnesses and no certain label"]
        if not dist_cache:
            dist_cache.append(distances(table, point, p))
        outcomes = []
        for w in witnesses:
            ids = w.get("repair_ids") or []
            problems += repair_problems(table, ids)
            recomputed = vote(table, dist_cache[0], ids, k)
            if recomputed != w.get("predicted"):
                problems.append(f"witness predicts {w.get('predicted')}, recomputed {recomputed}")
            outcomes.append(recomputed)
        distinct = {tuple(sorted(o.items())) for o in outcomes}
        if len(distinct) < 2 and {"kind": "tie"} not in outcomes:
            problems.append("witnesses do not show two outcomes or a tie")
        seen = {o["label"] for o in outcomes if o["kind"] == "label"}
        if not seen <= set(out.get("possible_labels") or []):
            problems.append("possible_labels misses a witnessed label")
        return problems

    return check


def chain_repair_count(table) -> int:
    """Repairs of an A -> B, AC -> D table by the closed form
    prod_a sum_b prod_c |distinct D at (a, b, c)|."""
    a, b, c, d = (table.index[x] for x in "ABCD")
    dvals: dict = {}
    for row in table.rows:
        dvals.setdefault(row[a], {}).setdefault(row[b], {}).setdefault(row[c], set()).add(row[d])
    total = 1
    for by_b in dvals.values():
        options = 0
        for by_c in by_b.values():
            ways = 1
            for ds in by_c.values():
                ways *= len(ds)
            options += ways
        total *= options
    return total


def chain_min_weight(table) -> int:
    """Minimum repair weight of an A -> B, AC -> D table:
    sum_a min_b sum_c min_d (weight of the tuples equal on A,B,C,D)."""
    a, b, c, d = (table.index[x] for x in "ABCD")
    leaf: dict = {}
    for i, row in enumerate(table.rows):
        key = (row[a], row[b], row[c], row[d])
        leaf[key] = leaf.get(key, 0) + table.weights[i]
    nested: dict = {}
    for (va, vb, vc, vd), w in leaf.items():
        cell = nested.setdefault(va, {}).setdefault(vb, {})
        cell[vc] = min(cell.get(vc, w), w)
    return sum(min(sum(by_c.values()) for by_c in by_b.values()) for by_b in nested.values())


def count_check(table, label: str):
    total = chain_repair_count(table)

    def check(out: dict) -> list:
        want = {"label": label, "count": str(total), "total_repairs": str(total)}
        return [] if out == want else [f"count output {out}, expected {want}"]

    return check


def min_repair_check(table):
    weight = chain_min_weight(table)

    def check(out: dict) -> list:
        ids = out.get("repair_ids") or []
        problems = repair_problems(table, ids)
        if out.get("weight") != str(sum(table.weights[i] for i in ids)):
            problems.append("weight is not the sum of the repair's weights")
        if out.get("weight") != str(weight):
            problems.append(f"weight {out.get('weight')}, minimum is {weight}")
        return problems

    return check


def forbidden_check(table, forbid):
    def check(out: dict) -> list:
        if out.get("exists") is not True:
            return ["an avoiding repair exists but none was returned"]
        ids = out.get("repair_ids") or []
        problems = repair_problems(table, ids)
        if set(ids) & set(forbid):
            problems.append("repair keeps a forbidden id")
        return problems

    return check


def greedy(table, order, limit=None) -> list:
    """Scan ``order`` keeping each tuple that conflicts with nothing kept,
    until ``limit`` tuples are kept."""
    slots = [(lhs, rhs, {}) for lhs, rhs in _fd_slots(table)]
    kept: list = []
    for i in order:
        if len(kept) == limit:
            break
        row = table.rows[i]
        keys = [(tuple(row[j] for j in lhs), tuple(row[j] for j in rhs), index)
                for lhs, rhs, index in slots]
        if all(index.get(key, rhs) == rhs for key, rhs, index in keys):
            for key, rhs, index in keys:
                index[key] = rhs
            kept.append(i)
    return kept


def flips(table, point, p: int, k: int) -> bool:
    """True when two repairs found here vote differently at ``point``, so the
    point is not robust: the nearest-first greedy repair, which must vote a
    strict winner (a tie ends certification at the incumbent), and the
    greedy repair that scans the winner's tuples last."""
    dist = distances(table, point, p)
    order = sorted(range(table.n), key=lambda i: (dist[i], i))
    first = vote(table, dist, greedy(table, order, k), k)
    if first["kind"] != "label":
        return False
    winner = first["label"]
    last = [i for i in order if table.labels[i] != winner] + \
        [i for i in order if table.labels[i] == winner]
    return vote(table, dist, greedy(table, last), k) != first


def avoidable_ids(table, count: int, rng: random.Random) -> list:
    """``count`` ids outside the id-order greedy repair, which then avoids
    them, so an avoiding repair exists by construction."""
    kept = set(greedy(table, range(table.n)))
    outside = [i for i in range(table.n) if i not in kept]
    return sorted(rng.sample(outside, min(count, len(outside))))
