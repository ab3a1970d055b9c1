"""Seeded inputs and call lists for the three benchmark workloads.

Every table is generated from ``random.Random`` seeded with a string built
from the workload, the seed and the file name, so the same seed writes the
same bytes on any machine. Numeric cells are integers in milli-units and are
written as decimals with three places, which the program parses exactly.
The program receives only the written files and the command lines.

Planted points: the first rows of a table are label-0 tuples that conflict
with nothing (singleton key blocks, or unique values of the attribute every
lhs contains) and lie nearer to the planted point than any other tuple, so
every repair keeps them as its nearest neighbours and the prediction is
robust. Unplanted points are drawn uniformly over the data range until the
benchmark itself finds two repairs that vote differently there, with a
strict winner in the greedy one, so certification goes past the incumbent
vote and the result is flagged.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import checks

DEFAULT_SEED = 1
HOLDOUT_SEED = 7

LO, HI = 100_000, 1_100_000  # regular coordinates, milli-units
PLANTED_POINT = (10_000, 10_000)  # far below LO on every axis


@dataclass
class Table:
    """A generated relation. Symbols are str, numeric cells int milli-units."""

    name: str
    attrs: tuple
    fds: tuple  # ((lhs attrs), (rhs attrs)) pairs
    features: tuple
    rows: list
    labels: list
    weights: Optional[list] = None
    index: dict = field(init=False)

    def __post_init__(self) -> None:
        self.index = {a: i for i, a in enumerate(self.attrs)}

    @property
    def n(self) -> int:
        return len(self.rows)


@dataclass
class Call:
    """One CLI invocation of a pass, with its expected exit code and the
    benchmark's own check of its output (returns a list of problems)."""

    name: str
    argv: list
    expect_exit: int
    check: Callable[[dict], list]


@dataclass
class Workload:
    name: str
    schema_path: str
    calls: list
    tables: dict
    files: list  # [{"path", "rows", "sha256"}]


def fmt(milli: int) -> str:
    sign = "-" if milli < 0 else ""
    milli = abs(milli)
    return f"{sign}{milli // 1000}.{milli % 1000:03d}"


def fmt_point(point) -> str:
    return ",".join(fmt(c) for c in point)


def _rng(workload: str, seed: int, what: str) -> random.Random:
    return random.Random(f"knncert-bench:{workload}:{seed}:{what}")


def _coord(rng: random.Random) -> int:
    return rng.randrange(LO, HI)


def pk_table(rng: random.Random, rows: int, planted: int, labels: int = 3) -> Table:
    """Schema K -> X,Y: ``planted`` singleton blocks near the planted point,
    then two-tuple blocks up to ``rows`` rows, labels uniform."""
    px, py = PLANTED_POINT
    data = [(f"s{i}", px + 17 * (i + 1), py + 11 * (i + 1)) for i in range(planted)]
    labs = ["0"] * planted
    for b in range((rows - planted) // 2):
        x1, y1 = _coord(rng), _coord(rng)
        x2, y2 = _coord(rng), _coord(rng)
        while (x2, y2) == (x1, y1):
            x2, y2 = _coord(rng), _coord(rng)
        data += [(f"k{b}", x1, y1), (f"k{b}", x2, y2)]
        labs += [str(rng.randrange(labels)), str(rng.randrange(labels))]
    return Table("pk", ("K", "X", "Y"), ((("K",), ("X", "Y")),), ("X", "Y"), data, labs)


def chain_table(rng: random.Random, rows: int, planted: int, labels: int = 3,
                weighted: bool = False) -> Table:
    """Schema A,B,C,D with A -> B and AC -> D, an lhs chain {A} < {A,C}.

    Regular tuples fall into rows/5 values of A; each A value offers two B
    values and each (A, C) pair two D values, so repairs choose among them.
    Planted tuples carry A values of their own and conflict with nothing.
    """
    px, py = PLANTED_POINT
    data = [(f"p{i}", px + 13 * (i + 1), f"c{i % 3}", py + 7 * (i + 1)) for i in range(planted)]
    groups = max(1, (rows - planted) // 5)
    b_vals = [(_coord(rng), _coord(rng)) for _ in range(groups)]
    d_vals: dict = {}
    for _ in range(rows - planted):
        g = rng.randrange(groups)
        c = rng.randrange(3)
        d_pair = d_vals.setdefault((g, c), (_coord(rng), _coord(rng)))
        data.append((f"a{g}", rng.choice(b_vals[g]), f"c{c}", rng.choice(d_pair)))
    labs = ["0"] * planted + [str(rng.randrange(labels)) for _ in range(rows - planted)]
    weights = [rng.randrange(1, 6) for _ in range(rows)] if weighted else None
    return Table(
        "chain", ("A", "B", "C", "D"), ((("A",), ("B",)), (("A", "C"), ("D",))), ("B", "D"),
        data, labs, weights,
    )


def write_schema(path: str, table: Table) -> None:
    doc = {
        "attributes": list(table.attrs),
        "fds": [{"lhs": list(lhs), "rhs": list(rhs)} for lhs, rhs in table.fds],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, table: Table) -> dict:
    numeric = {table.index[f] for f in table.features}
    header = list(table.attrs) + ["label"] + (["weight"] if table.weights else [])
    lines = [",".join(header)]
    for i, row in enumerate(table.rows):
        cells = [fmt(v) if j in numeric else v for j, v in enumerate(row)]
        cells.append(table.labels[i])
        if table.weights:
            cells.append(str(table.weights[i]))
        lines.append(",".join(cells))
    blob = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(blob)
    return {"path": os.path.basename(path), "rows": table.n, "sha256": hashlib.sha256(blob).hexdigest()}


def flagged_point(rng: random.Random, table: Table, k: int) -> tuple:
    """An unplanted point that ``checks.flips`` proves not robust."""
    while True:
        point = (_coord(rng), _coord(rng))
        if checks.flips(table, point, 2, k):
            return point


# Sizes per workload. The smoke scale keeps the shape and shrinks the rows.
SIZES = {
    "full": {"pk_rows": 100_000, "dp_big": 1000, "dp_small": 500,
             "count_big": 300, "count_small": 150, "repair_rows": 10_000, "forbid": 50},
    "smoke": {"pk_rows": 2_000, "dp_big": 80, "dp_small": 40,
              "count_big": 40, "count_small": 20, "repair_rows": 400, "forbid": 10},
}

NAMES = ("pk-certify", "chain-certify", "chain-count")


def build(name: str, seed: int, workdir: str, scale: str) -> Workload:
    """Write the inputs of workload ``name`` into ``workdir``; return its calls."""
    size = SIZES[scale]
    os.makedirs(workdir, exist_ok=True)
    schema_path = os.path.join(workdir, "schema.json")
    tables: dict = {}
    files: list = []

    def put(fname: str, table: Table) -> str:
        path = os.path.join(workdir, fname)
        files.append(write_csv(path, table))
        tables[fname] = table
        return path

    def certify(label, path, table, point, k, robust, method):
        argv = ["certify", "--schema", schema_path, "--data", path, "--features",
                ",".join(table.features), "--point", fmt_point(point), "--p", "2", "--k", str(k)]
        check = checks.certify_check(table, point, 2, k, robust, method)
        return Call(label, argv, 0 if robust else 1, check)

    if name == "pk-certify":
        table = pk_table(_rng(name, seed, "pk.csv"), size["pk_rows"], planted=8)
        path = put("pk.csv", table)
        write_schema(schema_path, table)
        flagged = flagged_point(_rng(name, seed, "point"), table, 5)
        calls = [
            certify("robust", path, table, PLANTED_POINT, 5, True, "fastscan"),
            certify("flagged", path, table, flagged, 5, False, "fastscan"),
        ]
    elif name == "chain-certify":
        big = chain_table(_rng(name, seed, "big.csv"), size["dp_big"], planted=4)
        small = chain_table(_rng(name, seed, "small.csv"), size["dp_small"], planted=4)
        big_path, small_path = put("big.csv", big), put("small.csv", small)
        write_schema(schema_path, big)
        flagged = flagged_point(_rng(name, seed, "point"), big, 3)
        calls = [
            certify("robust-big", big_path, big, PLANTED_POINT, 3, True, "dp"),
            certify("robust-small", small_path, small, PLANTED_POINT, 3, True, "dp"),
            certify("flagged-big", big_path, big, flagged, 3, False, "dp"),
        ]
    elif name == "chain-count":
        big = chain_table(_rng(name, seed, "big.csv"), size["count_big"], planted=4)
        small = chain_table(_rng(name, seed, "small.csv"), size["count_small"], planted=4)
        repair = chain_table(_rng(name, seed, "repair.csv"), size["repair_rows"], planted=4,
                             weighted=True)
        big_path, small_path = put("big.csv", big), put("small.csv", small)
        repair_path = put("repair.csv", repair)
        write_schema(schema_path, big)
        forbid = checks.avoidable_ids(repair, size["forbid"], _rng(name, seed, "forbid"))
        ids = ",".join(str(i) for i in forbid)
        calls = []
        for label, path, table in (("count-big", big_path, big), ("count-small", small_path, small)):
            argv = ["count", "--schema", schema_path, "--data", path, "--features",
                    ",".join(table.features), "--point", fmt_point(PLANTED_POINT), "--p", "2",
                    "--k", "3", "--label", "0"]
            calls.append(Call(label, argv, 0, checks.count_check(table, "0")))
        calls.append(Call("min-repair", ["min-repair", "--schema", schema_path, "--data", repair_path],
                          0, checks.min_repair_check(repair)))
        calls.append(Call("forbidden", ["forbidden", "--schema", schema_path, "--data", repair_path,
                                        "--ids", ids], 0, checks.forbidden_check(repair, forbid)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, schema_path, calls, tables, files)
