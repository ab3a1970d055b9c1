"""Bad input never gives a traceback: a seeded fuzz of every subcommand.

Each example draws one subcommand shape, a schema, a table and a formula
that mostly fit together, then spoils some of them: a mutated schema or
header, odd cells, odd flag values, a file that is not UTF-8. It calls
``cli.main`` in process. Whatever the input, the exit code is 0-4, no
exception escapes, exit 0 and 1 print JSON, and every refusal that ``main``
returns prints ``{"error": ...}``. An argparse usage error instead exits 2
through ``SystemExit``, with its message on stderr and nothing on stdout.
Hypothesis draws only a seed: the inputs come from ``random.Random(seed)``,
which keeps each example cheap.
"""

import contextlib
import csv
import io
import json
import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from knncert import cli

SHAPES = ["check-schema", "certify", "certify --weighted", "certify --force-dp", "count",
          "min-repair", "forbidden", "poison-certify", "codd-certify", "orset-certify",
          "gen-hard", "gen-formula", "oracle certify", "oracle count", "oracle min-repair"]
# Cells per column kind: ones every reader takes, then ones some must refuse.
GOOD = {
    "attr": ["0", "1", "2", "-3", " 2 ", "0.5", "-1.250", "1/3", "+.5", "1e1"],
    "label": ["0", "1", "2"],
    "weight": ["1", "2", "5", "0.25", "1/3", " 3 ", "", "1e400"],
    "uncertain": ["1", "0", "yes", "no", ""],
}
ODD = {
    "attr": ["1/0", "1e400", "nan", "inf", "x", "", "<1|2>", "<>", "<1|>", "<x|1>", "[1,3]",
             "[3,1]", "[x,1]", "[1]", "１", "é", "a"],
    "label": ["", " 1"],
    "weight": ["0", "-1", "x", "1/0", "nan", "inf", "1_0", "<1|2>"],
    "rank": ["1.5", "x", "", "1"],
    "uncertain": ["TRUE", "maybe"],
}
CELLS = {"codd-certify": ["[1,3]", "[0,2]", "[-1,-1]"], "orset-certify": ["<1|2>", "<0|3|1>"]}
FDS = [(["A"], ["B"]), ([], ["A"]), (["A"], ["C"]), (["B"], ["C"]), (["A", "B"], ["C"])]
SCHEMA_FAULTS = ["repeated", "not-a-string", "no-fds", "unknown", "fd-not-a-list",
                 "not-json", "undecodable", "missing-file"]
FORMULAS = ["1 2 0\n1 -2 0\n-1 2 0\n", "c note\n1 0\n1 0\n-1 0\n", "1 -2 3 0\n"]
ODD_FORMULAS = ["x 1\n", "0\n", "", "\xe9\n"]


def _often(rng, good, odd, odds=6):
    """A value from ``good``, or one time in ``odds`` from ``odd``."""
    return rng.choice(odd if rng.randrange(odds) == 0 else good)


def _schema(rng, shape, attrs):
    """(whether the file exists, its bytes)."""
    fds = [fd for fd in rng.sample(FDS, rng.randint(0, 2)) if set(fd[0] + fd[1]) <= set(attrs)]
    if shape == "gen-hard" and rng.random() < 0.7:
        attrs, fds = ("A", "B", "C"), FDS[2:4]  # not an lhs chain
    doc = {"attributes": list(attrs), "fds": [{"lhs": l, "rhs": r} for l, r in fds]}
    fault = rng.choice(SCHEMA_FAULTS) if rng.randrange(5) == 0 else None
    if fault == "repeated":
        doc["attributes"].append(attrs[0])
    elif fault == "not-a-string":
        doc["attributes"].append(1)
    elif fault == "no-fds":
        del doc["fds"]
    elif fault == "unknown":
        doc["fds"].append({"lhs": ["Z"], "rhs": ["A"]})
    elif fault == "fd-not-a-list":
        doc["fds"] = rng.choice([{"A": "B"}, [["A", "B"]], [{"lhs": "A", "rhs": 1}]])
    text = json.dumps(doc)
    text = {"not-json": text[:-1], "undecodable": text.replace('"A"', '"\xe9"', 1)}.get(fault, text)
    return fault != "missing-file", text.encode("latin-1")


def _table(rng, shape, attrs):
    """The table's bytes and header: a few rows, odd cells in one table of
    two."""
    odds = rng.choice([1000, 8])
    reserved = ["label"] + [c for c in ("weight", "rank", "uncertain")
                            if rng.randrange(12 if shape in CELLS else 3) == 0]
    header = list(attrs) + reserved
    rng.shuffle(header)
    fault = rng.choice(["none"] * 12 + ["drop", "repeat", "no-label", "bom"])
    if fault == "drop":
        header = header[1:]
    elif fault == "repeat":
        header.append(header[0])
    n = rng.randint(0, 6)
    ranks = rng.sample(range(1, n + 1), n)
    rows = []
    for i in range(n):
        row = []
        for col in header:
            kind = col if col in ODD else "attr"
            good = [str(ranks[i])] if kind == "rank" else GOOD[kind] + CELLS.get(shape, [])
            row.append(_often(rng, good, ODD[kind], odds))
        if rng.randrange(20) == 0:  # a ragged row
            row = row[1:] if rng.random() < 0.5 else row + ["1"]
        rows.append(row)
    if fault == "no-label":
        header = [h if h != "label" else "lab" for h in header]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + rows)
    blob = ("\ufeff" if fault == "bom" else "") + buf.getvalue()
    return blob.encode() + (b"\xff\n" if rng.randrange(25) == 0 else b""), header


def _instance(rng, attrs, header, k=True):
    """The flags of an instance subcommand: features, order and k."""
    features = [a for a in attrs if rng.random() < 0.5] or [attrs[0]]
    features = _often(rng, [features], [[], ["Z"], ["label"]], odds=12)
    argv = ["--features", ",".join(features)]
    order = _often(rng, ["point", "rank"] if "rank" in header else ["point"], ["rank", "both"], 12)
    if order != "rank":
        coords = [_often(rng, ["0", "1", "-2", "1/2", "0.5"], ["x", "1/0", "", "1e400"], odds=10)
                  for _ in features]
        coords = _often(rng, [coords], [coords[1:], coords + ["1"]], odds=10)
        argv += ["--point", ",".join(coords), "--p", _often(rng, ["1", "2"], ["3", "0", "-1"])]
    if order != "point":
        argv += ["--use-rank"]
    if k:
        argv += ["--k", _often(rng, ["1", "2", "3"], ["7", "0", "-1"])]
    return argv


def cli_call(seed):
    """(schema, table, formula, argv): the files as bytes, and one
    ``cli.main`` argv with ``{dir}`` for the directory that holds them."""
    rng = random.Random(seed)
    shape = rng.choice(SHAPES)
    attrs = rng.choice([("A",), ("A", "B"), ("A", "B", "C")])
    present, schema = _schema(rng, shape, attrs)
    table, header = _table(rng, shape, _often(rng, [attrs], [("B",), ("A", "C"), ("C", "B", "A")]))
    formula = _often(rng, FORMULAS, ODD_FORMULAS).encode("latin-1")
    argv = shape.split()
    at = ["--schema", "{dir}/s.json" if present else "{dir}/none.json"]
    data = ["--data", "{dir}/d.csv"]
    if shape == "check-schema":
        argv += at
    elif shape in ("min-repair", "forbidden"):
        argv += at + data
        if shape == "forbidden":
            argv += ["--ids", _often(rng, ["0", "0,1", "1,2,3"], ["", "x", "-1", "99", "1,1"])]
    elif shape in CELLS:
        argv += data + [a for a in _instance(rng, attrs, header) if a != "--use-rank"]
        if "--point" not in argv:
            argv += ["--point", "0"]
        if shape == "orset-certify" and rng.random() < 0.5:
            argv += ["--cap", rng.choice(["1", "100"])]
    elif shape == "gen-hard":
        argv += at + ["--formula", "{dir}/f.cnf", "--k", _often(rng, ["1", "2"], ["0"]),
                      "--out", _often(rng, ["{dir}/h.csv"], ["{dir}/no/h.csv"]),
                      "--point-out", "{dir}/p.json"]
    elif shape == "gen-formula":
        argv += ["--vars", _often(rng, ["1", "3"], ["0", "-1"]),
                 "--out", _often(rng, ["{dir}/g.cnf"], ["{dir}/no/g.cnf"])]
    elif shape == "poison-certify":
        argv += rng.choice([[], at]) + data + _instance(rng, attrs, header)
        argv += ["--budget", _often(rng, ["0", "1", "2"], ["9", "-1"])]
    else:
        argv += at + data + _instance(rng, attrs, header, k=shape != "oracle min-repair")
        if shape.endswith("count"):
            argv += ["--label", _often(rng, ["0", "1"], ["9"])]
        if shape.startswith("oracle") and rng.random() < 0.5:
            argv += ["--cap", rng.choice(["0", "3", "20"])]
    return schema, table, formula, argv


@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_subcommand_answers_bad_input_with_an_exit_code(seed):
    *files, argv = cli_call(seed)
    with tempfile.TemporaryDirectory() as tmp:
        for name, blob in zip(("s.json", "d.csv", "f.cnf"), files):
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(blob)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([a.format(dir=tmp) for a in argv])
        except SystemExit as usage:  # argparse: a usage error on stderr
            assert (usage.code, out.getvalue()) == (2, "") and err.getvalue()
            return
    assert code in range(5)
    payload = json.loads(out.getvalue())
    if code >= cli.EXIT_INPUT:
        assert list(payload) == ["error"] and isinstance(payload["error"], str)
