"""A CLI call loads only the code its subcommand runs.

Every chain subcommand, and ``check-schema``, runs in a fresh interpreter
without importing numpy: only the primary-key scan needs it. Neither they
nor the primary-key ``certify`` import ``models``, ``hardgen`` or
``oracle``, which only the uncertainty-model, generator and oracle
subcommands run. The dispatch itself is unchanged: a key schema still goes
to the scan, and a key schema whose block holds identical rows still falls
back to the DP.
"""

import json
import os
import subprocess
import sys

import pytest

import knncert
from knncert import cli

CHAIN_SCHEMA = {"attributes": ["A", "B", "C"], "fds": [{"lhs": ["A"], "rhs": ["B"]}]}
CHAIN_CSV = "A,B,C,label\n1,0,a,0\n1,2,b,0\n2,0,a,2\n2,5,c,1\n3,1,a,0\n4,2,d,2\n"
KEY_SCHEMA = {"attributes": ["K", "X"], "fds": [{"lhs": ["K"], "rhs": ["X"]}]}
POINT = ["--features", "A,B", "--point", "0,0", "--p", "1", "--k", "3"]

# Runs each argv through cli.main in one fresh interpreter and reports, after
# each call, its exit code, its output and whether numpy has been imported.
RUNNER = """
import contextlib, io, json, sys
from knncert import cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    print(json.dumps([code, json.loads(out.getvalue()), "numpy" in sys.modules]))
"""


def run_fresh(argvs, runner=RUNNER):
    src = os.path.dirname(os.path.dirname(os.path.abspath(knncert.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", runner, json.dumps(argvs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def write(tmp_path, name, schema, csv_text):
    (tmp_path / f"{name}.json").write_text(json.dumps(schema))
    (tmp_path / f"{name}.csv").write_text(csv_text)
    return ["--schema", str(tmp_path / f"{name}.json"), "--data", str(tmp_path / f"{name}.csv")]


def test_chain_subcommands_never_import_numpy(tmp_path):
    files = write(tmp_path, "chain", CHAIN_SCHEMA, CHAIN_CSV)
    calls = {
        "check-schema": ["check-schema", files[0], files[1]],
        "certify": ["certify", *files, *POINT],
        "certify --force-dp": ["certify", *files, *POINT, "--force-dp"],
        "certify --weighted": ["certify", *files, *POINT, "--weighted"],
        "count": ["count", *files, *POINT, "--label", "0"],
        "min-repair": ["min-repair", *files],
        "forbidden": ["forbidden", *files, "--ids", "0"],
    }
    results = dict(zip(calls, run_fresh(list(calls.values()))))
    for name, (code, out, numpy_loaded) in results.items():
        assert code == 0 and "error" not in out, (name, out)
        assert not numpy_loaded, f"{name} imported numpy"
    for name in ("certify", "certify --force-dp", "certify --weighted"):
        assert results[name][1]["method"] == "dp"


# Like RUNNER, but reports which of the modules that only other subcommands
# run have been imported after each call.
MODULES_RUNNER = """
import contextlib, io, json, sys
from knncert import cli
OTHERS = ("knncert.models", "knncert.hardgen", "knncert.oracle")
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    loaded = [m for m in OTHERS if m in sys.modules]
    print(json.dumps([code, json.loads(out.getvalue()), loaded]))
"""


def test_core_subcommands_never_import_models_hardgen_or_oracle(tmp_path):
    chain = write(tmp_path, "chain", CHAIN_SCHEMA, CHAIN_CSV)
    key = write(tmp_path, "key", KEY_SCHEMA, "K,X,label\na,1,0\na,2,1\nb,3,0\n")
    calls = {
        "check-schema": ["check-schema", chain[0], chain[1]],
        "certify (chain)": ["certify", *chain, *POINT],
        "certify (key)": ["certify", *key, "--features", "X", "--point", "0", "--k", "1"],
        "count": ["count", *chain, *POINT, "--label", "0"],
        "min-repair": ["min-repair", *chain],
        "forbidden": ["forbidden", *chain, "--ids", "0"],
    }
    results = dict(zip(calls, run_fresh(list(calls.values()), MODULES_RUNNER)))
    assert results["certify (key)"][1]["method"] == "fastscan"
    for name, (code, out, loaded) in results.items():
        assert code in (0, 1) and "error" not in out, (name, out)
        assert loaded == [], f"{name} imported {loaded}"


# The FDs {} -> K, X make the empty set the key: the whole table is one block.
EMPTY_KEY_SCHEMA = {"attributes": ["K", "X"], "fds": [{"lhs": [], "rhs": ["K", "X"]}]}


@pytest.mark.parametrize("schema", [KEY_SCHEMA, EMPTY_KEY_SCHEMA])
def test_key_schema_still_takes_the_scan(tmp_path, schema):
    files = write(tmp_path, "key", schema, "K,X,label\na,1,0\na,2,1\nb,3,0\n")
    ((code, out, numpy_loaded),) = run_fresh([["certify", *files, "--features", "X",
                                               "--point", "0", "--k", "1"]])
    assert (code, out["method"], numpy_loaded) == (1, "fastscan", True)


def test_identical_rows_in_a_block_fall_back_to_the_dp(tmp_path, capsys):
    # The schema is a key, but the two rows of block a are identical, so they
    # coexist in every repair and the block model does not apply.
    files = write(tmp_path, "key", KEY_SCHEMA, "K,X,label\na,1,0\na,1,1\nb,3,0\n")
    code = cli.main(["certify", *files, "--features", "X", "--point", "0", "--k", "1"])
    out = json.loads(capsys.readouterr().out)
    assert (code, out["method"], out["robust"]) == (0, "dp", True)


LOAD_RUNNER = """
import sys
from knncert import ingest
dataset, _, _ = ingest.load_dataset(sys.argv[2], ingest.load_schema(sys.argv[1]), ["X"])
print(dataset.size, "numpy" in sys.modules)
"""


def test_loading_a_key_schema_csv_never_imports_numpy(tmp_path):
    # Ingest is shared with the chain subcommands, so its batch parsing
    # stays pure Python even on a primary-key table of several batches.
    rows = "".join(f"k{i // 2},{i}.{i % 10},{i % 3}\n" for i in range(3000))
    files = write(tmp_path, "key", KEY_SCHEMA, "K,X,label\n" + rows)
    src = os.path.dirname(os.path.dirname(os.path.abspath(knncert.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_RUNNER, files[1], files[3]],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3000", "False"]
