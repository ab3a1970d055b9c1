import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knncert
from knncert import cli, counting

import helpers

EXAMPLE_SCHEMA = {"attributes": ["A", "B", "C"], "fds": [{"lhs": ["A"], "rhs": ["B"]}]}
EXAMPLE_CSV = """A,B,C,label
1,0,a,0
1,2,b,0
2,0,a,2
2,5,c,1
3,1,a,0
4,2,d,2
"""
NONCHAIN_SCHEMA = {
    "attributes": ["A", "B", "C"],
    "fds": [{"lhs": ["A"], "rhs": ["C"]}, {"lhs": ["B"], "rhs": ["C"]}],
}


@pytest.fixture
def example_files(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(EXAMPLE_SCHEMA))
    data = tmp_path / "data.csv"
    data.write_text(EXAMPLE_CSV)
    return str(schema), str(data)


@pytest.fixture
def figure3_files(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"attributes": ["K", "V"], "fds": [{"lhs": ["K"], "rhs": ["V"]}]}))
    lines = ["K,V,label,rank"]
    for i, (block, label) in enumerate(zip(helpers.FIG3_BLOCKS, helpers.FIG3_LABELS)):
        lines.append(f"{block},{i + 1},{label},{i + 1}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    return str(schema), str(data)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheckSchema:
    def test_non_chain(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(NONCHAIN_SCHEMA))
        code, payload = run(capsys, ["check-schema", "--schema", str(path)])
        assert code == 0
        assert payload == {"lhs_chain": False, "trace": ["stuck"]}

    def test_chain(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "attributes": ["A", "B", "C", "D"],
                    "fds": [
                        {"lhs": ["A", "B"], "rhs": ["C"]},
                        {"lhs": ["B"], "rhs": ["D"]},
                    ],
                }
            )
        )
        code, payload = run(capsys, ["check-schema", "--schema", str(path)])
        assert code == 0 and payload["lhs_chain"] is True

    @pytest.mark.parametrize("doc, name, value", [
        ({"attributes": ["AB", "A", "B", "C"], "fds": [{"lhs": "AB", "rhs": ["C"]}]}, "lhs", "AB"),
        ({"attributes": ["A", "B"], "fds": [{"lhs": ["A"], "rhs": "B"}]}, "rhs", "B"),
        ({"attributes": "AB", "fds": []}, "attributes", "AB"),
        ({"attributes": ["A", "B"], "fds": [{"lhs": {"A": 1}, "rhs": ["B"]}]}, "lhs", {"A": 1}),
    ], ids=["lhs", "rhs", "attributes", "object"])
    def test_fields_must_be_json_lists(self, tmp_path, capsys, doc, name, value):
        # Read as an iterable, the string "AB" would be the lhs {A, B}.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, payload = run(capsys, ["check-schema", "--schema", str(path)])
        error = f"malformed schema {path}: {name!r} must be a JSON list, got {value!r}"
        assert (code, payload) == (2, {"error": error})

    def test_attribute_names_must_be_strings(self, tmp_path, capsys):
        # A number among the names used to escape as a TypeError when a
        # table missed it and a named attribute, as sorting mixed the two.
        path, data = tmp_path / "s.json", tmp_path / "d.csv"
        path.write_text(json.dumps({"attributes": ["A", 1], "fds": []}))
        data.write_text("B,label\n1,0\n")
        code, payload = run(capsys, ["certify", "--schema", str(path), "--data", str(data),
                                     "--features", "B", "--point", "0", "--k", "1"])
        assert (code, payload) == (2, {"error": "attribute names must be strings"})

    def test_a_schema_needs_an_attribute(self, tmp_path, capsys):
        path, data = tmp_path / "s.json", tmp_path / "d.csv"
        path.write_text(json.dumps({"attributes": [], "fds": []}))
        data.write_text("A,label\n1,0\n")
        code, payload = run(capsys, ["certify", "--schema", str(path), "--data", str(data),
                                     "--features", "A", "--point", "0", "--k", "1"])
        assert (code, payload) == (2, {"error": "schema needs at least one attribute"})


CERT_ARGS = ["--features", "A,B", "--point", "0,0", "--p", "1", "--k", "3"]

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**200).map(lambda v: -v),
    st.integers(2**64, 2**200), st.floats(allow_nan=False), st.text(),
    st.text(alphabet=st.characters(min_codepoint=0x80)),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.lists(st.integers(), max_size=6),
                            st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
                            st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=20,
)


class TestEmit:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=5))
    def test_bytes_match_json_dumps(self, payload):
        # Empty containers, bools among ints, ints past 2^64, non-ASCII text.
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(payload)
        assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


# Reports OPENBLAS_NUM_THREADS after a key-schema certify in a fresh
# interpreter, and whether the certify loaded numpy.
BLAS_RUNNER = """
import contextlib, io, json, os, sys
from knncert import cli
before = os.environ.get("OPENBLAS_NUM_THREADS")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([before, code, os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_cli_pins_openblas_to_one_thread_unless_set(tmp_path, preset, want):
    (tmp_path / "s.json").write_text(json.dumps({"attributes": ["K", "X"],
                                                 "fds": [{"lhs": ["K"], "rhs": ["X"]}]}))
    (tmp_path / "d.csv").write_text("K,X,label\na,1,0\na,2,1\nb,3,0\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(knncert.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    argv = ["certify", "--schema", str(tmp_path / "s.json"), "--data", str(tmp_path / "d.csv"),
            "--features", "X", "--point", "0", "--k", "1"]
    proc = subprocess.run([sys.executable, "-c", BLAS_RUNNER, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # Importing the package leaves the environment alone; main sets it.
    assert json.loads(proc.stdout) == [preset, 1, want, True]


class TestCertify:
    def test_example_robust_exit_zero(self, example_files, capsys):
        schema, data = example_files
        code, payload = run(capsys, ["certify", "--schema", schema, "--data", data] + CERT_ARGS)
        assert code == 0
        assert payload["robust"] is True
        assert payload["certain_label"] == "0"
        assert payload["method"] == "dp"

    def test_figure3_not_robust_exit_one(self, figure3_files, capsys):
        schema, data = figure3_files
        code, payload = run(
            capsys,
            ["certify", "--schema", schema, "--data", data, "--use-rank", "--k", "3"],
        )
        assert code == 1
        assert payload["robust"] is False
        assert payload["method"] == "fastscan"
        assert len(payload["witnesses"]) == 2

    def test_force_dp_agrees(self, figure3_files, capsys):
        schema, data = figure3_files
        code, payload = run(
            capsys,
            ["certify", "--schema", schema, "--data", data, "--use-rank", "--k", "3", "--force-dp"],
        )
        assert code == 1 and payload["method"] == "dp"

    def test_non_chain_refused_exit_three(self, tmp_path, example_files, capsys):
        _, data = example_files
        schema = tmp_path / "nc.json"
        schema.write_text(json.dumps(NONCHAIN_SCHEMA))
        code, payload = run(
            capsys, ["certify", "--schema", str(schema), "--data", data] + CERT_ARGS
        )
        assert code == 3
        assert "oracle" in payload["error"]

    def test_byte_identical_output(self, example_files, capsys):
        schema, data = example_files
        argv = ["certify", "--schema", schema, "--data", data] + CERT_ARGS
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_weighted_flag(self, example_files, capsys):
        schema, data = example_files
        code, payload = run(
            capsys,
            ["certify", "--schema", schema, "--data", data, "--weighted"] + CERT_ARGS,
        )
        assert code == 0 and payload["robust"] is True

    def test_weight_column_changes_the_vote(self, tmp_path, capsys):
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps({"attributes": ["A"], "fds": []}))
        data = tmp_path / "d.csv"
        data.write_text("A,label,weight\n1,0,1\n2,0,1\n3,1,5\n")
        base = ["certify", "--schema", str(schema), "--data", str(data),
                "--features", "A", "--point", "0", "--p", "1", "--k", "3"]
        _, plain = run(capsys, base)
        _, weighted = run(capsys, base + ["--weighted"])
        assert plain["certain_label"] == "0"
        assert weighted["certain_label"] == "1"
        assert weighted["method"] == "dp"

    def test_missing_point_is_input_error(self, example_files, capsys):
        schema, data = example_files
        code, payload = run(
            capsys,
            ["certify", "--schema", schema, "--data", data, "--features", "A,B", "--k", "3"],
        )
        assert code == 2 and "error" in payload


KEY_SCHEMA = {"attributes": ["K", "X"], "fds": [{"lhs": ["K"], "rhs": ["X"]}]}


def keyed_files(tmp_path, csv_text):
    schema = tmp_path / "key.json"
    schema.write_text(json.dumps(KEY_SCHEMA))
    data = tmp_path / "key.csv"
    data.write_text(csv_text)
    return ["--schema", str(schema), "--data", str(data), "--features", "X", "--point", "0"]


class TestMalformedCsv:
    @pytest.mark.parametrize("row, cells", [("a,1", 2), ("a,1,0,9,9", 5)])
    def test_row_width_must_match_header(self, tmp_path, capsys, row, cells):
        files = keyed_files(tmp_path, f"K,X,label\nb,2,1\n{row}\n")
        code, payload = run(capsys, ["certify", *files, "--k", "1"])
        assert code == 2
        assert payload == {"error": f"row 1: expected 3 cells, got {cells}"}

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        files = keyed_files(tmp_path, "K,X,label\n\na,1,0\n\na,2,1\n\n")
        code, payload = run(capsys, ["certify", *files, "--k", "1"])
        assert code == 1
        assert [w["repair_ids"] for w in payload["witnesses"]] == [[0], [1]]


# Every subcommand that loads an instance and takes --k, with the flags it
# needs besides the instance files; the oracle ones take their own subcommand.
INSTANCE_COMMANDS = {
    "certify": ["certify"],
    "certify-dp": ["certify", "--force-dp"],
    "count": ["count", "--label", "0"],
    "poison-certify": ["poison-certify", "--budget", "1"],
    "oracle-certify": ["oracle", "certify"],
    "oracle-count": ["oracle", "count", "--label", "0"],
}
GOOD_KEYED = "K,X,label\na,1,0\nb,2,1\nc,3,0\n"
MALFORMED = {
    "non-numeric": ("K,X,label\na,1,0\nb,x,1\nc,y,0\n", [], "non-numeric feature value in tuple 1"),
    "p-zero": (GOOD_KEYED, ["--p", "0"], "p must be an integer >= 1"),
    "k-zero": (GOOD_KEYED, ["--k", "0"], "k must be >= 1"),
    "duplicate-ranks": (
        "K,X,label,rank\na,1,0,1\nb,2,1,1\n", ["--use-rank"],
        "row 1: rank column must hold distinct integers",
    ),
    "empty-label-before-ragged": ("K,X,label\na,1,0\nb,2,\nc\n", [], "row 1: empty label"),
    "unknown-label": (GOOD_KEYED, ["--label", "9"], "unknown label '9'"),
}
MALFORMED_CASES = [
    (command, case)
    for command in INSTANCE_COMMANDS
    for case in MALFORMED
    if case != "unknown-label" or "--label" in INSTANCE_COMMANDS[command]
]


@pytest.mark.parametrize("command, case", MALFORMED_CASES)
def test_malformed_input_exits_two_with_json_error(tmp_path, capsys, command, case):
    csv_text, extra, message = MALFORMED[case]
    # A later flag overrides an earlier one, so ``extra`` can replace a value.
    argv = INSTANCE_COMMANDS[command] + keyed_files(tmp_path, csv_text) + ["--k", "1"] + extra
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert json.loads(captured.out) == {"error": message}
    assert captured.err == ""


HARD_TARGET = {
    "attributes": ["A", "B"],
    "fds": [{"lhs": ["A"], "rhs": ["B"]}, {"lhs": ["B"], "rhs": ["A"]}],
}
GEN_HARD = ["gen-hard", "--formula", "{dir}/phi.cnf3r", "--schema", "{dir}/target.json"]
# Output paths inside a directory that does not exist: (argv, the path the
# error must name).
UNWRITABLE = {
    "gen-formula": (["gen-formula", "--vars", "3", "--out", "{dir}/no/f.cnf"], "{dir}/no/f.cnf"),
    "gen-hard-out": (
        GEN_HARD + ["--out", "{dir}/no/d.csv", "--point-out", "{dir}/p.json"], "{dir}/no/d.csv"
    ),
    "gen-hard-point-out": (
        GEN_HARD + ["--out", "{dir}/d.csv", "--point-out", "{dir}/no/p.json"], "{dir}/no/p.json"
    ),
}


@pytest.mark.parametrize("case", UNWRITABLE)
def test_unwritable_output_exits_two_with_json_error(tmp_path, capsys, case):
    (tmp_path / "phi.cnf3r").write_text("1 2 0\n1 2 0\n-1 -2 0\n")
    (tmp_path / "target.json").write_text(json.dumps(HARD_TARGET))
    argv, path = UNWRITABLE[case]
    code = cli.main([a.format(dir=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    error = json.loads(captured.out)["error"]
    assert error.startswith(f"cannot write {path.format(dir=tmp_path)}: ")
    assert captured.err == ""


@pytest.mark.parametrize("case", ["gen-hard-out", "gen-hard-point-out"])
def test_gen_hard_writes_nothing_when_one_output_fails(tmp_path, capsys, case):
    (tmp_path / "phi.cnf3r").write_text("1 2 0\n1 2 0\n-1 -2 0\n")
    (tmp_path / "target.json").write_text(json.dumps(HARD_TARGET))
    argv, path = UNWRITABLE[case]
    code = cli.main([a.format(dir=tmp_path) for a in argv])
    assert code == cli.EXIT_INPUT
    assert path.format(dir=tmp_path) in json.loads(capsys.readouterr().out)["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phi.cnf3r", "target.json"]


def test_gen_hard_keeps_an_existing_out_when_point_out_fails(tmp_path, capsys):
    (tmp_path / "phi.cnf3r").write_text("1 2 0\n1 2 0\n-1 -2 0\n")
    (tmp_path / "target.json").write_text(json.dumps(HARD_TARGET))
    (tmp_path / "d.csv").write_text("kept\n")
    argv, _ = UNWRITABLE["gen-hard-point-out"]
    assert cli.main([a.format(dir=tmp_path) for a in argv]) == cli.EXIT_INPUT
    capsys.readouterr()
    assert (tmp_path / "d.csv").read_text() == "kept\n"


def pk_csv(rng, blocks, planted):
    """A keyed table in three-place decimals: ``planted`` label-0 singleton
    blocks next to the origin, then two-tuple blocks with random labels."""
    lines = ["K,X,Y,label"]
    for i in range(planted):
        lines.append(f"p{i},0.{i + 1:03d},0.{i + 1:03d},0")
    for b in range(blocks):
        for _ in range(2):
            x, y = rng.randrange(1000, 100_000), rng.randrange(1000, 100_000)
            cells = (f"k{b}", f"{x // 1000}.{x % 1000:03d}", f"{y // 1000}.{y % 1000:03d}")
            lines.append(",".join(cells + (str(rng.randrange(3)),)))
    return "\n".join(lines) + "\n"


class TestFastscanAgreesWithDp:
    """The primary-key scan and the general DP on the same CLI inputs."""

    def agree(self, tmp_path, capsys, csv_text, point):
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps(
            {"attributes": ["K", "X", "Y"], "fds": [{"lhs": ["K"], "rhs": ["X", "Y"]}]}
        ))
        data = tmp_path / "d.csv"
        data.write_text(csv_text)
        argv = ["certify", "--schema", str(schema), "--data", str(data), "--features", "X,Y",
                "--point", point, "--p", "2", "--k", "5"]
        code, scan = run(capsys, argv)
        dp_code, dp = run(capsys, argv + ["--force-dp"])
        assert (scan["method"], dp["method"]) == ("fastscan", "dp")
        assert code == dp_code
        assert (scan["robust"], scan["certain_label"]) == (dp["robust"], dp["certain_label"])
        if scan["robust"]:
            assert scan["possible_labels"] == dp["possible_labels"] == [scan["certain_label"]]
        else:
            # Both start from the same greedy repair. The challenger witnesses
            # differ, and one may end in a tie where the other names a label,
            # so each path's possible_labels is checked against its witnesses.
            assert scan["witnesses"][0] == dp["witnesses"][0]
            for out in (scan, dp):
                named = {w["predicted"].get("label") for w in out["witnesses"]} - {None}
                assert out["possible_labels"] == sorted(named)
        return scan

    def test_random_point_on_thousands_of_rows(self, tmp_path, capsys):
        csv_text = pk_csv(random.Random(21), blocks=1500, planted=4)
        scan = self.agree(tmp_path, capsys, csv_text, "50.123,40.456")
        assert scan["robust"] is False and len(scan["witnesses"][1]["repair_ids"]) == 1504

    def test_planted_point(self, tmp_path, capsys):
        csv_text = pk_csv(random.Random(22), blocks=1500, planted=6)
        scan = self.agree(tmp_path, capsys, csv_text, "0.000,0.000")
        assert scan["robust"] is True and scan["certain_label"] == "0"


def child_env():
    """The environment of a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(knncert.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_broken_pipe_exits_without_traceback(tmp_path):
    # Two witnesses of 5000 ids each are far more than a pipe buffer holds,
    # so the write fails once the reader has closed its end.
    rows = [f"{b},{2 * b + j},{j}" for b in range(5000) for j in (0, 1)]
    files = keyed_files(tmp_path, "K,X,label\n" + "\n".join(rows) + "\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "knncert.cli", "certify", *files, "--p", "1", "--k", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert proc.stdout.read(20).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_an_unbounded_p_is_refused_before_any_power(tmp_path):
    # 5**(2**63) has about 2**64 bits: without the refusal the child would
    # run for hours, so the timeout is the test.
    files = keyed_files(tmp_path, "K,X,label\na,5,0\nb,0,1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "knncert.cli", "certify", *files, "--k", "1", "--p", str(2**63)],
        capture_output=True, text=True, env=child_env(), timeout=20,
    )
    assert proc.returncode == cli.EXIT_INPUT
    assert json.loads(proc.stdout)["error"].startswith(f"p = {2**63} is too large")


# The CLI in a child limited to 1 GiB of address space, so a table sized by
# k fails at once instead of filling the machine.
LIMITED_CLI = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
               "from knncert import cli; sys.exit(cli.main(sys.argv[1:]))")


@pytest.mark.parametrize("argv", [["certify", "--force-dp"], ["count", "--label", "0"]])
def test_k_past_the_row_count_answers_as_rows_plus_one(tmp_path, argv):
    schema, data = tmp_path / "s.json", tmp_path / "d.csv"
    schema.write_text(json.dumps({"attributes": ["A", "B"], "fds": [{"lhs": ["A"], "rhs": ["B"]}]}))
    data.write_text("A,B,label\n1,1,0\n1,2,1\n2,1,0\n3,1,1\n")

    def answer(k):
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, *argv, "--schema", str(schema), "--data",
             str(data), "--features", "A", "--point", "0", "--k", str(k)],
            capture_output=True, env=child_env(), timeout=120,
        )
        return proc.returncode, proc.stdout

    assert answer(10**9) == answer(5)


class TestCount:
    def test_example_counts(self, example_files, capsys):
        schema, data = example_files
        for label, want in (("0", "4"), ("1", "0"), ("2", "0")):
            code, payload = run(
                capsys,
                ["count", "--schema", schema, "--data", data, "--label", label] + CERT_ARGS,
            )
            assert code == 0
            assert payload == {"label": label, "count": want, "total_repairs": "4"}

    def test_builds_the_tree_once(self, example_files, capsys, monkeypatch):
        # Two partition passes and no node tree: count_label's lays out its
        # Sweep, count_repairs's evaluates (1, sum, product).
        calls = []

        def counted(*args):
            calls.append("nodes" if len(args) == 4 else "algebra")
            return build_tree(*args)

        build_tree = counting.build_tree
        monkeypatch.setattr(counting, "build_tree", counted)
        schema, data = example_files
        code, payload = run(
            capsys, ["count", "--schema", schema, "--data", data, "--label", "0"] + CERT_ARGS
        )
        assert (code, payload["count"], payload["total_repairs"]) == (0, "4", "4")
        assert calls == ["algebra", "algebra"]


class TestMinRepairAndForbidden:
    def test_min_repair(self, example_files, capsys):
        schema, data = example_files
        code, payload = run(capsys, ["min-repair", "--schema", schema, "--data", data])
        assert code == 0
        assert payload == {"repair_ids": [0, 2, 4, 5], "weight": "4"}

    def test_forbidden_exists(self, example_files, capsys):
        schema, data = example_files
        code, payload = run(
            capsys, ["forbidden", "--schema", schema, "--data", data, "--ids", "0"]
        )
        assert code == 0
        assert payload["exists"] is True and 0 not in payload["repair_ids"]

    def test_forbidden_impossible(self, example_files, capsys):
        schema, data = example_files
        code, payload = run(
            capsys, ["forbidden", "--schema", schema, "--data", data, "--ids", "0,1"]
        )
        assert code == 0
        assert payload == {"exists": False, "repair_ids": None}

    def test_forbidden_bad_ids(self, example_files, capsys):
        schema, data = example_files
        code, payload = run(
            capsys, ["forbidden", "--schema", schema, "--data", data, "--ids", "0,x"]
        )
        assert code == 2 and "error" in payload


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["count", "--label", "0"] + CERT_ARGS, 3,
         "counting requires an lhs-chain-equivalent schema"),
        (["min-repair"], 3, "min-repair requires an lhs-chain-equivalent schema"),
        (["forbidden", "--ids", "0"], 3, "forbidden-repair requires an lhs-chain-equivalent schema"),
        (["certify"] + CERT_ARGS, 2, "--schema is required for this command"),
    ],
)
def test_refusals_name_what_is_missing(tmp_path, example_files, capsys, argv, code, error):
    _, data = example_files
    schema = tmp_path / "nonchain.json"
    schema.write_text(json.dumps(NONCHAIN_SCHEMA))
    if argv[0] != "certify":
        argv = argv + ["--schema", str(schema)]
    assert run(capsys, argv + ["--data", data]) == (code, {"error": error})


@pytest.mark.parametrize(
    "argv",
    [
        ["min-repair"],
        ["forbidden", "--ids", "0"],
        ["count", "--label", "0"] + CERT_ARGS,
        ["certify", "--force-dp"] + CERT_ARGS,
    ],
)
def test_chain_paths_never_read_the_tuples_view(example_files, capsys, monkeypatch, argv):
    def refuse(dataset):
        raise AssertionError("the tuples view was read")

    schema, data = example_files
    want = run(capsys, argv + ["--schema", schema, "--data", data])
    monkeypatch.setattr(knncert.LabeledDataset, "tuples", property(refuse))
    got = run(capsys, argv + ["--schema", schema, "--data", data])
    assert got == want and got[0] == 0


class TestPoisonCertify:
    def test_budget_zero_matches_plain_prediction(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("A,label\n1,0\n2,0\n3,1\n4,1\n5,1\n")
        base = [
            "poison-certify", "--data", str(data), "--features", "A", "--point", "0",
            "--p", "1", "--k", "3",
        ]
        code, payload = run(capsys, base + ["--budget", "0"])
        assert code == 0 and payload["robust"] is True

        code, payload = run(capsys, base + ["--budget", "2"])
        assert code == 1 and payload["robust"] is False
        assert payload["uncertain_count"] == 5

    def test_all_zero_uncertain_column_means_nothing_deletable(self, tmp_path, capsys):
        # An explicit column of zeros is an empty marking, so any positive
        # budget has nothing to spend on and is rejected as inconsistent.
        data = tmp_path / "d.csv"
        data.write_text("A,label,uncertain\n1,0,0\n2,0,0\n3,1,0\n")
        code, payload = run(
            capsys,
            ["poison-certify", "--data", str(data), "--features", "A", "--point", "0",
             "--p", "1", "--k", "1", "--budget", "1"],
        )
        assert code == 2 and "budget" in payload["error"]

    def test_uncertain_column_restricts_deletions(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text(
            "A,label,uncertain\n1,0,0\n2,0,0\n3,1,1\n4,1,1\n5,1,1\n"
        )
        base = [
            "poison-certify", "--data", str(data), "--features", "A", "--point", "0",
            "--p", "1", "--k", "3",
        ]
        # Only label-1 tuples are deletable; removing them cannot help label 1.
        code, payload = run(capsys, base + ["--budget", "2"])
        assert code == 0 and payload["robust"] is True


# ?-set instances over A = 1..n at --point 0 --p 1, so rank follows the row:
# labels by rank, marked rows, budget, k, then the exit code, certain label,
# possible labels and witnesses, each (predicted label or None for a tie,
# repair ids). The expected payloads were computed by the earlier
# evicting-window scan, an independent implementation of the same search.
QSET_PINNED = {
    "tie": ("1,1,2,1,0", {1, 2, 3}, 3, 2, 1, None, ["1"], [("1", [0, 1, 2, 3, 4]), (None, [0, 4])]),
    "budget-out": ("0,0,1,0,1,1", {0, 1, 3}, 1, 3, 0, "0", ["0"], []),
    "marks-out": ("0,0,1,0,1,1", {0, 5}, 2, 3, 0, "0", ["0"], []),
    "neutral-first": (
        "1,2,0,1,1,2,1,0,2,1", {1, 4, 5, 6, 7, 8}, 4, 4, 1, None, ["1"],
        [("1", list(range(10))), (None, [0, 2, 3, 7, 8, 9])],
    ),
    "deep": (
        "0,1,0,2,0,1,1,0", {0, 1, 2, 4}, 3, 3, 1, None, ["0"],
        [("0", list(range(8))), (None, [1, 2, 3, 4, 5, 6, 7])],
    ),
}


@pytest.mark.parametrize("case", list(QSET_PINNED))
def test_poison_certify_witnesses_are_pinned(tmp_path, capsys, case):
    labels, marked, budget, k, code, certain, possible, witnesses = QSET_PINNED[case]
    data = tmp_path / "d.csv"
    data.write_text("A,label,uncertain\n" + "".join(
        f"{i + 1},{label},{int(i in marked)}\n" for i, label in enumerate(labels.split(","))))
    got = run(capsys, ["poison-certify", "--data", str(data), "--features", "A", "--point", "0",
                       "--p", "1", "--k", str(k), "--budget", str(budget)])
    assert got == (code, {
        "budget": budget, "certain_label": certain, "possible_labels": possible,
        "robust": certain is not None, "uncertain_count": len(marked),
        "witnesses": [{"predicted": {"kind": "tie"} if label is None else
                       {"kind": "label", "label": label}, "repair_ids": ids}
                      for label, ids in witnesses],
    })


@pytest.mark.parametrize("cell", ["TRUE", "2", "x"])
def test_poison_certify_refuses_other_uncertain_cells(tmp_path, capsys, cell):
    # Read as unmarked, TRUE would leave row 0 undeletable and the vote robust.
    data = tmp_path / "d.csv"
    data.write_text(f"A,label,uncertain\n1,0,{cell}\n2,1,1\n3,1,0\n")
    code, payload = run(capsys, ["poison-certify", "--data", str(data), "--features", "A",
                                 "--point", "0", "--k", "1", "--budget", "1"])
    error = f"row 0: uncertain must be one of 1, true, yes, 0, false, no or empty, got {cell!r}"
    assert (code, payload) == (cli.EXIT_INPUT, {"error": error})


# A header naming one column twice, per repeated name; each row is as wide.
REPEATED_COLUMNS = {
    "A": "A,A,label\n1,2,0\n2,1,1\n",
    "label": "A,label,label\n1,0,1\n2,1,0\n",
    "weight": "A,label,weight,weight\n1,0,1,3\n2,1,2,1\n",
    "rank": "A,label,rank,rank\n1,0,1,2\n2,1,2,1\n",
    "uncertain": "A,label,uncertain,uncertain\n1,0,1,0\n2,1,0,1\n",
}
REPEAT_COMMANDS = {
    "certify": ["certify", "--schema", "{dir}/s.json", "--k", "1"],
    "poison-certify": ["poison-certify", "--k", "1", "--budget", "0"],
    "orset-certify": ["orset-certify", "--k", "1"],
    "codd-certify": ["codd-certify", "--k", "1"],
}


@pytest.mark.parametrize("command", list(REPEAT_COMMANDS))
@pytest.mark.parametrize("name", list(REPEATED_COLUMNS))
def test_repeated_column_exits_two(tmp_path, capsys, command, name):
    (tmp_path / "s.json").write_text(json.dumps({"attributes": ["A"], "fds": []}))
    data = tmp_path / "d.csv"
    data.write_text(REPEATED_COLUMNS[name])
    argv = [a.format(dir=tmp_path) for a in REPEAT_COMMANDS[command]]
    code, payload = run(capsys, argv + ["--data", str(data), "--features", "A", "--point", "0"])
    error = f"{data}: column '{name}' appears more than once"
    assert (code, payload) == (cli.EXIT_INPUT, {"error": error})


@pytest.mark.parametrize("command", list(REPEAT_COMMANDS))
def test_an_empty_csv_exits_two(tmp_path, capsys, command):
    (tmp_path / "s.json").write_text(json.dumps({"attributes": ["A"], "fds": []}))
    data = tmp_path / "d.csv"
    data.write_text("")
    argv = [a.format(dir=tmp_path) for a in REPEAT_COMMANDS[command]]
    code, payload = run(capsys, argv + ["--data", str(data), "--features", "A", "--point", "0"])
    assert (code, payload) == (cli.EXIT_INPUT, {"error": f"{data}: empty file"})


# Tables every table command refuses alike, each with the error it names.
TABLE_REFUSALS = {
    "empty-label": ("A,label\n1,0\n2, \n", "row 1: empty label"),
    "weight-negative": ("A,label,weight\n1,0,-3\n", "row 0: weight must be positive"),
    "weight-symbol": ("A,label,weight\n1,0,1\n2,1,x\n", "row 1: expected a number, got 'x'"),
    "rank-fraction": ("A,label,rank\n1,0,1\n2,1,1.5\n", "row 1: rank must be an integer"),
    "rank-repeated": (
        "A,label,rank\n1,0,1\n2,1,1\n", "row 1: rank column must hold distinct integers"
    ),
    "uncertain-maybe": (
        "A,label,uncertain\n1,0,1\n2,1,maybe\n",
        "row 1: uncertain must be one of 1, true, yes, 0, false, no or empty, got 'maybe'",
    ),
    "weight-before-uncertain": (
        "A,label,weight,uncertain\n1,0,-3,maybe\n2,1,x,7\n", "row 0: weight must be positive"
    ),
    "no-attribute": ("label\n0\n1\n", "{data}: no attribute columns"),
}


@pytest.mark.parametrize("command", [c for c in REPEAT_COMMANDS if c != "certify"])
@pytest.mark.parametrize("case", list(TABLE_REFUSALS))
def test_table_commands_refuse_alike(tmp_path, capsys, command, case):
    # The uncertain-table commands read no weight, rank or uncertain column,
    # so they refuse the first one at the header instead.
    text, error = TABLE_REFUSALS[case]
    unread = [h for h in text.split("\n")[0].split(",") if h in ("weight", "rank", "uncertain")]
    if command != "poison-certify" and unread:
        error = f"{{data}}: column {unread[0]!r} is not read from an uncertain table"
    data = tmp_path / "d.csv"
    data.write_text(text)
    code, payload = run(capsys, REPEAT_COMMANDS[command] + [
        "--data", str(data), "--features", "A", "--point", "0"])
    assert (code, payload) == (cli.EXIT_INPUT, {"error": error.format(data=data)})


# Cells that would change a k=3 vote on the labels 0, 0, 1 if they were read.
UNREAD_COLUMNS = {"weight": ("1", "1", "5"), "rank": ("3", "2", "1"), "uncertain": ("1", "1", "0")}


@pytest.mark.parametrize("command", ["orset-certify", "codd-certify"])
@pytest.mark.parametrize("name", list(UNREAD_COLUMNS))
def test_uncertain_tables_refuse_columns_they_do_not_read(tmp_path, capsys, command, name):
    # Both commands used to drop the column unread and answer "0".
    cells = UNREAD_COLUMNS[name]
    data = tmp_path / "d.csv"
    data.write_text(f"A,label,{name}\n1,0,{cells[0]}\n2,0,{cells[1]}\n3,1,{cells[2]}\n")
    code, payload = run(capsys, [command, "--data", str(data), "--features", "A",
                                 "--point", "0", "--k", "3"])
    error = f"{data}: column {name!r} is not read from an uncertain table"
    assert (code, payload) == (cli.EXIT_INPUT, {"error": error})


class TestCoddAndOrset:
    def test_codd_certify(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text('A,label\n"[1,4]",0\n2,0\n9,1\n')
        code, payload = run(
            capsys,
            ["codd-certify", "--data", str(data), "--features", "A", "--point", "0",
             "--p", "1", "--k", "2"],
        )
        assert code == 0 and payload["robust"] is True

    def test_interval_cell_must_be_csv_quoted(self, tmp_path, capsys):
        # An interval holds a comma: unquoted, it splits into two cells.
        argv = ["codd-certify", "--features", "A", "--point", "0", "--p", "1", "--k", "1"]
        data = tmp_path / "d.csv"
        data.write_text("A,label\n[1,4],0\n")
        code, payload = run(capsys, argv + ["--data", str(data)])
        assert (code, payload) == (2, {"error": "row 0: expected 2 cells, got 3"})
        data.write_text('A,label\n"[1,4]",0\n')
        code, payload = run(capsys, argv + ["--data", str(data)])
        assert code == 0 and payload["certain_label"] == "0"

    def test_codd_witness_reports_completions(self, tmp_path, capsys):
        # Completing the interval near 0 makes label 0 the nearest neighbor,
        # completing it far makes label 1 win: not robust at k=1.
        data = tmp_path / "d.csv"
        data.write_text('A,label\n"[1,9]",0\n2,1\n3,1\n')
        code, payload = run(
            capsys,
            ["codd-certify", "--data", str(data), "--features", "A", "--point", "0",
             "--p", "1", "--k", "1"],
        )
        assert code == 1
        assert all("completions" in w for w in payload["witnesses"])

    def test_orset_certify(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("A,label\n<1|7>,0\n2,0\n9,1\n")
        code, payload = run(
            capsys,
            ["orset-certify", "--data", str(data), "--features", "A", "--point", "0",
             "--p", "1", "--k", "2"],
        )
        assert code == 0
        assert payload["expanded_tuples"] == 4

    def test_orset_expansion_over_cap_exits_four(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("A,label\n<1|7>,0\n2,0\n9,1\n")
        code, payload = run(
            capsys,
            ["orset-certify", "--data", str(data), "--features", "A", "--point", "0",
             "--k", "1", "--cap", "3"],
        )
        assert (code, payload) == (cli.EXIT_CAP, {"error": "or-set expansion exceeds cap 3"})

    @pytest.mark.parametrize(
        "command, cell, error",
        [
            ("codd-certify", "<1|7>", "or-set cells are not allowed in codd-certify input"),
            ("orset-certify", '"[1,7]"', "interval cells are not allowed in orset-certify input"),
        ],
    )
    def test_cells_of_the_other_model_exit_two(self, tmp_path, capsys, command, cell, error):
        data = tmp_path / "d.csv"
        data.write_text(f"A,label\n{cell},0\n2,1\n")
        code, payload = run(
            capsys,
            [command, "--data", str(data), "--features", "A", "--point", "0", "--k", "1"],
        )
        assert (code, payload) == (cli.EXIT_INPUT, {"error": error})

    @pytest.mark.parametrize("cell", ["<1|>", "<|2>", "<>"])
    def test_empty_or_set_alternative_exits_two(self, tmp_path, capsys, cell):
        data = tmp_path / "d.csv"
        data.write_text(f"A,B,label\n1,{cell},0\n2,,1\n")
        code, payload = run(
            capsys,
            ["orset-certify", "--data", str(data), "--features", "A", "--point", "0", "--k", "1"],
        )
        error = f"row 0: or-set cell has an empty alternative: {cell!r}"
        assert (code, payload) == (cli.EXIT_INPUT, {"error": error})

    @pytest.mark.parametrize(
        "command, cell, error",
        [
            ("codd-certify", '"[4,1]"', "row 1: interval low must not exceed high"),
            ("codd-certify", '"[4,x]"', "row 1: expected a number, got 'x'"),
            ("codd-certify", "x", "row 1: non-numeric feature value"),
            ("orset-certify", "<x|1>", "row 1: non-numeric feature value"),
            ("orset-certify", "x", "row 1: non-numeric feature value"),
        ],
    )
    def test_cell_errors_name_the_table_row(self, tmp_path, capsys, command, cell, error):
        data = tmp_path / "d.csv"
        data.write_text(f"A,label\n1,0\n{cell},1\n")
        code, payload = run(
            capsys,
            [command, "--data", str(data), "--features", "A", "--point", "0", "--k", "1"],
        )
        assert (code, payload) == (cli.EXIT_INPUT, {"error": error})


class TestNegativePoint:
    """``--point -2,1`` reads like ``--point=-2,1`` in every subcommand."""

    @pytest.fixture
    def files(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(
            {"attributes": ["A", "B"], "fds": [{"lhs": ["A"], "rhs": ["B"]}]}))
        data = tmp_path / "d.csv"
        data.write_text("A,B,label\n1,2,0\n1,5,1\n-1,3,1\n-2,1,0\n0,0,1\n")
        return str(schema), str(data)

    @pytest.mark.parametrize("point", ["-2,1", "-.5,-1", "-2"])
    @pytest.mark.parametrize(
        "command",
        [
            "certify --k 1 --schema SCHEMA",
            "count --k 1 --label 0 --schema SCHEMA",
            "poison-certify --k 1 --budget 1",
            "codd-certify --k 1",
            "orset-certify --k 1",
            "oracle certify --k 1 --schema SCHEMA",
        ],
    )
    def test_both_spellings_agree(self, files, capsys, command, point):
        schema, data = files
        argv = [schema if a == "SCHEMA" else a for a in command.split()]
        argv += ["--data", data, "--features", "A,B" if "," in point else "A"]
        outcomes = []
        for spelling in (["--point", point], [f"--point={point}"]):
            try:
                code = cli.main(argv + spelling)
            except SystemExit as exc:
                code = exc.code
            outcomes.append((code, capsys.readouterr().out))
        assert outcomes[0] == outcomes[1]
        code, out = outcomes[0]
        assert code in (0, 1) and "error" not in json.loads(out)

    def test_from_the_command_line(self, files):
        schema, data = files
        src = os.path.dirname(os.path.dirname(os.path.abspath(knncert.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "knncert.cli", "certify", "--schema", schema, "--data", data,
             "--features", "A,B", "--point", "-2,1", "--k", "1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode in (0, 1) and "error" not in json.loads(proc.stdout)


class TestGenHard:
    def test_generate_then_certify_roundtrip(self, tmp_path, capsys):
        formula = tmp_path / "phi.cnf3r"
        formula.write_text("1 2 0\n1 2 0\n-1 -2 0\n")
        schema = tmp_path / "target.json"
        schema.write_text(json.dumps(HARD_TARGET))
        out = tmp_path / "hard.csv"
        point_out = tmp_path / "point.json"
        code, payload = run(
            capsys,
            ["gen-hard", "--formula", str(formula), "--schema", str(schema),
             "--k", "1", "--p", "2", "--out", str(out), "--point-out", str(point_out)],
        )
        assert code == 0 and payload["tuples"] == 19

        point = json.loads(point_out.read_text())
        # The satisfiable formula must yield a non-robust oracle verdict.
        code, payload = run(
            capsys,
            ["oracle", "certify", "--schema", str(schema), "--data", str(out),
             "--features", ",".join(point["features"]),
             "--point", ",".join(point["point"]), "--p", "2", "--k", "1", "--cap", "25"],
        )
        assert code == 1 and payload["robust"] is False

    def test_gen_formula(self, tmp_path, capsys):
        out = tmp_path / "phi.cnf3r"
        code, payload = run(
            capsys, ["gen-formula", "--vars", "3", "--seed", "5", "--out", str(out)]
        )
        assert code == 0 and payload["vars"] == 3
        from knncert import hardgen, ingest

        phi = ingest.load_formula(str(out))
        assert hardgen.validate_sat3r(phi) == ()


    @pytest.mark.parametrize("k", ["1", "2"])
    @pytest.mark.parametrize("formula", ["", "c no clause\n", "0\n"])
    def test_a_formula_without_variables_exits_two(self, tmp_path, capsys, formula, k):
        (tmp_path / "phi.cnf3r").write_text(formula)
        (tmp_path / "target.json").write_text(json.dumps(HARD_TARGET))
        argv = GEN_HARD + ["--k", k, "--out", "{dir}/d.csv", "--point-out", "{dir}/p.json"]
        code, payload = run(capsys, [a.format(dir=tmp_path) for a in argv])
        assert (code, payload) == (cli.EXIT_INPUT, {"error": "need at least one variable"})
        assert not (tmp_path / "d.csv").exists() and not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("formula, extra, error", [
        ("1 2 0\n1 2 0\n-1 -2 0\n", ["--p", "0"], "p must be >= 1"),
        ("1 2 0\n1 2 0\n-1 -2 0\n", ["--k", "0"], "k must be >= 1"),
        ("1 0 2 0\n1 2 0\n-1 -2 0\n", [], "clause 1: literal 0 out of range"),
    ], ids=["p-zero", "k-zero", "literal-zero"])
    def test_a_refusal_writes_no_output(self, tmp_path, capsys, formula, extra, error):
        (tmp_path / "phi.cnf3r").write_text(formula)
        (tmp_path / "target.json").write_text(json.dumps(HARD_TARGET))
        argv = GEN_HARD + ["--out", "{dir}/d.csv", "--point-out", "{dir}/p.json"] + extra
        code, payload = run(capsys, [a.format(dir=tmp_path) for a in argv])
        assert (code, payload) == (cli.EXIT_INPUT, {"error": error})
        assert not (tmp_path / "d.csv").exists() and not (tmp_path / "p.json").exists()


class TestOracleCommands:
    def test_default_cap_is_twenty_whatever_the_environment(self, tmp_path, capsys,
                                                           monkeypatch):
        # The cap comes from --cap or the default, never from the environment.
        monkeypatch.setenv("KNNCERT_ORACLE_CAP", "abc")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"attributes": ["A"], "fds": []}))
        data = tmp_path / "data.csv"
        data.write_text("A,label\n" + "".join(f"{i},0\n" for i in range(21)))
        argv = ["oracle", "certify", "--schema", str(schema), "--data", str(data),
                "--features", "A", "--point", "0", "--k", "1"]
        code, payload = run(capsys, argv)
        assert code == cli.EXIT_CAP
        assert payload == {"error": "enumeration over 21 tuples exceeds cap 20"}
        code, payload = run(capsys, argv + ["--cap", "21"])
        assert code == cli.EXIT_OK and payload["repairs"] == 1

    def test_cap_exceeded_exit_four(self, example_files, capsys):
        schema, data = example_files
        code, payload = run(
            capsys,
            ["oracle", "certify", "--schema", schema, "--data", data, "--cap", "3"]
            + CERT_ARGS,
        )
        assert code == 4 and "cap" in payload["error"]

    def test_oracle_count(self, example_files, capsys):
        schema, data = example_files
        code, payload = run(
            capsys,
            ["oracle", "count", "--schema", schema, "--data", data, "--label", "0"]
            + CERT_ARGS,
        )
        assert code == 0 and payload["count"] == "4"

    def test_oracle_min_repair(self, example_files, capsys):
        schema, data = example_files
        code, payload = run(
            capsys,
            ["oracle", "min-repair", "--schema", schema, "--data", data],
        )
        assert code == 0 and payload["repair_ids"] == [0, 2, 4, 5]

    @pytest.mark.parametrize("cmd, extra, total", [("certify", [], "repairs"),
                                                   ("count", ["--label", "0"], "total_repairs")])
    def test_enumerates_the_repairs_once(self, example_files, capsys, monkeypatch,
                                         cmd, extra, total):
        from knncert import oracle

        calls = []
        enumerate_repairs = oracle.enumerate_repairs

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_repairs(*args, **kwargs)

        monkeypatch.setattr(oracle, "enumerate_repairs", counted)
        schema, data = example_files
        code, payload = run(capsys, ["oracle", cmd, "--schema", schema, "--data", data]
                            + CERT_ARGS + extra)
        assert code == 0 and int(payload[total]) == 4 and len(calls) == 1

    @pytest.mark.parametrize("extra", [["--features", "A,B"], ["--use-rank"],
                                       ["--features", "C", "--point", "x", "--p", "0"]])
    def test_oracle_min_repair_reads_no_order(self, example_files, capsys, extra):
        # No point, no rank column and a symbol feature: nothing is ordered.
        schema, data = example_files
        argv = ["oracle", "min-repair", "--schema", schema, "--data", data]
        want = (0, {"repair_ids": [0, 2, 4, 5], "weight": "4"})
        assert run(capsys, argv + extra) == run(capsys, argv) == want


@pytest.mark.parametrize("argv", [
    ["orset-certify", "--data", "{dir}/orset.csv", "--features", "X", "--point", "0", "--k", "1"],
    ["oracle", "certify", "--schema", "{dir}/chain.json", "--data", "{dir}/chain.csv",
     *CERT_ARGS],
    ["oracle", "count", "--schema", "{dir}/chain.json", "--data", "{dir}/chain.csv",
     *CERT_ARGS, "--label", "0"],
    ["oracle", "min-repair", "--schema", "{dir}/chain.json", "--data", "{dir}/chain.csv"],
], ids=["orset-certify", "oracle certify", "oracle count", "oracle min-repair"])
def test_a_negative_cap_is_an_input_error(tmp_path, capsys, argv):
    contract_files(tmp_path)
    argv = [a.format(dir=tmp_path) for a in argv]
    assert run(capsys, argv + ["--cap", "-1"]) == (cli.EXIT_INPUT, {"error": "cap must be >= 0"})
    code, payload = run(capsys, argv + ["--cap", "0"])  # 0 still caps every expansion
    assert code == cli.EXIT_CAP and "exceeds cap 0" in payload["error"]


def contract_files(tmp_path):
    """A chain table, a key table with an uncertain column, a Codd and an
    or-set table over X, a formula, a gen-hard target and a non-chain
    schema over the chain table's attributes."""
    (tmp_path / "chain.json").write_text(json.dumps(EXAMPLE_SCHEMA))
    (tmp_path / "chain.csv").write_text(EXAMPLE_CSV)
    (tmp_path / "key.json").write_text(
        json.dumps({"attributes": ["K", "X"], "fds": [{"lhs": ["K"], "rhs": ["X"]}]}))
    (tmp_path / "key.csv").write_text("K,X,label,uncertain\na,1,0,1\na,2,1,1\nb,3,0,0\nc,9,1,0\n")
    (tmp_path / "codd.csv").write_text('X,label\n"[1,2]",0\n"[0,5]",1\n3,0\n9,1\n')
    (tmp_path / "orset.csv").write_text("X,label\n<1|2>,0\n<0|5>,1\n3,0\n9,1\n")
    (tmp_path / "phi.cnf3r").write_text("1 2 0\n1 2 0\n-1 -2 0\n")
    (tmp_path / "target.json").write_text(json.dumps(HARD_TARGET))
    (tmp_path / "nonchain.json").write_text(json.dumps(NONCHAIN_SCHEMA))


CHAIN = ["--schema", "{dir}/chain.json", "--data", "{dir}/chain.csv"]
CHAIN_K3 = CHAIN + ["--features", "A,B", "--p", "1", "--k", "3"]
KEY_K1 = ["--schema", "{dir}/key.json", "--data", "{dir}/key.csv", "--features", "X", "--k", "1"]
CODD_K1 = ["codd-certify", "--data", "{dir}/codd.csv", "--features", "X", "--k", "1"]
ORSET_K1 = ["orset-certify", "--data", "{dir}/orset.csv", "--features", "X", "--k", "1"]
# Every subcommand shape on contract_files, with the exit code it must give:
# each certifying shape at a robust and at a flagged point, plus refusals.
CONTRACT = {
    "check-schema": (["check-schema", "--schema", "{dir}/chain.json"], 0),
    "certify robust": (["certify", *CHAIN_K3, "--point", "0,0"], 0),
    "certify flagged": (["certify", *CHAIN_K3, "--point", "4,2"], 1),
    "certify key flagged": (["certify", *KEY_K1, "--point", "0"], 1),
    "certify bad point": (["certify", *CHAIN_K3, "--point", "0"], 2),
    "count": (["count", *CHAIN_K3, "--point", "0,0", "--label", "0"], 0),
    "count non-chain": (["count", "--schema", "{dir}/nonchain.json", "--data", "{dir}/chain.csv",
                         "--features", "A,B", "--point", "0,0", "--k", "1", "--label", "0"], 3),
    "min-repair": (["min-repair", *CHAIN], 0),
    "forbidden": (["forbidden", *CHAIN, "--ids", "0"], 0),
    "poison-certify robust": (["poison-certify", *KEY_K1, "--point", "9", "--budget", "1"], 0),
    "poison-certify flagged": (["poison-certify", *KEY_K1, "--point", "0", "--budget", "1"], 1),
    "codd-certify robust": ([*CODD_K1, "--point", "9"], 0),
    "codd-certify flagged": ([*CODD_K1, "--point", "0"], 1),
    "orset-certify robust": ([*ORSET_K1, "--point", "9"], 0),
    "orset-certify flagged": ([*ORSET_K1, "--point", "0"], 1),
    "orset-certify capped": ([*ORSET_K1, "--point", "0", "--cap", "1"], 4),
    "gen-hard": (["gen-hard", "--formula", "{dir}/phi.cnf3r", "--schema", "{dir}/target.json",
                  "--out", "{dir}/h.csv", "--point-out", "{dir}/p.json"], 0),
    "gen-formula": (["gen-formula", "--vars", "2", "--out", "{dir}/g.cnf"], 0),
    "oracle certify robust": (["oracle", "certify", *CHAIN_K3, "--point", "0,0"], 0),
    "oracle certify flagged": (["oracle", "certify", *CHAIN_K3, "--point", "4,2"], 1),
    "oracle count": (["oracle", "count", *CHAIN_K3, "--point", "0,0", "--label", "0"], 0),
    "oracle min-repair": (["oracle", "min-repair", *CHAIN], 0),
}


@pytest.mark.parametrize("call", CONTRACT)
def test_main_writes_one_document_and_exits_one_exactly_when_not_robust(tmp_path, capsys, call):
    contract_files(tmp_path)
    argv, want = CONTRACT[call]
    code = cli.main([a.format(dir=tmp_path) for a in argv])
    captured = capsys.readouterr()
    payload, end = json.JSONDecoder().raw_decode(captured.out)
    assert (captured.out[end:], captured.err, code) == ("\n", "", want)
    assert (code == cli.EXIT_NOT_ROBUST) == (payload.get("robust") is False)
    assert code < cli.EXIT_INPUT or list(payload) == ["error"]
