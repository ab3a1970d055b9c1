"""The console entry point against ``python -m knncert.cli``.

``[project.scripts]`` names ``cli.run``, which freezes the import-time heap,
switches the cyclic collector off and exits with ``main``'s code; ``main``
itself leaves the collector alone, so callers inside a process see no
change.
"""

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knncert
from knncert import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = str(Path(knncert.__file__).resolve().parents[1])
SCHEMA = {"attributes": ["A", "B", "C"], "fds": [{"lhs": ["A"], "rhs": ["B"]}]}


def scripts() -> dict:
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]


def child(argv: list) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=60)


def test_every_script_target_is_a_callable():
    assert scripts()
    for name, target in scripts().items():
        module, _, attrs = target.partition(":")
        obj = importlib.import_module(module)
        for attr in attrs.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_the_script_and_python_m_print_the_same(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SCHEMA))
    argv = ["check-schema", "--schema", str(schema)]
    by_module = child(["-m", "knncert.cli", *argv])
    assert by_module.returncode == 0 and json.loads(by_module.stdout)["lhs_chain"]
    for name, target in scripts().items():
        module, _, attr = target.partition(":")
        # What an installed console script runs: import the target, call it,
        # and exit with what it returns.
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = {name!r}; sys.exit({attr}())")
        by_script = child(["-c", wrapper, *argv])
        assert (by_script.returncode, by_script.stdout) == (0, by_module.stdout), name


def test_main_in_process_leaves_the_freeze_count(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SCHEMA))
    before, enabled = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["check-schema", "--schema", str(schema)]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (before, enabled)
    assert json.loads(capsys.readouterr().out)["lhs_chain"]


def test_run_freezes_then_exits_with_mains_code(tmp_path, monkeypatch, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SCHEMA))
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    with pytest.raises(SystemExit) as stop:
        cli.run()
    assert (calls, stop.value.code) == (["freeze", "disable", "main"], 3)
