"""The names the benchmark's tracer wraps still exist.

``perfbench/tracing.py`` looks up every ``SPANNED`` and ``COUNTED`` name
with ``getattr`` and ``perfbench/run.py`` measures the tree that
``build_tree`` returns for a loaded table, so a refactor that renames one of
those functions or changes ``build_tree``'s record-based signature breaks
``perfbench/run.py --trace 1``. The tracer also reads every traced module
from ``sys.modules`` right after ``import knncert.cli``, so the CLI must
still import each of them at the top. The tracer's file is read, not
imported.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import knncert as kc
from knncert import decompose

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    names = []
    for stmt in ast.parse(TRACING.read_text()).body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                names += ast.literal_eval(stmt.value)
    return names


def test_every_traced_name_is_a_function():
    names = traced_names()
    assert "decompose.build_tree" in names and "dataset.conflicts" in names
    for name in names:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"knncert.{module}"), function)), name


def test_importing_the_cli_loads_every_traced_module():
    modules = sorted({f"knncert.{name.split('.')[0]}" for name in traced_names()})
    src = os.path.dirname(os.path.dirname(os.path.abspath(kc.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = "import json, sys, knncert.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert [m for m in modules if m not in loaded] == []


def test_build_tree_takes_records_and_returns_nodes_with_children():
    schema = kc.FdSchema.of(("A", "B", "C"), [(["A"], ["B"]), (["A", "B"], ["C"])])
    rows = [((1, 1, 1), "0"), ((1, 2, 1), "1"), ((2, 1, 1), "0")]
    ds = kc.make_dataset(schema, rows, features=("A",))
    tree = decompose.build_tree(ds.tuples, list(ds.ids()), list(schema.fds), schema)
    assert len(tree.children) == 2
    assert all(hasattr(child, "children") for child in tree.children)


def test_build_tree_callers_bind_it_by_name():
    # The tracer wraps build_tree only where another module binds it, so a
    # caller that reached it through ``decompose`` would go untraced.
    from knncert import certify_dp, counting, minrepair

    for module in (certify_dp, counting, minrepair):
        assert vars(module)["build_tree"] is decompose.build_tree, module.__name__
