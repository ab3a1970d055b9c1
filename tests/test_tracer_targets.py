"""The names the benchmark's tracer wraps still exist.

``perfbench/tracing.py`` looks up every ``SPANNED`` and ``COUNTED`` name
with ``getattr`` and ``perfbench/run.py`` measures the tree that
``build_tree(ds.tuples, ids, fds, schema)`` returns for a table loaded with
``ingest.load_dataset``, so a refactor that renames one of those functions,
changes that signature or drops the ``tuples`` view breaks
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
from knncert import decompose, ingest

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


def test_build_tree_takes_the_tuples_view_and_returns_nodes_with_children(tmp_path):
    schema_path, csv_path = tmp_path / "schema.json", tmp_path / "d.csv"
    schema_path.write_text(json.dumps({
        "attributes": ["A", "B", "C", "D"],
        "fds": [{"lhs": ["A"], "rhs": ["B"]}, {"lhs": ["A", "B"], "rhs": ["C"]}],
    }))
    csv_path.write_text("A,B,C,D,label\n1,1,1.5,x,0\n1,2,2,y,1\n2,1,1,x,0\n")
    schema = ingest.load_schema(str(schema_path))
    ds, _, _ = ingest.load_dataset(str(csv_path), schema, ["A"])
    assert all(ds.tuples[i] == tuple(c.value(i) for c in ds.columns) for i in ds.ids())
    tree = decompose.build_tree(ds.tuples, list(ds.ids()), list(schema.fds), schema)

    def walk(node):
        yield node
        for child in getattr(node, "children", ()):
            yield from walk(child)

    assert len(tree.children) == 2
    assert all(hasattr(child, "children") for child in tree.children)
    leaves = [node for node in walk(tree) if not getattr(node, "children", ())]
    assert sorted(t for leaf in leaves for t in leaf.ids) == [0, 1, 2]


def test_build_tree_callers_bind_it_by_name():
    # The tracer wraps build_tree only where another module binds it, so a
    # caller that reached it through ``decompose`` would go untraced.
    from knncert import certify_dp, counting, minrepair

    for module in (certify_dp, counting, minrepair):
        assert vars(module)["build_tree"] is decompose.build_tree, module.__name__
