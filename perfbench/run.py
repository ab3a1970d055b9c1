"""Benchmark of the knncert command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pk-certify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke            # small sizes plus the corruption self-check
    python3 perfbench/run.py --record-golden    # rewrite perfbench/golden.json

Load model: a closed loop with one client. CLI calls run one after another
from this process; a pass is one run of the workload's fixed call list, and
passes repeat while the next one still fits in ``--seconds``.

``--trace 0`` runs ``python -m knncert.cli`` as a child with
``PYTHONPATH=src`` and reports the end-to-end metrics: ``pass_s`` (median
pass wall time), ``setup_s`` (median wall time of ``check-schema``, the cost
every call pays before it touches data) and ``peak_rss_mb`` (median over
passes of the largest max-RSS of any child, from ``os.wait4``). ``--trace 1``
imports the package, runs ``check-schema`` plus the pass in-process through
``knncert.cli.main`` untraced and then traced, and reports the per-layer
metrics; a layer the workload never reaches reads 0.

Every output is checked: exit code, stdout sha256 against golden.json at the
default seed, identical bytes across passes, and the independent checks in
checks.py. A failed check counts in ``failed`` and never raises. The last
line of stdout is the JSON result; a full report and the spans go to
``.perfbench_work/reports``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
WORK = ".perfbench_work"
SETUP_REPS = 3  # check-schema calls before each pass and after the last


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Keep hash randomisation on, so the digests catch hash-order dependence.
    env.pop("PYTHONHASHSEED", None)
    return env


def run_child(argv: list, env: dict, workdir: str) -> dict:
    """One CLI call as a child process: exit code, stdout, wall time and the
    child's own max-RSS (rusage from wait4, not the cumulative children)."""
    out_path, err_path = os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "knncert.cli", *argv],
                                stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return {"code": proc.returncode, "stdout": stdout, "stderr": stderr[-400:].decode(errors="replace"),
            "wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024}


def run_inprocess(main, argv: list) -> dict:
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception:  # a crash is a failed call, reported, not raised
        code, err = None, traceback.format_exc(limit=3)
    else:
        err = ""
    wall = perf_counter() - start
    return {"code": code, "stdout": buf.getvalue().encode(), "stderr": err, "wall": wall}


class Ledger:
    """Counts attempted and failed calls and keeps the first problems.

    A call fails on a wrong exit code, a digest that differs from the golden
    one or from an earlier pass of the same call, or a failed check. Checks
    run once per distinct output.
    """

    def __init__(self, golden: dict | None) -> None:
        self.golden = golden or {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digests: dict = {}
        self._verdicts: dict = {}

    def record(self, name: str, result: dict, expect_exit: int, check) -> None:
        self.attempted += 1
        digest = hashlib.sha256(result["stdout"]).hexdigest()
        problems = []
        if result["code"] != expect_exit:
            problems.append(f"exit {result['code']}, expected {expect_exit}: {result['stderr'][-200:]}")
        if name in self.golden and digest != self.golden[name]:
            problems.append("stdout differs from the golden digest")
        if self.digests.setdefault(name, digest) != digest:
            problems.append("stdout differs from an earlier pass")
        if (name, digest) not in self._verdicts:
            try:
                self._verdicts[name, digest] = check(json.loads(result["stdout"]))
            except Exception as exc:  # a malformed output must not end the run
                self._verdicts[name, digest] = [f"check raised {type(exc).__name__}: {exc}"]
        problems += self._verdicts[name, digest]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"call": name, "problems": problems[:5]})


def schema_check(out: dict) -> list:
    return [] if out.get("lhs_chain") is True else [f"schema reported not chain: {out}"]


def schema_call(wl) -> workloads.Call:
    """``check-schema`` on the workload's schema: the set-up every call pays."""
    return workloads.Call("check-schema", ["check-schema", "--schema", wl.schema_path], 0,
                          schema_check)


def quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"q1": q[0], "median": statistics.median(values), "q3": q[2], "count": len(values)}


def env_record() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version}


def load_golden(name: str, seed: int, scale: str) -> dict | None:
    if scale != "full" or seed != workloads.DEFAULT_SEED or not os.path.exists(GOLDEN):
        return None
    with open(GOLDEN) as fh:
        return json.load(fh)["stdout_sha256"].get(name)


def untraced(wl, seconds: float, env: dict, ledger: Ledger, workdir: str) -> tuple[dict, dict]:
    setup: list = []
    check_schema = schema_call(wl)

    def measure_setup() -> None:
        for _ in range(SETUP_REPS):
            res = run_child(check_schema.argv, env, workdir)
            ledger.record(check_schema.name, res, 0, check_schema.check)
            setup.append(res["wall"])

    passes, rss, per_call = [], [], {call.name: [] for call in wl.calls}
    start = perf_counter()
    while True:
        measure_setup()
        results = [run_child(call.argv, env, workdir) for call in wl.calls]
        for call, res in zip(wl.calls, results):
            ledger.record(call.name, res, call.expect_exit, call.check)
            per_call[call.name].append((res["wall"], res["cpu"]))
        passes.append(sum(r["wall"] for r in results))
        rss.append(max(r["rss_mb"] for r in results))
        if perf_counter() - start + statistics.median(passes) > seconds:
            break
    measure_setup()
    metrics = {"pass_s": statistics.median(passes), "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(rss)}
    detail = {"pass_s": quartiles(passes), "pass_samples": passes, "setup_samples": setup,
              "peak_rss_samples": rss,
              "call_s": per_call}
    return metrics, detail


def tree_shape(node) -> tuple[int, int, int]:
    """(nodes, depth, max fan-out) of a decomposition tree."""
    children = getattr(node, "children", ())
    if not children:
        return 1, 1, 0
    shapes = [tree_shape(c) for c in children]
    return (1 + sum(s[0] for s in shapes), 1 + max(s[1] for s in shapes),
            max([len(children)] + [s[2] for s in shapes]))


# Per workload: (layer, call of the larger input, call of the half-size input).
DOUBLING = {
    "chain-certify": ("certify_dp.certify", "robust-big", "robust-small"),
    "chain-count": ("counting.count_label", "count-big", "count-small"),
}


def traced(wl, seconds: float, root: str, ledger: Ledger) -> tuple[dict, dict, list]:
    sys.path.insert(0, os.path.join(root, "src"))
    start = perf_counter()
    cli = importlib.import_module("knncert.cli")
    import_s = perf_counter() - start

    calls = [schema_call(wl)] + wl.calls

    def one_pass(tracer=None) -> tuple[float, int]:
        wall, nbytes = 0.0, 0
        for call in calls:
            if tracer is not None:
                tracer.request = call.name
            res = run_inprocess(cli.main, call.argv)
            ledger.record(call.name, res, call.expect_exit, call.check)
            wall += res["wall"]
            nbytes += len(res["stdout"])
        return wall, nbytes

    plain, traced_walls, tracers = [], [], []
    begin = perf_counter()
    while True:
        plain.append(one_pass()[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, nbytes = one_pass(tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        tracers.append(tracer)
        if perf_counter() - begin + plain[-1] + wall > seconds:
            break

    per_pass = [layer_metrics(t, wl.name) for t in tracers]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["cli.output_bytes"] = nbytes
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain)

    biggest = max(wl.tables, key=lambda f: wl.tables[f].n)
    table = wl.tables[biggest]
    ingest, decompose = sys.modules["knncert.ingest"], sys.modules["knncert.decompose"]
    schema = ingest.load_schema(wl.schema_path)
    ds, _, _ = ingest.load_dataset(os.path.join(os.path.dirname(wl.schema_path), biggest),
                                   schema, list(table.features))
    tree = decompose.build_tree(ds.tuples, list(ds.ids()), list(schema.fds), schema)
    nodes, depth, fanout = tree_shape(tree)
    metrics.update({"decompose.tree_nodes": nodes, "decompose.tree_depth": depth,
                    "decompose.tree_max_fanout": fanout})

    traced_pass = statistics.median(traced_walls)
    detail = {"inprocess_pass_s": quartiles(plain), "traced_pass_s": quartiles(traced_walls),
              "self_share": {k: v / traced_pass for k, v in metrics.items() if k.endswith(".self_s")},
              "tree_input": biggest}
    return metrics, detail, [asdict(span) for span in tracers[-1].spans]


def layer_metrics(tracer, workload: str) -> dict:
    self_s: dict = {name: 0.0 for name in tracing.SPANNED}
    by_request: dict = {}
    for span, own in tracer.self_times():
        self_s[span.name] += own
        by_request[span.name, span.request] = by_request.get((span.name, span.request), 0.0) + own
    out = {f"{name}.self_s": value for name, value in self_s.items()}
    for name in ("dataset.predict", "fastscan.prune", "decompose.build_tree", "dataset.conflicts"):
        out[f"{name}.calls"] = tracer.counts[name]
    out["fastscan.prune.survivor_ratio"] = tracer.survivor_ratio
    for layer in ("certify_dp.certify", "counting.count_label"):
        out[f"{layer}.doubling_ratio"] = 0.0
    if workload in DOUBLING:
        layer, big, small = DOUBLING[workload]
        base = by_request.get((layer, small), 0.0)
        out[f"{layer}.doubling_ratio"] = by_request.get((layer, big), 0.0) / base if base else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str,
                 scale: str = "full") -> dict:
    workdir = os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    load_before = os.getloadavg()[0]
    try:
        wl = workloads.build(name, seed, workdir, scale)
        ledger = Ledger(load_golden(name, seed, scale))
        if trace:
            values, detail, spans = traced(wl, seconds, root, ledger)
        else:
            values, detail = untraced(wl, seconds, child_env(root), ledger, workdir)
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()[0]
    env = env_record()
    env.update({"loadavg_1m_before": load_before, "loadavg_1m_after": load_after,
                "overloaded": max(load_before, load_after) > (env["nproc"] or 1)})
    report = {"workload": name, "seed": seed, "default_seed": workloads.DEFAULT_SEED,
              "holdout_seed": workloads.HOLDOUT_SEED, "scale": scale, "trace": trace,
              "seconds": seconds, "inputs": wl.files, "env": env, "detail": detail,
              "golden_checked": bool(ledger.golden), "problems": ledger.problems,
              "error_rate": ledger.failed / ledger.attempted}
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    stem = os.path.join(WORK, "reports", f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    with open(stem + ".json", "w") as fh:
        json.dump({**report, "result": result}, fh, indent=1)
    if spans is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(spans, fh)
    return {"report": report, "result": result}


def corrupt(out: dict) -> dict:
    """A wrong but well-formed variant of a CLI output."""
    out = json.loads(json.dumps(out))
    if out.get("witnesses"):
        out["witnesses"][0]["repair_ids"].pop()
    elif "robust" in out:
        out["robust"] = not out["robust"]
    elif "count" in out:
        out["count"] = str(int(out["count"]) + 1)
    elif "repair_ids" in out:
        out["repair_ids"].pop()
    return out


def smoke(root: str) -> int:
    """Every workload at small sizes, untraced and traced, then feed each
    call's output back corrupted and require that it is counted as failed."""
    env = child_env(root)
    ok = True
    for name in workloads.NAMES:
        for trace in (False, True):
            got = run_workload(name, workloads.HOLDOUT_SEED, 0.0, trace, root, scale="smoke")
            clean = got["result"]["failed"] == 0
            ok &= clean
            print(f"smoke {name} trace={int(trace)}: attempted {got['result']['attempted']}, "
                  f"failed {got['result']['failed']}")
        workdir = os.path.join(WORK, f"smoke-{name}-{os.getpid()}")
        try:
            wl = workloads.build(name, workloads.HOLDOUT_SEED, workdir, "smoke")
            for call in wl.calls:
                res = run_child(call.argv, env, workdir)
                bad = dict(res, stdout=json.dumps(corrupt(json.loads(res["stdout"])),
                                                  sort_keys=True, indent=2).encode() + b"\n")
                ledger = Ledger(None)
                ledger.record(call.name, res, call.expect_exit, call.check)
                ledger.record(call.name + "-corrupted", bad, call.expect_exit, call.check)
                caught = ledger.failed == 1 and ledger.problems[0]["call"].endswith("-corrupted")
                ok &= caught
                print(f"smoke {name}/{call.name}: clean output passes, corrupted copy "
                      f"{'counted as failed' if caught else 'NOT caught'}; error_rate "
                      f"{ledger.failed / ledger.attempted:.2f}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print("smoke self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def record_golden(root: str) -> int:
    """Write the stdout digests of every call at the default seed, after the
    independent checks pass on them."""
    env = child_env(root)
    digests: dict = {}
    for name in workloads.NAMES:
        workdir = os.path.join(WORK, f"golden-{name}-{os.getpid()}")
        try:
            wl = workloads.build(name, workloads.DEFAULT_SEED, workdir, "full")
            ledger = Ledger(None)
            calls = [schema_call(wl)] + wl.calls
            for call in calls:
                ledger.record(call.name, run_child(call.argv, env, workdir), call.expect_exit,
                              call.check)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if ledger.failed:
            print(f"{name}: not recording, checks failed: {ledger.problems}", file=sys.stderr)
            return 1
        digests[name] = ledger.digests
        print(f"{name}: {len(ledger.digests)} digests")
    doc = {"default_seed": workloads.DEFAULT_SEED, "holdout_seed": workloads.HOLDOUT_SEED,
           "stdout_sha256": digests}
    with open(GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "knncert", "cli.py")):
        print("perfbench: run from the root of a knncert checkout (src/knncert missing)",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.record_golden:
        return record_golden(root)
    if args.workload is None:
        parser.error("--workload is required")
    got = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for key, metric in got["result"]["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    if got["report"]["problems"]:
        print("problems: " + json.dumps(got["report"]["problems"]))
    print(json.dumps(got["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
