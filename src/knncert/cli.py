"""Command-line surface.

Exit codes: 0 robust (or plain success), 1 not robust, 2 input error,
3 schema outside the tractable class, 4 enumeration cap exceeded, 141 the
reader of stdout closed it early (as a process killed by SIGPIPE). Each
``_cmd_*`` handler returns its payload and prints nothing. ``_run`` alone
writes it, or ``{"error": ...}`` for a refusal the handler raised, and
derives the exit code: 1 when the payload's ``robust`` is false, else 0,
and a refusal's code from ``_EXIT_CODES``. Results are JSON on stdout with
sorted keys, so identical inputs produce identical bytes. ``certify``
dispatches by schema shape, decided once from the FDs alone
(``fdschema.decide_lhs_chain``): a primary-key equivalent goes to the
linear scan, unless a block holds identical rows, and that or any other
lhs-chain equivalent goes to the DP; anything else is refused with a
pointer at the ``oracle`` subcommands, whose exponential enumeration is
opt-in and capped. ``orset-certify`` and ``codd-certify`` load their table
as a dataset (``read=ingest.parse_cell``) and certify the expansion of its
cells by ``models`` with the same scan. The JSON is written by ``_dumps``,
byte for byte what ``json.dumps(payload, sort_keys=True, indent=2)`` writes.

A call loads only the code its subcommand runs: ``models``, ``hardgen``
and ``oracle`` are imported inside their handlers, and ``fastscan`` loads
numpy only when the scan runs, so the chain subcommands and
``check-schema`` start without numpy. ``main`` sets
``OPENBLAS_NUM_THREADS`` to 1 unless it is set: numpy's OpenBLAS would
start worker threads that no subcommand uses. ``run``, the console entry
point, freezes the import-time heap and switches the cyclic collector off
before it calls ``main``. The primary-key calls rank through
``fastscan.rank_by_distance`` (int64 when the distances fit), every other
call through ``dataset.order_by_distance``, to the same ``Ordering``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from typing import Optional

from . import certify_dp, counting, fastscan, ingest, minrepair
from .certresult import CertResult
from .dataset import LabeledDataset, Ordering, order_by_distance, predict
from .errors import CapExceededError, InputError, NotChainError, NotPrimaryKeyError
from .fdschema import decide_lhs_chain

EXIT_OK = 0
EXIT_NOT_ROBUST = 1
EXIT_INPUT = 2
EXIT_NOT_CHAIN = 3
EXIT_CAP = 4
EXIT_BROKEN_PIPE = 141


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for str-keyed
    payloads. The frame of each dict and list is written here, and a list
    of plain ints from its repr; keys and every other value go through
    ``json.dumps``, whose C encoder the ``indent`` option would forgo."""
    inner = pad + "  "
    if isinstance(value, dict):
        items = [json.dumps(key) + ": " + _dumps(v, inner) for key, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if not isinstance(value, (list, tuple)):
        return json.dumps(value)
    if not value:
        return "[]"
    if set(map(type, value)) <= {int}:  # "[1, 2]": no int's text holds ", "
        body = repr(list(value))[1:-1].replace(", ", "," + inner)
    else:
        body = ("," + inner).join([_dumps(v, inner) for v in value])
    return "[" + inner + body + pad + "]"


def _emit(payload: dict) -> None:
    print(_dumps(payload))


def _outcome_json(outcome) -> dict:
    if outcome.kind == "label":
        return {"kind": "label", "label": outcome.label}
    return {"kind": outcome.kind}


def _result_json(result: CertResult, dataset: LabeledDataset, ordering: Ordering, k: int,
                 weighted: bool = False) -> dict:
    witnesses = []
    for ids, outcome in result.witnesses:
        check = predict(dataset, ids, ordering, k, weighted=weighted)
        if check != outcome:
            raise AssertionError("witness failed re-verification at emission")
        witnesses.append({"repair_ids": sorted(ids), "predicted": _outcome_json(outcome)})
    return {
        "robust": result.robust,
        "certain_label": result.certain_label,
        "possible_labels": list(result.possible_labels),
        "witnesses": witnesses,
    }


def _load_instance(args, need_schema: bool = True, ordered: bool = True):
    """The dataset, its order and its uncertain ids. The order is the rank
    column's with ``--use-rank``, else by distance to the point; unordered,
    the rank column's order as read (None without one) stands in for it."""
    schema = ingest.load_schema(args.schema) if args.schema else None
    if need_schema and schema is None:
        raise InputError("--schema is required for this command")
    features = [f for f in (args.features or "").split(",") if f]
    dataset, ranks, uncertain = ingest.load_dataset(args.data, schema, features)
    if not ordered:
        return dataset, ranks, uncertain
    if args.use_rank:
        return dataset, ingest.ordering_from_ranks(ranks), uncertain
    point = ingest.parse_point(args.point or "", len(dataset.features))
    return dataset, order_by_distance(dataset, point, args.p), uncertain


def _chain(dataset: LabeledDataset, what: str) -> None:
    """Refuse a dataset whose schema has no lhs-chain equivalent."""
    if not decide_lhs_chain(dataset.schema).is_chain_equivalent:
        raise NotChainError(f"{what} requires an lhs-chain-equivalent schema")


def _cmd_check_schema(args) -> dict:
    decision = decide_lhs_chain(ingest.load_schema(args.schema))
    return {"lhs_chain": decision.is_chain_equivalent, "trace": list(decision.trace)}


def _cmd_certify(args) -> dict:
    dataset, ranks, _ = _load_instance(args, ordered=False)
    decision = decide_lhs_chain(dataset.schema)
    scan = not (args.weighted or args.force_dp) and decision.key is not None
    if args.use_rank:
        ordering = ingest.ordering_from_ranks(ranks)
    else:
        point = ingest.parse_point(args.point or "", len(dataset.features))
        rank = fastscan.rank_by_distance if scan else order_by_distance
        ordering = rank(dataset, point, args.p)
    if scan:
        try:
            result = fastscan.certify_pk(dataset, ordering, args.k)
            method = "fastscan"
        except NotPrimaryKeyError:
            scan = False
    if not scan:
        if not decision.is_chain_equivalent:
            raise NotChainError(
                "schema has no lhs-chain equivalent; certification is intractable "
                "in general. Use the 'oracle certify' subcommand (capped enumeration)."
            )
        result = certify_dp.certify(dataset, ordering, args.k, weighted=args.weighted)
        method = "dp"
    return {**_result_json(result, dataset, ordering, args.k, weighted=args.weighted),
            "method": method}


def _cmd_count(args) -> dict:
    dataset, ordering, _ = _load_instance(args)
    _chain(dataset, "counting")
    count = counting.count_label(dataset, ordering, args.k, args.label)
    total = counting.count_repairs(dataset)
    return {"label": args.label, "count": str(count), "total_repairs": str(total)}


def _cmd_min_repair(args) -> dict:
    dataset, _, _ = ingest.load_dataset(args.data, ingest.load_schema(args.schema), [])
    _chain(dataset, "min-repair")
    repair, weight = minrepair.min_rep(dataset)
    return {"repair_ids": sorted(repair), "weight": str(weight)}


def _cmd_forbidden(args) -> dict:
    dataset, _, _ = ingest.load_dataset(args.data, ingest.load_schema(args.schema), [])
    _chain(dataset, "forbidden-repair")
    try:
        forbidden = [int(t) for t in args.ids.split(",") if t.strip() != ""]
    except ValueError:
        raise InputError(f"--ids must be comma-separated integers, got {args.ids!r}") from None
    repair = minrepair.forbidden_repair(dataset, forbidden)
    return {"exists": repair is not None, "repair_ids": None if repair is None else sorted(repair)}


def _cmd_poison(args) -> dict:
    from . import models

    dataset, ordering, uncertain = _load_instance(args, need_schema=False)
    if uncertain is None:
        uncertain = frozenset(dataset.ids())
    q = models.QSetInstance(dataset, frozenset(uncertain), args.budget)
    result = models.qset_certify(q, ordering, args.k)
    return {**_result_json(result, dataset, ordering, args.k), "budget": args.budget,
            "uncertain_count": len(uncertain)}


def _certify_table(args, expand) -> tuple[dict, object]:
    """(payload, extra): the uncertain table and point of ``args`` loaded,
    expanded by ``expand(dataset, point, features)`` into (keyed instance,
    extra), and the instance certified by the primary-key scan."""
    dataset = ingest.load_dataset(args.data, None, (), read=ingest.parse_cell)[0]
    features = [f for f in (args.features or "").split(",") if f]
    point = ingest.parse_point(args.point or "", len(features))
    keyed, extra = expand(dataset, point, features)
    ordering = fastscan.rank_by_distance(keyed.dataset, point, args.p)
    result = fastscan.certify_pk(keyed, ordering, args.k)
    return _result_json(result, keyed.dataset, ordering, args.k), extra


def _cmd_codd(args) -> dict:
    from . import models

    payload, roles = _certify_table(args, models.codd_extremal_instance)
    for witness in payload["witnesses"]:
        witness["completions"] = [
            {"row": roles[t][0], "completion": roles[t][1]} for t in witness.pop("repair_ids")
        ]
    return payload


def _cmd_orset(args) -> dict:
    from . import models

    def expand(dataset, point, features):
        keyed = models.orset_expand(dataset, features, cap=args.cap)
        return keyed, keyed.dataset.size

    payload, size = _certify_table(args, expand)
    return {**payload, "expanded_tuples": size}


def _cmd_gen_hard(args) -> dict:
    from . import hardgen

    phi = ingest.load_formula(args.formula)
    target = ingest.load_schema(args.schema)
    inst = hardgen.generate(phi, target, k=args.k, p=args.p)
    point_doc = {"point": [str(c) for c in inst.test_point.coords],
                 "features": list(inst.dataset.features), "k": args.k, "p": args.p}
    ingest.write_all({
        args.out: ingest.dataset_csv(inst.dataset),
        args.point_out: _dumps(point_doc) + "\n",
    })
    return {"tuples": inst.dataset.size, "alpha": inst.alpha, "scale": inst.scale,
            "clauses": len(phi.clauses), "vars": phi.num_vars, "out": args.out,
            "point_out": args.point_out}


def _cmd_gen_formula(args) -> dict:
    import random

    from . import hardgen

    phi = hardgen.random_formula(random.Random(args.seed), args.vars)
    ingest.write_formula(args.out, phi)
    return {"vars": phi.num_vars, "clauses": len(phi.clauses), "out": args.out}


def _cmd_oracle(args) -> dict:
    from . import oracle

    if args.oracle_cmd == "min-repair":  # reads no order
        dataset, _, _ = _load_instance(args, ordered=False)
        repair, weight = oracle.brute_min_repair(dataset, cap=args.cap)
        return {"repair_ids": sorted(repair), "weight": str(weight)}
    dataset, ordering, _ = _load_instance(args)
    if args.oracle_cmd == "count":  # an unknown label is refused before the enumeration
        known = args.label in dataset.labels
        repairs = oracle.enumerate_repairs(dataset, cap=args.cap) if known else ()
        count = oracle.brute_count(dataset, ordering, args.k, args.label, repairs=repairs)
        return {"label": args.label, "count": str(count), "total_repairs": str(len(repairs))}
    repairs = oracle.enumerate_repairs(dataset, cap=args.cap)
    result = oracle.brute_certify(dataset, ordering, args.k, repairs=repairs)
    return {**_result_json(result, dataset, ordering, args.k), "repairs": len(repairs)}


def _add_instance_flags(sub) -> None:
    sub.add_argument("--schema", default=None, help="schema JSON file")
    sub.add_argument("--data", required=True, help="dataset CSV file")
    sub.add_argument("--features", default="", help="comma-separated feature attributes")
    sub.add_argument("--point", default=None, help="comma-separated test point coordinates")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--p", type=int, default=2, help="p-norm exponent (default 2)")
    group.add_argument(
        "--use-rank", action="store_true", help="take the ordering from the 'rank' column"
    )


def _add_table_flags(sub) -> None:
    sub.add_argument("--data", required=True)
    sub.add_argument("--features", default="")
    sub.add_argument("--point", default=None)
    sub.add_argument("--p", type=int, default=2)
    sub.add_argument("--k", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="knncert")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("check-schema", help="report the lhs-chain decision")
    sub.add_argument("--schema", required=True)
    sub.set_defaults(handler=_cmd_check_schema)

    sub = commands.add_parser("certify", help="certify k-NN robustness under subset repairs")
    _add_instance_flags(sub)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--weighted", action="store_true", help="weighted majority vote")
    sub.add_argument("--force-dp", action="store_true", help="skip the primary-key fast path")
    sub.set_defaults(handler=_cmd_certify)

    sub = commands.add_parser("count", help="count repairs predicting a label")
    _add_instance_flags(sub)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--label", required=True)
    sub.set_defaults(handler=_cmd_count)

    sub = commands.add_parser("min-repair", help="minimum total-weight repair")
    sub.add_argument("--schema", required=True)
    sub.add_argument("--data", required=True)
    sub.set_defaults(handler=_cmd_min_repair)

    sub = commands.add_parser("forbidden", help="repair avoiding the given tuple ids")
    sub.add_argument("--schema", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--ids", required=True, help="comma-separated tuple ids to avoid")
    sub.set_defaults(handler=_cmd_forbidden)

    sub = commands.add_parser("poison-certify", help="certify against budgeted deletions")
    _add_instance_flags(sub)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--budget", type=int, required=True)
    sub.set_defaults(handler=_cmd_poison)

    sub = commands.add_parser("codd-certify", help="certify a table with interval cells")
    _add_table_flags(sub)
    sub.set_defaults(handler=_cmd_codd)

    sub = commands.add_parser("orset-certify", help="certify a table with or-set cells")
    _add_table_flags(sub)
    sub.add_argument("--cap", type=int, default=100_000, help="expansion size cap")
    sub.set_defaults(handler=_cmd_orset)

    sub = commands.add_parser("gen-hard", help="generate a hard instance from a formula")
    sub.add_argument("--formula", required=True)
    sub.add_argument("--schema", required=True, help="target (non-chain) schema JSON")
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--p", type=int, default=2)
    sub.add_argument("--out", required=True, help="output dataset CSV")
    sub.add_argument("--point-out", required=True, help="output test point JSON")
    sub.set_defaults(handler=_cmd_gen_hard)

    sub = commands.add_parser("gen-formula", help="random occurrence-disciplined formula")
    sub.add_argument("--vars", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(handler=_cmd_gen_formula)

    sub = commands.add_parser("oracle", help="capped brute-force ground truth")
    oracle_cmds = sub.add_subparsers(dest="oracle_cmd", required=True)
    for name in ("certify", "count", "min-repair"):
        osub = oracle_cmds.add_parser(name)
        _add_instance_flags(osub)
        osub.add_argument("--cap", type=int, default=None, help="tuple-count cap")
        if name in ("certify", "count"):
            osub.add_argument("--k", type=int, required=True)
        if name == "count":
            osub.add_argument("--label", required=True)
        osub.set_defaults(handler=_cmd_oracle)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # numpy's OpenBLAS starts a pool of worker threads when numpy loads,
    # and no subcommand calls BLAS: one thread, unless the caller chose.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value that starts with "-" for an option unless it is
    # one number, so "--point -2,1" is read as "--point=-2,1".
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--point" and re.match(r"-[0-9.]", argv[i]):
            argv[i - 1:i + 1] = [f"--point={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (``knncert ... | head``). Point stdout at devnull
        # so the interpreter's flush at exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


# The exit code of each refusal a handler raises, matched in this order.
_EXIT_CODES = {InputError: EXIT_INPUT, NotChainError: EXIT_NOT_CHAIN,
               NotPrimaryKeyError: EXIT_INPUT, CapExceededError: EXIT_CAP}


def _run(args) -> int:
    """Call the handler and write its payload, or the refusal it raised."""
    try:
        payload = args.handler(args)
        code = EXIT_OK if payload.get("robust", True) else EXIT_NOT_ROBUST
    except tuple(_EXIT_CODES) as exc:
        payload = {"error": str(exc)}
        code = next(value for kind, value in _EXIT_CODES.items() if isinstance(exc, kind))
    _emit(payload)
    return code


def run() -> None:
    """``main`` on ``sys.argv`` as the process's one call: the objects made
    by the imports are frozen and the cyclic collector is switched off, as
    the process ends with the call, so no collection traverses them."""
    gc.freeze()
    gc.disable()
    sys.exit(main())


if __name__ == "__main__":
    run()
