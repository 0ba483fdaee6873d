"""Command-line harness: `qfa verify|detect|measure|factor|regularize`.

Configuration is a flat key=value file (--config) plus flags; flags win.
`verify` reads the key seed from it, and any other key is a usage error.
Randomized checks take a 64-bit --seed (default 0xF0F2).  Exit code 0 means
every check passed; 1 means a FAIL/ERROR or a search whose budget ran out
(bound-only); usage errors, and inputs of the wrong shape or beyond a capacity
limit, exit with 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import regularize as reg
from .core import CapacityError, GroupSubset, ShapeError
from .detectors import (
    BOUND_ONLY,
    FOUND,
    SearchBudget,
    _search,
    cap2_check,
    count_tree_encodings,
    find_fop2,
    find_hop2,
    find_op,
    vc2_dim,
    vc_dim,
)
from .factors import RankFunction, make_high_rank, pullback_factor, read_factor, factor_rank, write_factor
from .setspec import parse_set_spec
from .suites import DEFAULT_SEED, SUITES, emit_report, run_suite
from .uniformity import (
    TriadDescriptor,
    density_transfer_check,
    dev23_measure,
    dev2_measure,
    k222_count,
    oct_measure,
    triad_graphs,
    u2_norm,
    u3_norm,
)


_CONFIG_KEYS = {"verify": ("seed",)}  # the --config keys each command reads


def _load_config(path, command):
    keys = _CONFIG_KEYS.get(command, ())
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: expected key=value, got {line!r}")
            k, v = (t.strip() for t in line.split("=", 1))
            if k not in keys:
                raise ValueError(f"{path}: unknown key {k!r}; {command} reads {list(keys)}")
            out[k] = v
    return out


def cmd_verify(args):
    seed = args.seed if args.seed is not None else int(args.config_values.get("seed", DEFAULT_SEED))
    params = {"seed": seed}
    names = [args.suite] if args.suite != "all" else sorted(SUITES)
    overall_ok = True
    reports = []
    for name in names:
        result = run_suite(name, params, jobs=args.jobs)
        reports.append(result)
        sys.stdout.write(emit_report(result, "text").decode())
        overall_ok &= result.verdict == "PASS"
    if args.json:
        payload = [r.to_jsonable() for r in reports]
        with open(args.json, "w") as fh:
            json.dump(payload[0] if len(payload) == 1 else payload, fh, indent=2, default=str)
    return 0 if overall_ok else 1


def cmd_detect(args):
    A = parse_set_spec(args.set)
    kind = args.kind
    budget = SearchBudget(node_limit=args.budget_nodes, time_limit=args.budget_seconds)
    if kind == "tree":
        full = GroupSubset.full(A.spec)
        status, count = _search(count_tree_encodings, A, args.k, full, full, budget)
        w, out = None, {"kind": kind, "d": args.k, "status": "exact" if status == FOUND else status}
        if count is not None:
            out["count"] = str(count)
    elif kind in ("op", "hop2", "fop2"):
        res = {"op": find_op, "hop2": find_hop2, "fop2": find_fop2}[kind](A, args.k, budget)
        w, status = res.witness, res.status
        out = {"kind": kind, "k": args.k, "status": status, "nodes": res.nodes}
    else:  # (value, witness, status): FOUND means the value is exact
        if kind == "cap2":
            value, w, status = cap2_check(A, budget)
        else:
            value, w, status = (vc_dim if kind == "vc" else vc2_dim)(A, args.k, budget)
        key = "holds" if kind == "cap2" else "value"
        out = {"kind": kind, key: value, "status": "exact" if status == FOUND else status}
    if status == BOUND_ONLY:
        out["note"] = "the search budget does not cover the space"
    if args.witness and w is not None:
        out["witness"] = w.to_jsonable()
    print(json.dumps(out, indent=2, default=str))
    return 1 if status == BOUND_ONLY else 0


def _load_triad(args, factor):
    with open(args.triad) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        flat = payload["flat"]
    else:
        flat = payload
    return TriadDescriptor.from_flat(factor, np.asarray(flat, dtype=np.int64))


def cmd_measure(args):
    A = parse_set_spec(args.set)
    import time as _time

    t0 = _time.monotonic()
    if args.quantity in ("u2", "u3"):
        f = A.indicator.astype(float) - A.density()
        val = u2_norm(f, A.spec) if args.quantity == "u2" else u3_norm(f, A.spec)
        report = {"name": args.quantity, "measured": val, "bound": None, "status": "OK"}
    else:
        if not args.factor or not args.triad:
            raise ValueError(f"measure {args.quantity} needs --factor and --triad")
        factor = read_factor(args.factor)
        d = _load_triad(args, factor)
        if args.quantity == "dev2":
            atoms, graphs = triad_graphs(d)
            eps, d2 = dev2_measure(graphs[0])
            report = {"name": "dev2", "measured": eps, "density": d2, "status": "OK"}
        elif args.quantity == "dev23":
            res = dev23_measure(A, d)
            report = {
                "name": "dev23",
                "measured": res.eps1,
                "d2": res.d2,
                "d2_max_dev": res.d2_max_dev,
                "d3": res.d3,
                "status": "OK",
            }
        elif args.quantity == "oct":
            raw, norm = oct_measure(A, d)
            report = {"name": "oct", "measured": norm, "raw": raw, "status": "OK"}
        elif args.quantity == "density-transfer":
            rep = density_transfer_check(A, d, tolerance=args.bound)
            report = rep.to_jsonable()
        elif args.quantity == "k222":
            count = k222_count(d, (0, 0, 0))
            report = {"name": "k222", "measured": count, "status": "OK"}
        else:
            raise ValueError(args.quantity)
    report["runtime_ms"] = round((_time.monotonic() - t0) * 1000, 2)
    print(json.dumps(report, indent=2, default=str))
    return 0


def cmd_factor(args):
    B = read_factor(args.factor)
    if args.action == "rank":
        print(json.dumps({"complexity": list(B.complexity), "rank": str(factor_rank(B))}))
        return 0
    if args.action == "repair":
        r = RankFunction(args.target_rank_fn)
        out = make_high_rank(B, r, args.cap)
        if args.out:
            write_factor(out, args.out)
        print(json.dumps({
            "complexity": list(out.complexity),
            "rank": str(factor_rank(out)),
            "written": args.out or None,
        }))
        return 0
    if args.action == "pullback":
        if not args.pullback:
            raise ValueError("factor pullback needs --pullback <label-space factor file>")
        R = read_factor(args.pullback)
        out = pullback_factor(B, R.linear)
        if args.out:
            write_factor(out, args.out)
        print(json.dumps({
            "complexity": list(out.complexity),
            "purely_linear": out.q == 0,
            "written": args.out or None,
        }))
        return 0
    raise ValueError(args.action)


def cmd_regularize(args):
    A = parse_set_spec(args.set)
    psi = reg.GrowthFunction(args.psi)
    res = reg.stable_linear_decomposition(A, eps=args.eps, psi=psi, max_codim=args.max_codim)
    chain = res["chain"]
    chk = reg.factor_chain_check(chain, A)
    payload = {
        "codim": res["H"].codim,
        "error_cells": res["verdict"].error_count,
        "error_fraction": res["verdict"].error_fraction,
        "strong_conclusion_holds": res["strong_conclusion_holds"],
        "chain_conditions": chk,
        "history": res["history"],
    }
    if args.emit_chain:
        doc = {
            "eps": chain.eps,
            "D": chain.D,
            "ell0": chain.ell0,
            "g": chain.g.formula,
            "f": chain.f.formula,
            "factors": [[v.tolist() for v in L.vectors] for L in chain.factors],
            "partitions": [
                {k: sorted(v) for k, v in part.items()} for part in chain.partitions
            ],
        }
        with open(args.emit_chain, "w") as fh:
            json.dump(doc, fh, indent=2)
        payload["chain_written"] = args.emit_chain
    print(json.dumps(payload, indent=2, default=str))
    return 0 if all(chk.values()) else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="qfa", description=__doc__)
    ap.add_argument("--config", help="flat key=value configuration file")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a named check suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    v.add_argument("--seed", type=int)
    v.add_argument("--json", help="also write the report as JSON to this path")
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("detect", help="witness searches")
    d.add_argument("kind", choices=["op", "hop2", "fop2", "vc", "vc2", "cap2", "tree"])
    d.add_argument("--set", required=True)
    d.add_argument("--k", type=int, default=2)
    d.add_argument("--witness", action="store_true")
    d.add_argument("--budget-nodes", type=int, default=50_000_000)
    d.add_argument("--budget-seconds", type=float, default=600.0)
    d.set_defaults(fn=cmd_detect)

    m = sub.add_parser("measure", help="uniformity and quasirandomness measures")
    m.add_argument("quantity", choices=["u2", "u3", "dev2", "dev23", "oct", "density-transfer", "k222"])
    m.add_argument("--set", required=True)
    m.add_argument("--factor")
    m.add_argument("--triad", help="JSON file with the flat label vector")
    m.add_argument("--bound", type=float, default=0.05)
    m.set_defaults(fn=cmd_measure)

    f = sub.add_parser("factor", help="factor rank, repair, and pullback")
    f.add_argument("action", choices=["rank", "repair", "pullback"])
    f.add_argument("--factor", required=True)
    f.add_argument("--target-rank-fn", default="x")
    f.add_argument("--cap", type=int, default=10)
    f.add_argument("--pullback", help="factor file whose linear part is the label-space factor")
    f.add_argument("--out")
    f.set_defaults(fn=cmd_factor)

    r = sub.add_parser("regularize", help="stable linear decomposition engine")
    r.add_argument("--set", required=True)
    r.add_argument("--eps", type=float, default=0.1)
    r.add_argument("--psi", default="2*x")
    r.add_argument("--max-codim", type=int, default=8)
    r.add_argument("--emit-chain")
    r.set_defaults(fn=cmd_regularize)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.config_values = _load_config(args.config, args.command) if args.config else {}
        return args.fn(args)
    except (ValueError, KeyError, OSError, ShapeError, CapacityError) as exc:
        print(f"qfa: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
