"""Command-line front end: verification, lattice-sum evaluation, duality,
product hunting, and numeric modular checks, with machine-readable output.

Exit codes: 0 when every requested check passes, 1 when a verification or
deviation check fails, 2 for usage errors and invalid inputs (unknown ids,
bad matrices, tolerances below the certifiable tail, tau outside the upper
half-plane).  Exact rationals are printed as p/q strings; JSON output is
deterministic regardless of the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import NahmForgeError
from .nahm import (NahmQuadruple, _json_matrix, _json_vector, _rational,
                   check_parity_mask, dual_quadruple, nahm_sum)
from .recognizer import hunt
from .series import QSeries
from . import modular, registry


def _json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _fields(text: str, sep: str, form: str) -> list:
    """text split at sep into the fields of form, else a ValueError naming form."""
    parts = text.split(sep)
    if len(parts) != form.count(sep) + 1:
        raise ValueError(f"expected the form {form}, got {text!r}")
    return parts


def _parse_parity(text: str, rank: int):
    mask = [None] * rank
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        idx, res = _fields(part, ":", "i:r")
        i = int(idx)
        if not 0 <= i < rank:
            raise ValueError(f"parity coordinate {i} out of range")
        mask[i] = int(res)
    check_parity_mask(mask, rank)
    return tuple(mask) if any(p is not None for p in mask) else None


MAX_GRID_POINTS = 100_000


def _parse_grid(text: str):
    """Per-coordinate ranges lo:hi:step joined by ';', inclusive ends.  The
    points are counted before any is built, and a grid of more than
    MAX_GRID_POINTS is refused."""
    axes = []
    for part in text.split(";"):
        lo_s, hi_s, step_s = _fields(part, ":", "lo:hi:step")
        lo, hi, step = _rational(lo_s), _rational(hi_s), _rational(step_s)
        if step <= 0 or hi < lo:
            raise ValueError("grid ranges need lo <= hi and step > 0")
        axes.append((lo, step, (hi - lo) // step + 1))
    size = math.prod(n for _, _, n in axes)
    if size > MAX_GRID_POINTS:
        raise ValueError(f"grid has {size} points, more than {MAX_GRID_POINTS}")
    grid = [()]
    for lo, step, n in axes:
        grid = [g + (lo + i * step,) for g in grid for i in range(n)]
    return grid


def _load_quadruple(args) -> tuple[NahmQuadruple, tuple | None]:
    """--quadruple FILE, or --A, --b, --c and --d, read by NahmQuadruple.from_json."""
    if args.quadruple:
        with open(args.quadruple, "r", encoding="utf-8") as fh:
            data = _json(fh.read())
    elif args.A and args.b and args.d:
        data = {"A": _json(args.A), "b": _json(args.b), "c": args.c, "d": _json(args.d)}
    else:
        raise ValueError("need either --quadruple FILE or --A, --b and --d")
    quad, mask = NahmQuadruple.from_json(data)
    if getattr(args, "parity", None):
        mask = _parse_parity(args.parity, quad.rank)
    return quad, mask


def _emit(args, payload, human: str):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _series_lines(s: QSeries) -> str:
    lines = [f"{e}\t{c}" for e, c in s.items()]
    lines.append(f"# exact below order {s.order}")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    rep = registry.verify(args.id, args.order)
    human = f"{rep.id}: {rep.result} (order {rep.order}, {rep.ms} ms)"
    if rep.first_mismatch:
        e, lv, rv = rep.first_mismatch
        human += f"; first mismatch at q^{e}: {lv} vs {rv}"
    _emit(args, rep.to_json(), human)
    return 0 if rep.result in ("pass", "conjecture_pass") else 1


def cmd_verify_all(args) -> int:
    reports = registry.verify_all(args.order, status_filter=args.status_filter,
                                  jobs=args.jobs, param_order=args.param_order)
    payload = [r.to_json() for r in reports]
    lines = [f"{r.id}: {r.result} (order {r.order}, {r.ms} ms)"
             + (f"; {r.error}" if r.error else "") for r in reports]
    n_fail = sum(1 for r in reports if r.result in ("fail", "error"))
    lines.append(f"# {len(reports)} records, {n_fail} failures")
    _emit(args, payload, "\n".join(lines))
    return 1 if n_fail else 0


def cmd_nahm(args) -> int:
    quad, mask = _load_quadruple(args)
    s = nahm_sum(quad, args.order, mask=mask)
    payload = {"den": s.den, "order": str(s.order),
               "terms": [[str(e), str(c)] for e, c in s.items()]}
    _emit(args, payload, _series_lines(s))
    return 0


def cmd_dual(args) -> int:
    quad, mask = _load_quadruple(args)
    dq = dual_quadruple(quad)
    payload = dq.to_json(mask)
    human = json.dumps(payload, indent=2)
    _emit(args, payload, human)
    return 0


def cmd_hunt(args) -> int:
    A, d = _json_matrix(_json(args.A)), _json_vector(_json(args.d), "d")
    grid = _parse_grid(args.b_grid)
    hits = hunt(A, d, grid, args.order, max_n=args.max_n, max_abs=args.max_exp)
    payload = [h.to_json() for h in hits]
    lines = [json.dumps(h.to_json()) for h in hits]
    lines.append(f"# {len(hits)} hits out of {len(grid)} grid points")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_modular_check(args) -> int:
    re_s, im_s = _fields(args.tau, ",", "RE,IM")
    tau = complex(float(re_s), float(im_s))
    names = modular.relations() if args.relation == "all" else [args.relation]
    reports = [modular.check_transformation(name, tau, tol=args.tol)
               for name in names]
    payload = [r.to_json() for r in reports]
    lines = [f"{r.theorem}: max_dev={r.max_dev:.3e} tail={r.tail_bound:.3e} "
             f"{'pass' if r.passed else 'FAIL'}" for r in reports]
    _emit(args, payload if len(payload) > 1 else payload[0], "\n".join(lines))
    return 0 if all(r.passed for r in reports) else 1


def _int_at_least(low: int, what: str):
    """argparse type: an integer >= low, else a usage error (exit code 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be an integer >= {low}")
        return value
    parse.__name__ = what  # argparse names the type in its "invalid value" error
    return parse


_positive_order = _int_at_least(1, "order")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nahm-forge",
        description="exact q-series identity verification and modular checks")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify one registered identity")
    v.add_argument("--id", required=True)
    v.add_argument("--order", type=_positive_order, required=True)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    va = sub.add_parser("verify-all", help="verify the whole registry")
    va.add_argument("--order", type=_positive_order, required=True)
    va.add_argument("--status-filter", choices=["theorem", "known", "conjecture", "all"],
                    default=None)
    # a string default goes through `type`, so a bad NAHM_FORGE_JOBS is a
    # usage error of verify-all alone
    va.add_argument("--jobs", type=int,
                    default=os.environ.get("NAHM_FORGE_JOBS", "1"),
                    help="worker processes (default: $NAHM_FORGE_JOBS or 1)")
    va.add_argument("--param-order", type=_positive_order, default=None,
                    help="order used for parameter-carrying records")
    va.add_argument("--json", action="store_true")
    va.set_defaults(func=cmd_verify_all)

    for name, fn, with_order in (("nahm", cmd_nahm, True), ("dual", cmd_dual, False)):
        c = sub.add_parser(name, help=f"{name} of a quadruple")
        c.add_argument("--quadruple", help="JSON file with A, b, c, d, parity")
        c.add_argument("--A", help='matrix JSON, e.g. [["2","1"],["2","2"]]')
        c.add_argument("--b", help='vector JSON, e.g. ["0","1"]')
        c.add_argument("--c", default="0")
        c.add_argument("--d", help="symmetrizer JSON, e.g. [1,2]")
        if with_order:
            c.add_argument("--order", type=_positive_order, required=True)
            c.add_argument("--parity", help="restrictions like 0:1 or 0:0,1:1")
        c.add_argument("--json", action="store_true")
        c.set_defaults(func=fn)

    h = sub.add_parser("hunt", help="grid search for bounded periodic product forms")
    h.add_argument("--A", required=True)
    h.add_argument("--d", required=True)
    h.add_argument("--b-grid", required=True,
                   help="per-coordinate lo:hi:step ranges joined by ';'")
    h.add_argument("--order", type=_positive_order, required=True)
    h.add_argument("--max-exp", type=_int_at_least(0, "max-exp"), default=4,
                   help="boundedness threshold on the peeled exponents")
    h.add_argument("--max-n", type=_int_at_least(1, "max-n"), default=None,
                   help="number of exponents to peel")
    h.add_argument("--json", action="store_true")
    h.set_defaults(func=cmd_hunt)

    m = sub.add_parser("modular-check", help="numeric transformation check")
    m.add_argument("--relation", required=True,
                   help=f"one of {', '.join(modular.relations())}, or 'all'")
    m.add_argument("--tau", required=True, help="RE,IM with IM > 0")
    m.add_argument("--tol", type=float, default=1e-9)
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=cmd_modular_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NahmForgeError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
