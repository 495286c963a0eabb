#!/usr/bin/env python3
"""Verify the full identity registry at research scale and print timings."""

import argparse
import sys
import time

from nahm_forge import registry


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=200)
    ap.add_argument("--param-order", type=int, default=100)
    ap.add_argument("--conjecture-order", type=int, default=300)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    t0 = time.time()
    reports = []
    reports += registry.verify_all(args.order, status_filter="theorem",
                                   jobs=args.jobs, param_order=args.param_order)
    reports += registry.verify_all(args.order, status_filter="known",
                                   jobs=args.jobs, param_order=args.param_order)
    reports += registry.verify_all(args.conjecture_order,
                                   status_filter="conjecture", jobs=args.jobs)
    fails = [r for r in reports if r.result in ("fail", "error")]
    for r in reports:
        print(f"{r.id:24s} {r.status:10s} order {r.order:4d} "
              f"{r.result:15s} {r.ms:6d} ms")
    print(f"# {len(reports)} records in {time.time() - t0:.1f}s, "
          f"{len(fails)} failures")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
