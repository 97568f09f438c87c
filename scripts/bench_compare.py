#!/usr/bin/env python3
"""Compare a bench JSON record against a committed baseline snapshot.

Reads the vessel-bench-5 record (BENCH_5.json: experiments, queue
points and the aggregate "suite" row). Prints per-experiment events/sec
and per-queue-point ns/op deltas, notes improvements, and FAILS (exit 1) on any regression beyond
the tolerance. Pass --warn-only to restore the old advisory behaviour
(always exit 0) for ad-hoc local runs on loaded machines.

Only rows present in BOTH files are compared, so a --quick current run
gates only the quick subset against the full-suite baseline, and the
aggregate suite row is compared only when both records carry one with
the same experiment set (a quick aggregate vs a full-suite aggregate
would be apples to oranges). Rows the baseline has never seen (a
just-added experiment or queue point) are reported as "(new,
informational)" and never gate; refresh the baseline to start gating
them.

Every "overhead" row of CURRENT that carries a max_pct is gated on its
own: its dormant_pct, the cost of dormant guard sites on the dispatch
loop, must not exceed max_pct. This is an absolute claim, not a
baseline delta, so no baseline row is needed. Rows without a max_pct
are reported only.

Usage: bench_compare.py BASELINE CURRENT [--tolerance PCT] [--warn-only]
"""

import argparse
import json
import sys


def load(path, required):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}")
        if required:
            sys.exit(1)
        return None


def pct(new, old):
    if old == 0:
        return 0.0
    return 100.0 * (new - old) / old


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=10.0,
        help="fail when slower than baseline by more than this percent",
    )
    ap.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0",
    )
    args = ap.parse_args()

    # A missing/corrupt file is a hard error in gate mode: a gate that
    # silently passes when its baseline vanished is no gate at all.
    base = load(args.baseline, required=not args.warn_only)
    cur = load(args.current, required=not args.warn_only)
    if base is None or cur is None:
        return 0

    regressions = []
    improvements = 0
    new_rows = 0

    base_exp = {e["name"]: e for e in base.get("experiments", [])}
    cur_names = {e["name"] for e in cur.get("experiments", [])}
    print(f"{'experiment':<12} {'base ev/s':>12} {'now ev/s':>12} {'delta':>8}")
    for e in cur.get("experiments", []):
        b = base_exp.get(e["name"])
        if b is None or b.get("events_per_sec", 0) == 0:
            # A row the baseline has never seen: a just-added experiment.
            # Report it so the trajectory starts now, but never gate on
            # it — there is nothing to regress from.
            new_rows += 1
            print(
                f"{e['name']:<12} {'-':>12} {e['events_per_sec']:>12.0f} "
                f"{'':>8} (new, informational)"
            )
            continue
        d = pct(e["events_per_sec"], b["events_per_sec"])
        # Sub-50ms experiments sit at wall-clock resolution: their
        # events/sec is dominated by timer granularity, not by the
        # simulator. Report them, never gate on them.
        if min(b.get("seconds", 1.0), e.get("seconds", 1.0)) < 0.05:
            print(
                f"{e['name']:<12} {b['events_per_sec']:>12.0f} "
                f"{e['events_per_sec']:>12.0f} {d:>+7.1f}%  "
                "(sub-50ms, informational)"
            )
            continue
        flag = ""
        if d < -args.tolerance:
            flag = "  <-- REGRESSION"
            regressions.append(f"{e['name']} {d:+.1f}% ev/s")
        elif d > args.tolerance:
            flag = "  (faster than baseline)"
            improvements += 1
        print(
            f"{e['name']:<12} {b['events_per_sec']:>12.0f} "
            f"{e['events_per_sec']:>12.0f} {d:>+7.1f}%{flag}"
        )

    # Aggregate suite throughput — only when both records aggregate the
    # same experiment set.
    bs, cs = base["suite"], cur["suite"]
    if set(base_exp) == cur_names and bs["events_per_sec"]:
        d = pct(cs["events_per_sec"], bs["events_per_sec"])
        flag = ""
        if d < -args.tolerance:
            flag = "  <-- REGRESSION"
            regressions.append(f"suite {d:+.1f}% ev/s")
        elif d > args.tolerance:
            flag = "  (faster than baseline)"
            improvements += 1
        print(
            f"{'suite':<12} {bs['events_per_sec']:>12.0f} "
            f"{cs['events_per_sec']:>12.0f} {d:>+7.1f}%{flag}"
        )

    base_q = {(q["backend"], q["pending"]): q for q in base.get("queue", [])}
    rows = cur.get("queue", [])
    if rows:
        print()
        print(f"{'queue point':<22} {'base ns/op':>11} {'now ns/op':>11} {'delta':>8}")
    for q in rows:
        key = (q["backend"], q["pending"])
        name = f"{q['backend']} pending={q['pending']}"
        b = base_q.get(key)
        if b is None or b.get("ns_per_op", 0) == 0:
            new_rows += 1
            print(
                f"{name:<22} {'-':>11} {q['ns_per_op']:>11.1f} "
                f"{'':>8} (new, informational)"
            )
            continue
        d = pct(q["ns_per_op"], b["ns_per_op"])  # higher ns/op = slower
        flag = ""
        if d > args.tolerance:
            flag = "  <-- REGRESSION"
            regressions.append(f"{name} {d:+.1f}% ns/op")
        elif d < -args.tolerance:
            flag = "  (faster than baseline)"
            improvements += 1
        print(
            f"{name:<22} {b['ns_per_op']:>11.1f} {q['ns_per_op']:>11.1f} "
            f"{d:>+7.1f}%{flag}"
        )

    rows = cur.get("overhead", [])
    if rows:
        print()
    for o in rows:
        line = f"{o['name'] + ' dormant overhead':<28} {o['dormant_pct']:>+7.2f}%"
        if "max_pct" not in o:
            print(f"{line}  (not gated)")
        elif o["dormant_pct"] > o["max_pct"]:
            print(f"{line}  (max {o['max_pct']:.1f}%)  <-- REGRESSION")
            regressions.append(f"{o['name']} overhead {o['dormant_pct']:+.2f}%")
        else:
            print(f"{line}  (max {o['max_pct']:.1f}%)")

    print()
    if new_rows:
        print(
            f"bench_compare: {new_rows} new row(s) absent from baseline "
            "(informational only; refresh the baseline to start gating them)"
        )
    if improvements:
        print(f"bench_compare: {improvements} point(s) faster than baseline")
    if regressions:
        print(
            f"bench_compare: {len(regressions)} regression(s) beyond "
            f"{args.tolerance:.0f}% tolerance or a row's max_pct:"
        )
        for r in regressions:
            print(f"  - {r}")
        if args.warn_only:
            print("bench_compare: warn-only, not failing the build")
            return 0
        return 1
    print("bench_compare: within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
