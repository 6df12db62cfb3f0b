#!/usr/bin/env python3
"""Perf-smoke gate for the memory and crypto fast paths.

Reads the google-benchmark JSON written by `micro_substrate`
(BENCH_substrate.json) and compares each fast-path benchmark's slow
variant (/0) against its fast variant (/1). A single run contains
both: the memory benches flip the software TLB per measurement, and
the crypto benches run the tests' textbook oracle (/0) beside the
src/crypto primitive (/1).

Fails (exit 1) if the fast variant is slower than the floor for its
family. The SPM copy benches are translation-bound and must show a
real multiple; the sRPC per-call benches are dominated by fixed
executor cost (see DESIGN.md section 8), so their floor only asserts
the fast path never regresses below the uncached walk. The T-table
AES block must stay at least twice as fast as the byte-wise rounds;
the unrolled SHA-256 must never fall behind the rolled loop.

With --baseline BASELINE.json (normally the committed snapshot under
bench/baselines/), each family's measured /0 over /1 ratio is also
compared against the baseline's ratio. Ratios are machine-relative
-- both sides of the division come from the same run -- so they
transfer across hosts far better than absolute nanoseconds, but CI
runners still jitter; the gate therefore only fires when a family
keeps less than BASELINE_KEEP (half) of its baseline speedup.
"""

import argparse
import json
import sys

# family -> minimum required /0 over /1 real_time ratio
FLOORS = {
    "BM_SpmRead": 2.0,
    "BM_SpmWrite": 2.0,
    "BM_SrpcCallSync": 1.0,
    "BM_SrpcCallAsync": 1.0,
    "BM_AesBlock": 2.0,
    "BM_Sha256Block": 1.0,
}

# Fraction of the baseline /0 over /1 ratio that must survive.
BASELINE_KEEP = 0.5


def load_times(path):
    with open(path) as f:
        doc = json.load(f)
    times = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        times[b.get("name", "")] = float(b["real_time"])
    return times


def ratio_of(times, family):
    off = times.get(f"{family}/0")
    on = times.get(f"{family}/1")
    if off is None or on is None:
        return None
    return off / on if on > 0 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("result", nargs="?",
                    default="BENCH_substrate.json")
    ap.add_argument("--baseline", metavar="JSON",
                    help="committed snapshot to compare ratios "
                         "against (bench/baselines/)")
    args = ap.parse_args()

    times = load_times(args.result)
    base = load_times(args.baseline) if args.baseline else None
    failures = []
    for family, floor in FLOORS.items():
        ratio = ratio_of(times, family)
        if ratio is None:
            failures.append(f"{family}: missing /0 or /1 result")
            continue
        off = times[f"{family}/0"]
        on = times[f"{family}/1"]
        status = "ok" if ratio >= floor else "FAIL"
        print(f"{family}: off={off:.1f}ns on={on:.1f}ns "
              f"ratio={ratio:.2f}x (floor {floor:.1f}x) {status}")
        if ratio < floor:
            failures.append(
                f"{family}: {ratio:.2f}x < required {floor:.1f}x")
        if base is None:
            continue
        base_ratio = ratio_of(base, family)
        if base_ratio is None:
            failures.append(
                f"{family}: missing from baseline {args.baseline}")
            continue
        need = base_ratio * BASELINE_KEEP
        kept = "ok" if ratio >= need else "FAIL"
        print(f"  baseline ratio {base_ratio:.2f}x, must keep "
              f">= {need:.2f}x {kept}")
        if ratio < need:
            failures.append(
                f"{family}: {ratio:.2f}x lost more than half of "
                f"baseline {base_ratio:.2f}x")
    if failures:
        print("perf-smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("perf-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
