#!/usr/bin/env python3
"""Perf-smoke gate for the memory and crypto fast paths.

Reads the google-benchmark JSON written by `micro_substrate`
(BENCH_substrate.json) and compares each fast-path benchmark's slow
variant (/0) against its fast variant (/1). A single run contains
both: the memory benches flip the software TLB per measurement, and
the crypto benches run the tests' textbook oracle (/0) beside the
portable src/crypto primitive (/1), BM_AesCtrPath/BM_Sha256Path run
that portable path (/0) beside AES-NI/SHA-NI (/1), and
BM_MatmulKernel runs the tests' i-j-k matmul loop (/0) beside the
registered matmul_f32 body (/1); BM_GroupPow runs the tests' binary
square-and-multiply ladder for g^x (/0) beside the fixed-base comb
(/1). BM_U256PowMod, the sliding window against the same ladder at a
full-size base, is recorded but not gated: it saves ~1/5 of the
multiplies, and host noise spread it over 0.93-1.56x in ten runs.

When the run used --benchmark_repetitions, each /0 and /1 time is
the `median` aggregate, so one jittered repetition cannot flip a
gate; a JSON without aggregates (one run each) is read as is.

Fails (exit 1) if the fast variant is slower than the floor for its
family. The SPM copy benches are translation-bound and must show a
real multiple; the sRPC per-call benches are dominated by fixed
executor cost (see DESIGN.md section 8), so their floor only asserts
the fast path never regresses below the uncached walk. The T-table
AES block must stay at least twice as fast as the byte-wise rounds;
the register-blocked matmul body must stay 8x faster than the i-j-k
loop (its AVX2 path read 11.5-14.8x in ten CI-style runs on a 4-vCPU
host, where a body that streams the accumulator row through memory
read at most 6.8x); the comb for g must stay 3x faster than the binary
ladder (it read 4.26-7.28x in ten CI-style runs on a 4-vCPU host,
five tz and five pmp, and a ladder in its place reads ~1x); the
unrolled SHA-256 must never fall behind the rolled loop. AES-NI CTR
and SHA-NI compression must beat the portable paths by a real
multiple; on a CPU without the extension their /1 skips itself and
the family is reported as skipped, not gated.

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
    "BM_MatmulKernel": 8.0,
    "BM_GroupPow": 3.0,
    "BM_AesCtrPath": 4.0,
    "BM_Sha256Path": 2.0,
}

# Families whose /1 needs a CPU extension and skips itself without it.
HARDWARE = {"BM_AesCtrPath", "BM_Sha256Path"}

# Fraction of the baseline /0 over /1 ratio that must survive.
BASELINE_KEEP = 0.5


def load_times(path):
    """(times, skipped): real_time per run name, the median aggregate
    when present, and the error message of each self-skipped run."""
    with open(path) as f:
        doc = json.load(f)
    times, medians, skipped = {}, {}, {}
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b.get("name", ""))
        if b.get("error_occurred"):
            skipped[name] = b.get("error_message", "")
        elif b.get("run_type") != "aggregate":
            times[name] = float(b["real_time"])
        elif b.get("aggregate_name") == "median":
            medians[name] = float(b["real_time"])
    times.update(medians)
    return times, skipped


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

    times, skipped = load_times(args.result)
    base = load_times(args.baseline)[0] if args.baseline else None
    failures = []
    for family, floor in FLOORS.items():
        if family in HARDWARE and f"{family}/1" in skipped:
            print(f"{family}: skipped ({skipped[f'{family}/1']})")
            continue
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
