/**
 * @file
 * Fuzz harness: seed -> scenario -> differential runs -> oracles.
 *
 * One fuzz iteration runs a scenario up to three ways:
 *
 *   reference  pure-CPU replay (reference.hh), the expected outputs;
 *   faulted    the real system with the fault schedule armed;
 *   baseline   the real system with faults stripped (only when the
 *              scenario has faults) -- the isolation baseline.
 *
 * and then evaluates the oracles:
 *
 *   reference  every non-tainted record matches the reference model
 *              byte-for-byte (code + output);
 *   isolation  every non-tainted record is identical (code, output,
 *              charged virtual time) between the faulted run and the
 *              fault-free baseline -- a faulted partition must not
 *              perturb healthy partitions;
 *   liveness   every non-tainted op completed Ok (attacks: blocked),
 *              and every never-faulted channel drains clean at the
 *              end of the run;
 *   security   every attack op on a non-tainted stream was blocked;
 *   audit      the InvariantAuditor saw no violations, unless a
 *              CorruptHeader fault fired (violations then expected);
 *   runner     setup succeeded (the scenario could be built at all).
 *
 * On failure the report carries the full deterministic trace and --
 * unless shrinking is disabled -- a greedily minimized repro.
 */

#ifndef CRONUS_FUZZ_FUZZ_HH
#define CRONUS_FUZZ_FUZZ_HH

#include "reference.hh"
#include "runner.hh"

namespace cronus::fuzz
{

struct FuzzOptions
{
    bool plantBug = false;
    /** Shrink failing scenarios to a minimal repro. */
    bool shrink = true;
    /** Emit a flight-recorder dump when an oracle fails. The
     *  shrinker turns this off for its probe runs so a shrink does
     *  not spam hundreds of dumps. */
    bool dumpFlightOnFailure = true;
};

struct FuzzFailure
{
    std::string oracle;  ///< "reference", "isolation", ...
    std::string detail;
    int opIndex = -1;    ///< -1: not tied to one op
};

struct FuzzReport
{
    uint64_t seed = 0;
    bool ok = false;
    Scenario scenario;
    std::vector<FuzzFailure> failures;
    /** Trace of the faulted run (deterministic, replayable). */
    JsonValue trace;
    /** Flight-recorder snapshot taken right after the faulted run
     *  (last N trace events before/at the failure). */
    JsonValue flight;
    /** Minimal failing scenario (only when !ok and shrinking ran). */
    Scenario minimal;
    bool shrunk = false;

    /** Failure document: seed, failures, minimal repro, trace. */
    JsonValue toJson() const;
};

/** Run the oracles over @p sc. */
FuzzReport fuzzScenario(const Scenario &sc,
                        const FuzzOptions &opts = FuzzOptions());

/** Expand @p seed and fuzz it. */
FuzzReport fuzzSeed(uint64_t seed,
                    const FuzzOptions &opts = FuzzOptions());

/** The fixed seed corpus for the `swarm` ctest label. */
std::vector<uint64_t> defaultCorpus(size_t runs);

/* ---------------- differential backend oracle ---------------- */

/**
 * One scenario replayed, faults armed, on both isolation substrates
 * (TrustZone stage-2+TZASC vs. RISC-V PMP). The substrate is a pure
 * physical filter beneath the stage-2 trap semantics and charges no
 * virtual time, so the *entire* verdict -- per-op codes, blocked
 * flags, outputs, durations, taints, drains, recoveries, violations,
 * trap counts, end time -- must match field for field. Any
 * difference is a real semantic divergence between the backends.
 */
struct DiffReport
{
    uint64_t seed = 0;
    bool ok = true;
    /** Human-readable field-level mismatches (empty when ok). */
    std::vector<std::string> divergences;
    RunReport tz, pmp;
};

/** Run @p sc on both backends and compare the full verdicts. */
DiffReport diffBackends(const Scenario &sc);

} // namespace cronus::fuzz

#endif // CRONUS_FUZZ_FUZZ_HH
