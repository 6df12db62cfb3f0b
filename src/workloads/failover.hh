/**
 * @file
 * Failover timeline driver (§VI-D, Fig. 9), supervised edition.
 *
 * Two matrix-computing tasks run on separate S-EL2 partitions (two
 * GPUs). Mid-run, one partition is crashed by a deterministic fault
 * plan (src/inject/): the injected kill fires inside a checked SPM
 * access, so the victim's peers discover it through the proceed-trap
 * path exactly as on real hardware. Recovery is *not* hand-scripted:
 * a Supervisor (src/recover/) stages backoff + scrub + reboot under
 * a restart budget, and task A rides a ResumableChannel that parks
 * on PeerFailed, reconnects to the recovered incarnation (re-running
 * attestation + dCheck), restores the sealed checkpoint and replays
 * the un-acked in-flight calls. Task B is never interrupted; the
 * monolithic comparator reboots the whole machine (minutes) and
 * loses both. With crashLoop set, the plan kills every incarnation
 * until the budget is exhausted and the run must end in quarantine
 * with the channel reporting GaveUp. An InvariantAuditor rides along
 * and the timeline carries its report.
 */

#ifndef CRONUS_WORKLOADS_FAILOVER_HH
#define CRONUS_WORKLOADS_FAILOVER_HH

#include "base/stats.hh"
#include "base/status.hh"

namespace cronus::workloads
{

/** Crash time of task A's partition, from the start of the run. */
inline constexpr SimTime kFailoverCrashAtNs = 1 * kNsPerSec;
/** Width of one throughput bucket of the timeline. */
inline constexpr SimTime kFailoverBucketNs = 100 * kNsPerMs;
/** Seed of the deterministic fault plan (src/inject/). */
inline constexpr uint64_t kFailoverFaultSeed = 1;

struct FailoverConfig
{
    /** Kill every new incarnation of task A's partition until the
     *  restart budget is exhausted (quarantine path). */
    bool crashLoop = false;
    /* Supervisor policy (src/recover/). */
    uint32_t restartBudget = 3;
    SimTime backoffBaseNs = 20 * kNsPerMs;
};

struct FailoverTimeline
{
    /** Completed task steps per second, per time bucket. */
    std::vector<double> taskARate;
    std::vector<double> taskBRate;
    /** Virtual time from crash to task A serving again. */
    SimTime recoveryNs = 0;
    /** The monolithic comparator: whole-machine reboot time. */
    SimTime machineRebootNs = 0;
    /** Task B steps completed while A was down (isolation proof). */
    uint64_t taskBStepsDuringOutage = 0;
    /** Journaled calls replayed into recovered incarnations. */
    uint64_t replayedCalls = 0;
    /** Successful channel reconnects (one per survived kill). */
    uint64_t reconnects = 0;
    /** Task A's channel gave up (crash-loop path). */
    bool gaveUp = false;
    /** gpu0 ended the run quarantined on the dispatcher. */
    bool quarantined = false;
    /** Task A channel state at the end ("live"/"parked"/...). */
    std::string finalChannelState;
    /** Supervisor event log + per-device health (JSON). */
    std::string supervisorReport;
    /** Fault-injection log (JSON) from the FaultInjector. */
    std::string injectionReport;
    /** Invariant audit report (JSON) from the InvariantAuditor. */
    std::string auditReport;
    /** Violations the auditor recorded; a clean run has zero. */
    uint64_t auditViolations = 0;
};

Result<FailoverTimeline> runFailoverTimeline(
    const FailoverConfig &config);

} // namespace cronus::workloads

#endif // CRONUS_WORKLOADS_FAILOVER_HH
