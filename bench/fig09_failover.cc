/**
 * @file
 * Figure 9: supervised failover of two tasks on separate partitions.
 *
 * Task A's partition is crashed mid-run by a deterministic fault
 * plan (src/inject/): the kill fires inside a checked SPM access and
 * surfaces to the task through the proceed-trap path. A Supervisor
 * (src/recover/) stages the recovery -- backoff, scrub, mOS reload --
 * and task A's ResumableChannel reconnects to the new incarnation,
 * restores its sealed checkpoint and replays the in-flight calls;
 * task B is unaffected throughout. The monolithic comparator needs a
 * whole-machine reboot (~2 minutes) and takes every task down with
 * it. A second run crash-loops the partition (every incarnation is
 * killed) and must end in deterministic quarantine with the channel
 * reporting GaveUp. The bench exits nonzero on any invariant-audit
 * violation, a failed recovery, a recovery outside [100 ms, 2 s) or
 * not under 1/50 of the reboot, a task B that stalls during the
 * outage, a task A that does not serve on both sides of the crash,
 * or a crash-loop that does not end quarantined. The stdout is
 * pinned at full scale by bench/golden/fig09_failover.txt (ctest
 * golden_fig09_failover).
 */

#include "bench_util.hh"
#include "workloads/failover.hh"

using namespace cronus;
using namespace cronus::bench;
using namespace cronus::workloads;

namespace
{

void
printSeries(const char *name, const std::vector<double> &rates,
            SimTime bucket_ns)
{
    std::printf("%-7s t(ms):rate ", name);
    for (size_t i = 0; i < rates.size(); ++i) {
        if (i % 5 == 0)
            std::printf(" %llu:%.0f",
                        static_cast<unsigned long long>(
                            i * bucket_ns / kNsPerMs),
                        rates[i]);
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    header("Figure 9: supervised failover timeline "
           "(task steps/second)");

    FailoverConfig config;
    auto timeline = runFailoverTimeline(config);
    if (!timeline.isOk()) {
        std::printf("run failed: %s\n",
                    timeline.status().toString().c_str());
        return 1;
    }
    const FailoverTimeline &t = timeline.value();

    std::printf("crash scheduled at t=%llu ms into task A's "
                "partition (seed %llu)\n\n",
                static_cast<unsigned long long>(kFailoverCrashAtNs /
                                                kNsPerMs),
                static_cast<unsigned long long>(kFailoverFaultSeed));
    printSeries("task A", t.taskARate, kFailoverBucketNs);
    printSeries("task B", t.taskBRate, kFailoverBucketNs);

    std::printf("\n%-34s %14s\n", "recovery strategy",
                "downtime");
    std::printf("%-34s %11.0f ms\n",
                "CRONUS supervised (partition)",
                t.recoveryNs / double(kNsPerMs));
    std::printf("%-34s %11.0f ms\n",
                "monolithic (machine reboot)",
                t.machineRebootNs / double(kNsPerMs));
    std::printf("\ntask B steps during A's outage: %llu "
                "(fault isolation R3.1)\n",
                static_cast<unsigned long long>(
                    t.taskBStepsDuringOutage));
    std::printf("channel reconnects: %llu, replayed in-flight "
                "calls: %llu, final state: %s\n",
                static_cast<unsigned long long>(t.reconnects),
                static_cast<unsigned long long>(t.replayedCalls),
                t.finalChannelState.c_str());
    if (t.recoveryNs != 0)
        std::printf("speedup over reboot: %.0fx\n",
                    double(t.machineRebootNs) / t.recoveryNs);

    std::printf("\nsupervisor: %s\n", t.supervisorReport.c_str());
    std::printf("injection log: %s\n", t.injectionReport.c_str());
    std::printf("invariant audit: %llu violation(s)\n",
                static_cast<unsigned long long>(t.auditViolations));

    bool failed = false;
    if (t.auditViolations != 0) {
        std::printf("FAILED: invariant violations detected\n");
        failed = true;
    }
    if (t.recoveryNs == 0 || t.reconnects == 0 || t.gaveUp) {
        std::printf("FAILED: task A did not recover through the "
                    "supervised path\n");
        failed = true;
    }
    /* The figure's claims: recovery takes hundreds of ms, not
     * minutes; task B keeps working through A's outage; task A
     * serves both before the crash and after recovery. */
    if (t.recoveryNs < 100 * kNsPerMs || t.recoveryNs >= 2 * kNsPerSec) {
        std::printf("FAILED: recovery outside [100 ms, 2 s)\n");
        failed = true;
    }
    if (t.recoveryNs * 50 >= t.machineRebootNs) {
        std::printf("FAILED: recovery not under 1/50 of the machine "
                    "reboot\n");
        failed = true;
    }
    if (t.taskBStepsDuringOutage == 0) {
        std::printf("FAILED: task B made no progress during the "
                    "outage\n");
        failed = true;
    }
    size_t crash_bucket = kFailoverCrashAtNs / kFailoverBucketNs;
    double before = 0, after = 0;
    for (size_t i = 0; i < t.taskARate.size(); ++i) {
        if (i < crash_bucket)
            before += t.taskARate[i];
        else if (i > crash_bucket + 6)
            after += t.taskARate[i];
    }
    if (before <= 0 || after <= 0) {
        std::printf("FAILED: task A did not serve both before the "
                    "crash and after recovery\n");
        failed = true;
    }

    /* Second run: crash-loop the partition. Every incarnation is
     * killed; the Supervisor must exhaust its restart budget and
     * quarantine gpu0, and the channel must surface GaveUp. */
    header("Figure 9b: crash-loop quarantine (restart budget)");
    FailoverConfig loop_cfg = config;
    loop_cfg.crashLoop = true;
    auto loop = runFailoverTimeline(loop_cfg);
    if (!loop.isOk()) {
        std::printf("crash-loop run failed: %s\n",
                    loop.status().toString().c_str());
        return 1;
    }
    const FailoverTimeline &l = loop.value();
    std::printf("restart budget: %u, reconnects survived: %llu, "
                "final state: %s, quarantined: %s\n",
                loop_cfg.restartBudget,
                static_cast<unsigned long long>(l.reconnects),
                l.finalChannelState.c_str(),
                l.quarantined ? "yes" : "no");
    std::printf("supervisor: %s\n", l.supervisorReport.c_str());
    std::printf("invariant audit: %llu violation(s)\n",
                static_cast<unsigned long long>(l.auditViolations));
    if (l.auditViolations != 0) {
        std::printf("FAILED: invariant violations in crash-loop "
                    "run\n");
        failed = true;
    }
    if (!l.gaveUp || !l.quarantined) {
        std::printf("FAILED: crash-loop did not end in quarantine "
                    "+ GaveUp\n");
        failed = true;
    }
    exportTraceIfEnabled("fig09_failover.trace.json");
    return failed ? 1 : 0;
}
