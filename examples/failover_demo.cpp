/**
 * @file
 * Failover demo (Fig. 9): two matrix tasks on separate partitions;
 * one partition is crashed mid-run and recovered with the
 * proceed-trap protocol while the other keeps computing.
 */

#include <cstdio>

#include "workloads/failover.hh"

using namespace cronus;
using namespace cronus::workloads;

namespace
{

void
printTimeline(const char *name, const std::vector<double> &rates,
              SimTime bucket_ns)
{
    std::printf("%-7s |", name);
    double peak = 1.0;
    for (double r : rates)
        peak = std::max(peak, r);
    for (double r : rates) {
        int level = static_cast<int>(8.0 * r / peak);
        const char *glyphs[] = {" ", ".", ":", "-", "=",
                                "+", "*", "#", "#"};
        std::printf("%s", glyphs[level]);
    }
    std::printf("|  (one column = %llu ms)\n",
                static_cast<unsigned long long>(bucket_ns /
                                                kNsPerMs));
}

} // namespace

int
main()
{
    FailoverConfig config;
    auto timeline = runFailoverTimeline(config);
    if (!timeline.isOk()) {
        std::printf("failover run failed: %s\n",
                    timeline.status().toString().c_str());
        return 1;
    }
    const FailoverTimeline &t = timeline.value();

    std::printf("two matrix tasks, crash of task A's partition at "
                "t=%llu ms\n\n",
                static_cast<unsigned long long>(kFailoverCrashAtNs /
                                                kNsPerMs));
    printTimeline("task A", t.taskARate, kFailoverBucketNs);
    printTimeline("task B", t.taskBRate, kFailoverBucketNs);

    std::printf("\npartition recovery: %.0f ms "
                "(machine reboot comparator: %.0f s)\n",
                t.recoveryNs / double(kNsPerMs),
                t.machineRebootNs / double(kNsPerSec));
    std::printf("task B steps completed during the outage: %llu\n",
                static_cast<unsigned long long>(
                    t.taskBStepsDuringOutage));
    std::printf("failover_demo OK\n");
    return 0;
}
