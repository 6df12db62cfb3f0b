/**
 * @file
 * Figure 7: Rodinia computation time, normalized to native (gdev).
 *
 * Paper claims: CRONUS incurs < 7.1% overhead over native on all
 * benchmarks and is faster than HIX-TrustZone (whose per-control-
 * message encrypted RPC dominates).
 */

#include "bench_util.hh"
#include "workloads/rodinia.hh"

using namespace cronus;
using namespace cronus::bench;
using namespace cronus::workloads;

int
main()
{
    registerRodiniaKernels();
    header("Figure 7: Rodinia computation time (normalized to "
           "Linux/native)");

    RodiniaSize size;
    size.scale = 160;
    size.iterations = 8;

    std::printf("%-11s", "benchmark");
    for (const auto &system : allSystems())
        std::printf(" %14s", system.c_str());
    std::printf("   verified\n");

    double worst_cronus = 0.0;
    for (const auto &benchmark : rodiniaBenchmarks()) {
        std::printf("%-11s", benchmark.c_str());
        double native_time = 0.0;
        bool all_verified = true;
        for (const auto &system : allSystems()) {
            auto backend = makeBackend(system,
                                       rodiniaKernelNames());
            auto result = runRodinia(*backend, benchmark, size);
            if (!result.isOk()) {
                std::printf(" %14s", "ERROR");
                continue;
            }
            all_verified &= result.value().verified;
            double t = double(result.value().computeTimeNs);
            if (system == "Linux") {
                native_time = t;
                std::printf(" %13.2fx", 1.0);
            } else {
                double ratio = t / native_time;
                std::printf(" %13.2fx", ratio);
                if (system == "CRONUS")
                    worst_cronus = std::max(worst_cronus, ratio);
            }
        }
        std::printf("   %s\n", all_verified ? "yes" : "NO");
    }
    std::printf("\nCRONUS worst-case overhead: %.1f%% "
                "(paper: < 7.1%%)\n",
                100.0 * (worst_cronus - 1.0));
    exportTraceIfEnabled("fig07_rodinia.trace.json");
    return 0;
}
