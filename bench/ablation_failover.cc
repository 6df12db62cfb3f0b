/**
 * @file
 * Ablation: cost breakdown of proceed-trap recovery (§IV-D).
 *
 *  - step 1 (invalidate) cost vs number of shared pages,
 *  - step 2 (clear + reload) cost vs partition memory size,
 *  - serialized vs concurrent recovery for 1-4 failed partitions,
 *  - latency of a trapped shared-memory access.
 *
 * Every partition death is delivered through the deterministic fault
 * injector (src/inject/): the kill fires inside a checked SPM access
 * and the step-1 cost is read off the injection log's before/after
 * timestamps. An InvariantAuditor rides along on every rig; the
 * bench fails if any run leaks a grant or tears one down twice.
 */

#include "accel/gpu.hh"
#include "bench_util.hh"
#include "inject/injector.hh"
#include "inject/invariant_auditor.hh"
#include "tee/spm.hh"

using namespace cronus;
using namespace cronus::bench;
using namespace cronus::tee;

namespace
{

struct Rig
{
    std::unique_ptr<hw::Platform> platform;
    std::unique_ptr<SecureMonitor> monitor;
    std::unique_ptr<Spm> spm;
    inject::InvariantAuditor auditor;

    explicit Rig(int gpus, uint64_t secure_mem = 512ull << 20)
    {
        Logger::instance().setQuiet(true);
        hw::PlatformConfig pc;
        pc.secureMemBytes = secure_mem;
        platform = std::make_unique<hw::Platform>(pc);
        for (int i = 0; i < gpus; ++i) {
            accel::GpuConfig gc;
            gc.name = "gpu" + std::to_string(i);
            gc.vramBytes = 8ull << 20;
            gc.rotSeed = toBytes("rot" + std::to_string(i));
            platform->registerDevice(
                std::make_unique<accel::GpuDevice>(gc), 40 + i);
        }
        monitor = std::make_unique<SecureMonitor>(*platform);
        monitor->bootAllSecure();
        spm = std::make_unique<Spm>(*monitor);
        auditor.attachSpm(*spm);
    }

    MosImage
    image(int i)
    {
        return MosImage{"gpu" + std::to_string(i) + ".mos", "gpu",
                        toBytes("code" + std::to_string(i))};
    }

    PartitionId
    partition(int i, uint64_t mem)
    {
        return spm->createPartition(image(i),
                                    "gpu" + std::to_string(i), mem)
            .value();
    }

    /**
     * Kill @p victims through the fault injector. The plan arms one
     * kill per victim, all triggered by the next checked read issued
     * by @p trigger_pid (a probe read of its own first page), so the
     * deaths land inside an SPM access like real faults do. Returns
     * the injection log (tBefore/tAfter bracket each kill).
     */
    std::vector<inject::FiredFault>
    injectKills(const std::vector<PartitionId> &victims,
                PartitionId trigger_pid)
    {
        inject::FaultPlan plan(7);
        for (PartitionId v : victims)
            plan.killOnAccess(
                1, v, inject::AccessFilter::readsBy(trigger_pid));
        inject::FaultInjector inj(*spm, plan);
        inj.arm();
        PhysAddr probe =
            spm->partition(trigger_pid).value()->memBase;
        (void)spm->read(trigger_pid, probe, 8);
        inj.disarm();
        return inj.fired();
    }

    /** Final audit; returns the number of violations recorded. */
    uint64_t
    audit()
    {
        (void)auditor.finalCheck();
        return auditor.violations().size();
    }
};

} // namespace

int
main()
{
    header("Ablation: proceed-trap failure recovery breakdown");

    uint64_t violations = 0;

    /* --- step 1: invalidation vs shared pages --- */
    std::printf("step 1 (invalidate stage-2 + SMMU) vs shared "
                "pages:\n%-12s %14s\n", "pages", "cost (us)");
    for (uint64_t pages : {1u, 4u, 16u, 64u, 256u}) {
        Rig rig(2);
        PartitionId a = rig.partition(0, 8ull << 20);
        PartitionId b = rig.partition(1, 8ull << 20);
        PhysAddr base = rig.spm->partition(a).value()->memBase;
        rig.spm->sharePages(a, b, base, pages);
        auto fired = rig.injectKills({a}, b);
        SimTime cost = fired.empty()
                           ? 0
                           : fired[0].tAfter - fired[0].tBefore;
        std::printf("%-12llu %14.2f\n",
                    static_cast<unsigned long long>(pages),
                    cost / 1000.0);
        /* Deliver the pending trap so the grant retires. */
        rig.spm->read(b, base, 8);
        violations += rig.audit();
    }

    /* --- step 2: clear + reload vs partition memory --- */
    std::printf("\nstep 2 (scrub + mOS reload) vs partition "
                "memory:\n%-12s %14s\n", "mem (MiB)", "cost (ms)");
    for (uint64_t mib : {8u, 16u, 32u, 64u}) {
        Rig rig(1);
        PartitionId a = rig.partition(0, mib << 20);
        rig.injectKills({a}, a);
        SimTime t0 = rig.platform->clock().now();
        rig.spm->recoverPartition(a, rig.image(0));
        std::printf("%-12llu %14.1f\n",
                    static_cast<unsigned long long>(mib),
                    (rig.platform->clock().now() - t0) /
                        double(kNsPerMs));
        violations += rig.audit();
    }

    /* --- concurrent failures --- */
    std::printf("\nconcurrent partition failures (serial vs "
                "concurrent step 2):\n%-10s %13s %13s\n",
                "failures", "serial (ms)", "concur (ms)");
    for (int n : {1, 2, 3, 4}) {
        SimTime serial, concurrent;
        {
            Rig rig(n);
            std::vector<PartitionId> pids;
            for (int i = 0; i < n; ++i)
                pids.push_back(rig.partition(i, 16ull << 20));
            rig.injectKills(pids, pids[0]);
            SimTime t0 = rig.platform->clock().now();
            for (int i = 0; i < n; ++i)
                rig.spm->recoverPartition(pids[i], rig.image(i));
            serial = rig.platform->clock().now() - t0;
            violations += rig.audit();
        }
        {
            Rig rig(n);
            std::vector<PartitionId> pids;
            std::vector<MosImage> images;
            for (int i = 0; i < n; ++i) {
                pids.push_back(rig.partition(i, 16ull << 20));
                images.push_back(rig.image(i));
            }
            rig.injectKills(pids, pids[0]);
            SimTime t0 = rig.platform->clock().now();
            rig.spm->recoverConcurrently(pids, images);
            concurrent = rig.platform->clock().now() - t0;
            violations += rig.audit();
        }
        std::printf("%-10d %13.1f %13.1f\n", n,
                    serial / double(kNsPerMs),
                    concurrent / double(kNsPerMs));
    }

    /* --- trap latency --- */
    {
        Rig rig(2);
        PartitionId a = rig.partition(0, 8ull << 20);
        PartitionId b = rig.partition(1, 8ull << 20);
        PhysAddr base = rig.spm->partition(a).value()->memBase;
        rig.spm->sharePages(a, b, base, 1);
        rig.injectKills({a}, b);
        SimTime t0 = rig.platform->clock().now();
        rig.spm->read(b, base, 8);  /* traps */
        std::printf("\ntrapped shared-memory access latency: "
                    "%.2f us\n",
                    (rig.platform->clock().now() - t0) / 1000.0);
        violations += rig.audit();
    }

    std::printf("\ninvariant audit across all rigs: %llu "
                "violation(s)\n",
                static_cast<unsigned long long>(violations));
    if (violations != 0) {
        std::printf("FAILED: invariant violations detected\n");
        return 1;
    }
    return 0;
}
