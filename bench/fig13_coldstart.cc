/**
 * @file
 * Figure 13: enclave cold-start amortization (module store + warm
 * pool).
 *
 * Measures the per-request startup pipeline for a GPU worker enclave
 * under three strategies, in virtual time:
 *
 *  - cold:   legacy pipeline per request -- create (manifest parse,
 *            image hash, measurement SHA), remote attestation, then
 *            sRPC connect (local attestation, grant, dCheck,
 *            executor spawn).
 *  - warm:   createEnclaveCached() with the module resident in the
 *            SPM module store: the create step skips the parse +
 *            hash + measurement SHA; attestation and connect are
 *            unchanged.
 *  - pooled: a WarmPool prefilled with attested, pre-connected
 *            shells; a request binds the cached module onto a free
 *            shell (owner-authenticated HMAC) and goes straight to
 *            work.
 *
 * Each request does the same unit of work (one synchronous sRPC
 * call) so the strategies stay comparable. The report breaks the
 * startup down by phase and prints both speedups over cold. Times
 * are virtual, so the table and the ratios are exactly reproducible
 * and bench/golden/fig13_coldstart.txt pins them byte for byte; the
 * bench exits nonzero if warm is not cheaper than cold or pooled is
 * not cheaper than warm.
 */

#include "accel/builtin_kernels.hh"
#include "bench_util.hh"
#include "core/system.hh"
#include "core/warm_pool.hh"

using namespace cronus;
using namespace cronus::bench;
using namespace cronus::core;

namespace
{

/** Startup phases of one request, virtual ns. */
struct Phases
{
    SimTime create = 0;  ///< create / cached-create
    SimTime attest = 0;  ///< remote attestation round trip
    SimTime chanAttest = 0;  ///< connect: local attestation
    SimTime chanGrant = 0;   ///< connect: shared-memory grant
    SimTime chanDcheck = 0;  ///< connect: dCheck handshake
    SimTime chanExec = 0;    ///< connect: executor spawn
    SimTime chanOther = 0;   ///< connect: framing remainder
    SimTime bind = 0;        ///< pooled: acquire + module bind

    SimTime
    startup() const
    {
        return create + attest + chanAttest + chanGrant +
               chanDcheck + chanExec + chanOther + bind;
    }

    void
    accumulate(const Phases &p)
    {
        create += p.create;
        attest += p.attest;
        chanAttest += p.chanAttest;
        chanGrant += p.chanGrant;
        chanDcheck += p.chanDcheck;
        chanExec += p.chanExec;
        chanOther += p.chanOther;
        bind += p.bind;
    }
};

/** The worker payload. The kernel list is padded with repeats to a
 *  realistic cubin size: module-store savings scale with the bytes
 *  the measurement SHA no longer hashes. */
struct WorkerModule
{
    std::string manifestJson;
    std::string imageName = "worker.cubin";
    Bytes image;

    WorkerModule()
    {
        accel::GpuModuleImage module;
        module.name = imageName;
        const char *kernels[] = {"fill_f32", "vec_add_f32",
                                 "saxpy_f32"};
        for (int i = 0; i < 2000; ++i)
            module.kernels.push_back(kernels[i % 3]);
        image = module.serialize();

        manifestJson =
            Manifest::build("gpu", imageName, image,
                            CudaRuntime::manifestCalls(), 4ull << 20);
    }
};

/** One machine per strategy run, so strategies don't share clock or
 *  partition state. */
struct Rig
{
    std::unique_ptr<CronusSystem> system;
    AppHandle driver;
    WorkerModule worker;

    Rig()
    {
        Logger::instance().setQuiet(true);
        accel::registerBuiltinKernels();
        auto &reg = CpuFunctionRegistry::instance();
        if (!reg.has("fig13_noop")) {
            reg.registerFunction(
                "fig13_noop", [](CpuCallContext &ctx) {
                    ctx.charge(1);
                    return Result<Bytes>(Bytes{});
                });
        }
        CronusConfig config;
        config.numGpus = 1;
        config.withNpu = false;
        config.moduleStoreBytes = 16ull << 20;
        system = std::make_unique<CronusSystem>(config);

        CpuImage di;
        di.exports = {"fig13_noop"};
        Bytes db = di.serialize();
        std::string dm = Manifest::build(
            "cpu", "driver.so", db, {{"fig13_noop", false}}, 2ull << 20);
        driver = system->createEnclave(dm, "driver.so", db).value();
    }

    SimTime now() const
    {
        return system->platform().clock().now();
    }
};

/** Shared tail of a cold/warm request once the enclave exists:
 *  attestation, connect (with per-phase channel stats), one unit of
 *  work, teardown. */
Status
finishRequest(Rig &rig, AppHandle &handle, Phases &p)
{
    SimTime t = rig.now();
    auto report = rig.system->attest(handle, toBytes("fig13"));
    if (!report.isOk())
        return report.status();
    p.attest = rig.now() - t;

    t = rig.now();
    auto channel = rig.system->connect(rig.driver, handle);
    if (!channel.isOk())
        return channel.status();
    SimTime connect_total = rig.now() - t;
    const SrpcStats &cs = channel.value()->stats();
    p.chanAttest = cs.setupAttestNs;
    p.chanGrant = cs.setupGrantNs;
    p.chanDcheck = cs.setupDcheckNs;
    p.chanExec = cs.setupExecutorNs;
    p.chanOther = connect_total - cs.setupAttestNs -
                  cs.setupGrantNs - cs.setupDcheckNs -
                  cs.setupExecutorNs;

    auto r = channel.value()->callSync("cuCtxSynchronize", Bytes{});
    if (!r.isOk())
        return r.status();
    channel.value().reset();
    return rig.system->destroyEnclave(handle);
}

Result<Phases>
coldRequest(Rig &rig)
{
    Phases p;
    SimTime t = rig.now();
    auto handle = rig.system->createEnclave(
        rig.worker.manifestJson, rig.worker.imageName,
        rig.worker.image, "gpu0");
    if (!handle.isOk())
        return handle.status();
    p.create = rig.now() - t;
    Status s = finishRequest(rig, handle.value(), p);
    if (!s.isOk())
        return s;
    return p;
}

Result<Phases>
warmRequest(Rig &rig)
{
    Phases p;
    SimTime t = rig.now();
    auto handle = rig.system->createEnclaveCached(
        rig.worker.manifestJson, rig.worker.imageName,
        rig.worker.image, "gpu0");
    if (!handle.isOk())
        return handle.status();
    p.create = rig.now() - t;
    Status s = finishRequest(rig, handle.value(), p);
    if (!s.isOk())
        return s;
    return p;
}

Result<Phases>
pooledRequest(Rig &rig, WarmPool &pool, const ModuleRecord &record)
{
    Phases p;
    SimTime t = rig.now();
    auto shell = pool.acquire(record);
    if (!shell.isOk())
        return shell.status();
    p.bind = rig.now() - t;

    auto r = shell.value()->channel->callSync("cuCtxSynchronize",
                                              Bytes{});
    if (!r.isOk())
        return r.status();
    Status s = pool.release(shell.value());
    if (!s.isOk())
        return s;
    return p;
}

void
printRow(const char *name, SimTime cold, SimTime warm,
         SimTime pooled)
{
    std::printf("%-26s %10.1f %10.1f %10.1f\n", name,
                cold / double(kNsPerUs), warm / double(kNsPerUs),
                pooled / double(kNsPerUs));
}

} // namespace

int
main()
{
    const uint64_t requests = 16;

    header("Figure 13: cold-start amortization "
           "(module store + warm pool)");

    /* --- cold: the legacy pipeline, per request --- */
    Rig cold_rig;
    Phases cold_sum;
    for (uint64_t i = 0; i < requests; ++i) {
        auto p = coldRequest(cold_rig);
        if (!p.isOk()) {
            std::printf("cold request failed: %s\n",
                        p.status().toString().c_str());
            return 1;
        }
        cold_sum.accumulate(p.value());
    }

    /* --- warm: module resident in the store --- */
    Rig warm_rig;
    /* Untimed admission so every measured request is a hit. */
    auto admitted = warm_rig.system->moduleStore().admit(
        warm_rig.worker.manifestJson, warm_rig.worker.imageName,
        warm_rig.worker.image);
    if (!admitted.isOk()) {
        std::printf("admission failed: %s\n",
                    admitted.status().toString().c_str());
        return 1;
    }
    Phases warm_sum;
    for (uint64_t i = 0; i < requests; ++i) {
        auto p = warmRequest(warm_rig);
        if (!p.isOk()) {
            std::printf("warm request failed: %s\n",
                        p.status().toString().c_str());
            return 1;
        }
        warm_sum.accumulate(p.value());
    }

    /* --- pooled: pre-attested, pre-connected shells --- */
    Rig pool_rig;
    auto record = pool_rig.system->moduleStore().admit(
        pool_rig.worker.manifestJson, pool_rig.worker.imageName,
        pool_rig.worker.image);
    if (!record.isOk()) {
        std::printf("admission failed: %s\n",
                    record.status().toString().c_str());
        return 1;
    }
    WarmPool::Config pc;
    pc.deviceType = "gpu";
    pc.deviceName = "gpu0";
    WarmPool pool(*pool_rig.system, pc);
    Status prefill = pool.prefill(2, &pool_rig.driver);
    if (!prefill.isOk()) {
        std::printf("prefill failed: %s\n",
                    prefill.toString().c_str());
        return 1;
    }
    Phases pooled_sum;
    for (uint64_t i = 0; i < requests; ++i) {
        auto p = pooledRequest(pool_rig, pool, *record.value());
        if (!p.isOk()) {
            std::printf("pooled request failed: %s\n",
                        p.status().toString().c_str());
            return 1;
        }
        pooled_sum.accumulate(p.value());
    }

    /* --- report (virtual us per request) --- */
    std::printf("\n%llu requests per strategy; startup phases in "
                "virtual us/request\n\n",
                static_cast<unsigned long long>(requests));
    std::printf("%-26s %10s %10s %10s\n", "phase", "cold", "warm",
                "pooled");
    printRow("create (parse+hash+SHA)", cold_sum.create / requests,
             warm_sum.create / requests, 0);
    printRow("remote attestation", cold_sum.attest / requests,
             warm_sum.attest / requests, 0);
    printRow("connect: local attest",
             cold_sum.chanAttest / requests,
             warm_sum.chanAttest / requests, 0);
    printRow("connect: grant", cold_sum.chanGrant / requests,
             warm_sum.chanGrant / requests, 0);
    printRow("connect: dCheck", cold_sum.chanDcheck / requests,
             warm_sum.chanDcheck / requests, 0);
    printRow("connect: executor", cold_sum.chanExec / requests,
             warm_sum.chanExec / requests, 0);
    printRow("connect: framing", cold_sum.chanOther / requests,
             warm_sum.chanOther / requests, 0);
    printRow("pool acquire+bind", 0, 0, pooled_sum.bind / requests);
    SimTime cold_ns = cold_sum.startup() / requests;
    SimTime warm_ns = warm_sum.startup() / requests;
    SimTime pooled_ns = pooled_sum.startup() / requests;
    std::printf("%-26s %10s %10s %10s\n", "", "----------",
                "----------", "----------");
    printRow("startup total", cold_ns, warm_ns, pooled_ns);

    std::printf("\nspeedup over cold: warm %.2fx, pooled %.2fx\n",
                double(cold_ns) / double(warm_ns),
                double(cold_ns) / double(pooled_ns));
    std::printf("pool: %s\n",
                pool.statistics().toJson().dump().c_str());
    std::printf("store: %s\n",
                warm_rig.system->moduleStore()
                    .statistics().toJson().dump().c_str());

    bool failed = false;
    if (warm_ns >= cold_ns) {
        std::printf("FAILED: warm start is not cheaper than cold\n");
        failed = true;
    }
    if (pooled_ns >= warm_ns) {
        std::printf("FAILED: pooled start is not cheaper than "
                    "warm\n");
        failed = true;
    }
    exportTraceIfEnabled("fig13_coldstart.trace.json");
    return failed ? 1 : 0;
}
