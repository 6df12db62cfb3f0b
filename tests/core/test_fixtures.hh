/** Shared fixtures for core-layer tests. */

#ifndef CRONUS_TESTS_CORE_TEST_FIXTURES_HH
#define CRONUS_TESTS_CORE_TEST_FIXTURES_HH

#include <gtest/gtest.h>

#include "accel/builtin_kernels.hh"
#include "core/auto_partition.hh"
#include "core/system.hh"

namespace cronus::core::testing
{

/** Register test CPU functions once per process. */
inline void
registerTestCpuFunctions()
{
    auto &reg = CpuFunctionRegistry::instance();
    if (reg.has("echo"))
        return;
    reg.registerFunction("echo", [](CpuCallContext &ctx) {
        ctx.charge(100);
        return Result<Bytes>(ctx.args);
    });
    reg.registerFunction("accumulate", [](CpuCallContext &ctx) {
        ByteReader r(ctx.args);
        auto delta = r.getU64();
        if (!delta.isOk())
            return Result<Bytes>(delta.status());
        uint64_t total = delta.value();
        auto it = ctx.store.find("total");
        if (it != ctx.store.end()) {
            ByteReader prev(it->second);
            total += prev.getU64().value();
        }
        ByteWriter w;
        w.putU64(total);
        ctx.store["total"] = w.data();
        ctx.charge(50);
        return Result<Bytes>(w.take());
    });
    reg.registerFunction("fail", [](CpuCallContext &) {
        return Result<Bytes>(
            Status(ErrorCode::InvalidArgument, "requested failure"));
    });
}

inline Bytes
cpuImageBytes()
{
    CpuImage image;
    image.exports = {"echo", "accumulate", "fail"};
    return image.serialize();
}

inline Bytes
gpuImageBytes()
{
    accel::registerBuiltinKernels();
    accel::GpuModuleImage image{
        "test.cubin",
        {"fill_f32", "vec_add_f32", "matmul_f32", "saxpy_f32",
         "reduce_sum_f32"}};
    return image.serialize();
}

inline std::string
manifestJson(const std::string &device_type,
             const std::map<std::string, Bytes> &images,
             const std::vector<McallDecl> &calls,
             const std::string &memory = "4M")
{
    Manifest m;
    m.deviceType = device_type;
    for (const auto &[name, bytes] : images)
        m.images[name] = crypto::digestHex(crypto::sha256(bytes));
    m.mEcalls = calls;
    m.memoryBytes = Manifest::parseMemorySize(memory).value();
    return m.toJson();
}

inline std::string
cpuManifest()
{
    return manifestJson("cpu", {{"app.so", cpuImageBytes()}},
                        {{"echo", false},
                         {"accumulate", false},
                         {"fail", false}});
}

inline std::string
gpuManifest()
{
    return manifestJson("gpu", {{"test.cubin", gpuImageBytes()}},
                        CudaRuntime::manifestCalls());
}

inline std::string
npuManifest()
{
    return manifestJson("npu", {}, NpuRuntime::manifestCalls());
}

/** Machine-building helpers shared by the plain fixture and the
 *  isolation-backend-parameterized one. */
class CronusFixtureMixin
{
  protected:
    void
    boot(tee::BackendSelect backend = tee::BackendSelect::Default)
    {
        Logger::instance().setQuiet(true);
        registerTestCpuFunctions();
        accel::registerBuiltinKernels();
        CronusConfig cfg;
        cfg.backend = backend;
        system = std::make_unique<CronusSystem>(cfg);
    }

    Result<AppHandle>
    makeCpuEnclave()
    {
        return system->createEnclave(cpuManifest(), "app.so",
                                     cpuImageBytes());
    }

    Result<AppHandle>
    makeGpuEnclave(const std::string &device = "")
    {
        return system->createEnclave(gpuManifest(), "test.cubin",
                                     gpuImageBytes(), device);
    }

    Result<AppHandle>
    makeNpuEnclave()
    {
        return system->createEnclave(npuManifest(), "", Bytes{});
    }

    std::unique_ptr<CronusSystem> system;
};

/** A booted single-GPU + NPU CRONUS machine (default backend). */
class CronusTest : public ::testing::Test,
                   protected CronusFixtureMixin
{
  protected:
    void
    SetUp() override
    {
        boot();
    }
};

/** The same machine, value-parameterized over the isolation
 *  substrate (TrustZone vs. RISC-V PMP). Suites deriving from this
 *  run every case differentially on both backends. */
class CronusBackendTest
    : public ::testing::TestWithParam<tee::BackendSelect>,
      protected CronusFixtureMixin
{
  protected:
    void
    SetUp() override
    {
        boot(GetParam());
    }
};

/** INSTANTIATE_TEST_SUITE_P name generator for backend params. */
inline std::string
backendParamName(
    const ::testing::TestParamInfo<tee::BackendSelect> &info)
{
    return std::string(
        tee::backendName(tee::resolveBackend(info.param)));
}

} // namespace cronus::core::testing

#endif // CRONUS_TESTS_CORE_TEST_FIXTURES_HH
