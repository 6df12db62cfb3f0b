/** Rodinia workload tests: every benchmark verifies on every
 *  system. */

#include <gtest/gtest.h>

#include <set>

#include "baseline/cronus_backend.hh"
#include "baseline/direct.hh"
#include "baseline/hix_tz.hh"
#include "workloads/rodinia.hh"

namespace cronus::workloads
{
namespace
{

struct Case
{
    std::string system;
    std::string benchmark;
};

/* Without this gtest lists each param as its raw (heap) bytes, so
 * the test names would change from run to run. */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.system << "/" << c.benchmark;
}

class RodiniaTest : public ::testing::TestWithParam<Case>
{
};

std::unique_ptr<baseline::ComputeBackend>
makeBackend(const std::string &which)
{
    Logger::instance().setQuiet(true);
    registerRodiniaKernels();
    using Kind = baseline::DirectBackend::Kind;
    if (which == "native")
        return std::make_unique<baseline::DirectBackend>(
            Kind::Linux, rodiniaKernelNames());
    if (which == "tz")
        return std::make_unique<baseline::DirectBackend>(
            Kind::TrustZone, rodiniaKernelNames());
    if (which == "hix")
        return std::make_unique<baseline::HixTzBackend>(
            rodiniaKernelNames());
    baseline::CronusBackendConfig c;
    c.gpuKernels = rodiniaKernelNames();
    return std::make_unique<baseline::CronusBackend>(c);
}

TEST_P(RodiniaTest, VerifiesAndReportsTime)
{
    auto backend = makeBackend(GetParam().system);
    RodiniaSize size;
    size.scale = 64;
    size.iterations = 2;
    auto result = runRodinia(*backend, GetParam().benchmark, size);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_TRUE(result.value().verified)
        << GetParam().benchmark << " on " << GetParam().system;
    EXPECT_GT(result.value().computeTimeNs, 0u);
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const auto &system :
         {"native", "tz", "hix", "cronus"}) {
        for (const auto &benchmark : rodiniaBenchmarks())
            cases.push_back({system, benchmark});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllSystemsAllBenchmarks, RodiniaTest,
    ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return info.param.system + "_" + info.param.benchmark;
    });

TEST(RodiniaShape, CronusOverheadIsSmallAndHixIsSlower)
{
    /* The Fig. 7 headline: CRONUS < ~7% over native; HIX clearly
     * slower due to per-control-message encrypted RPC. */
    RodiniaSize size;
    size.scale = 96;
    size.iterations = 4;

    double cronus_ratio_sum = 0, hix_ratio_sum = 0;
    int count = 0;
    for (const auto &benchmark : {"gaussian", "hotspot", "srad"}) {
        auto native = makeBackend("native");
        auto cronus = makeBackend("cronus");
        auto hix = makeBackend("hix");
        SimTime native_time =
            runRodinia(*native, benchmark, size).value()
                .computeTimeNs;
        SimTime cronus_time =
            runRodinia(*cronus, benchmark, size).value()
                .computeTimeNs;
        SimTime hix_time =
            runRodinia(*hix, benchmark, size).value().computeTimeNs;
        cronus_ratio_sum += double(cronus_time) / native_time;
        hix_ratio_sum += double(hix_time) / native_time;
        ++count;
    }
    double cronus_avg = cronus_ratio_sum / count;
    double hix_avg = hix_ratio_sum / count;
    EXPECT_LT(cronus_avg, 1.15);        /* low overhead */
    EXPECT_GT(hix_avg, cronus_avg);     /* HIX is slower */
}

/** Forwards to a real backend and tracks its live allocations. */
class CountingBackend : public baseline::ComputeBackend
{
  public:
    explicit CountingBackend(baseline::ComputeBackend &inner)
        : b(inner) {}

    std::set<uint64_t> live;

    std::string name() const override { return b.name(); }
    bool isProtected() const override { return b.isProtected(); }

    Result<uint64_t>
    gpuAlloc(uint64_t bytes) override
    {
        auto r = b.gpuAlloc(bytes);
        if (r.isOk())
            live.insert(r.value());
        return r;
    }

    Status
    gpuFree(uint64_t va) override
    {
        Status s = b.gpuFree(va);
        if (s.isOk())
            live.erase(va);
        return s;
    }

    Status
    copyToGpu(uint64_t va, const Bytes &data) override
    {
        return b.copyToGpu(va, data);
    }
    Result<Bytes>
    copyFromGpu(uint64_t va, uint64_t len) override
    {
        return b.copyFromGpu(va, len);
    }
    Status
    launchKernel(const std::string &kernel,
                 const std::vector<uint64_t> &args,
                 uint64_t work_items) override
    {
        return b.launchKernel(kernel, args, work_items);
    }
    Status gpuSynchronize() override { return b.gpuSynchronize(); }
    Result<uint32_t>
    npuAllocBuffer(uint64_t bytes) override
    {
        return b.npuAllocBuffer(bytes);
    }
    Status
    npuWriteBuffer(uint32_t buffer, uint64_t offset,
                   const Bytes &data) override
    {
        return b.npuWriteBuffer(buffer, offset, data);
    }
    Result<Bytes>
    npuReadBuffer(uint32_t buffer, uint64_t offset,
                  uint64_t len) override
    {
        return b.npuReadBuffer(buffer, offset, len);
    }
    Status
    npuRun(const accel::NpuProgram &program) override
    {
        return b.npuRun(program);
    }
    Status cpuWork(uint64_t units) override { return b.cpuWork(units); }
    SimTime now() const override { return b.now(); }
    Status injectGpuFault() override { return b.injectGpuFault(); }
    Result<SimTime> recoverGpu() override { return b.recoverGpu(); }
    bool othersAlive() override { return b.othersAlive(); }

  private:
    baseline::ComputeBackend &b;
};

TEST(RodiniaShape, EveryBenchmarkFreesItsAllocations)
{
    /* One long-lived backend runs every benchmark, as a server
     * would; each run must hand all its device memory back. */
    for (const auto &system : {"native", "cronus"}) {
        auto backend = makeBackend(system);
        CountingBackend counted(*backend);
        RodiniaSize size;
        size.scale = 64;
        size.iterations = 2;
        for (const auto &benchmark : rodiniaBenchmarks()) {
            auto result = runRodinia(counted, benchmark, size);
            ASSERT_TRUE(result.isOk()) << result.status().toString();
            EXPECT_TRUE(counted.live.empty())
                << benchmark << " on " << system << " leaves "
                << counted.live.size() << " allocations live";
        }
    }
}

TEST(RodiniaShape, UnknownBenchmarkRejected)
{
    auto backend = makeBackend("native");
    EXPECT_EQ(runRodinia(*backend, "nonsense", RodiniaSize{}).code(),
              ErrorCode::NotFound);
}

} // namespace
} // namespace cronus::workloads
