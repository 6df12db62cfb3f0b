/** Parameterized conformance tests across all four systems. */

#include <gtest/gtest.h>

#include <functional>

#include "baseline/cronus_backend.hh"
#include "baseline/direct.hh"
#include "baseline/hix_tz.hh"

namespace cronus::baseline
{
namespace
{

using Factory = std::function<std::unique_ptr<ComputeBackend>()>;

const std::vector<std::string> kKernels = {"fill_f32", "vec_add_f32",
                                           "matmul_f32"};

/** CronusBackend splits copies into ring-slot chunks of this size
 *  (default SrpcConfig, less the call's header room). */
const uint64_t kChunkBytes = core::SrpcConfig().requestBytes() - 64;
/** Two chunks plus an odd tail: the multi-chunk copy path. */
const uint64_t kMultiChunkBytes = 2 * kChunkBytes + 777;

Bytes
patternBytes(uint64_t size)
{
    Bytes out(size);
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<uint8_t>(i * 31);
    return out;
}

std::unique_ptr<ComputeBackend>
makeBackend(const std::string &which)
{
    Logger::instance().setQuiet(true);
    if (which == "native")
        return std::make_unique<DirectBackend>(DirectBackend::Kind::Linux,
                                               kKernels);
    if (which == "tz")
        return std::make_unique<DirectBackend>(
            DirectBackend::Kind::TrustZone, kKernels);
    if (which == "hix")
        return std::make_unique<HixTzBackend>(kKernels);
    CronusBackendConfig c;
    c.gpuKernels = kKernels;
    return std::make_unique<CronusBackend>(c);
}

class BackendConformanceTest
    : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override { backend = makeBackend(GetParam()); }

    std::unique_ptr<ComputeBackend> backend;
};

TEST_P(BackendConformanceTest, GpuRoundTripComputesVecAdd)
{
    auto &b = *backend;
    auto va_a = b.gpuAlloc(16);
    auto va_b = b.gpuAlloc(16);
    auto va_c = b.gpuAlloc(16);
    ASSERT_TRUE(va_a.isOk()) << va_a.status().toString();

    std::vector<float> a = {1, 2, 3, 4}, bb = {10, 20, 30, 40};
    Bytes a_bytes(reinterpret_cast<uint8_t *>(a.data()),
                  reinterpret_cast<uint8_t *>(a.data()) + 16);
    Bytes b_bytes(reinterpret_cast<uint8_t *>(bb.data()),
                  reinterpret_cast<uint8_t *>(bb.data()) + 16);
    ASSERT_TRUE(b.copyToGpu(va_a.value(), a_bytes).isOk());
    ASSERT_TRUE(b.copyToGpu(va_b.value(), b_bytes).isOk());
    ASSERT_TRUE(b.launchKernel("vec_add_f32",
                               {va_a.value(), va_b.value(),
                                va_c.value(), 4},
                               4).isOk());
    auto out = b.copyFromGpu(va_c.value(), 16);
    ASSERT_TRUE(out.isOk()) << out.status().toString();
    const float *c =
        reinterpret_cast<const float *>(out.value().data());
    EXPECT_EQ(c[0], 11);
    EXPECT_EQ(c[3], 44);
}

TEST_P(BackendConformanceTest, LargeCopyRoundTrips)
{
    auto &b = *backend;
    for (uint64_t size : {uint64_t(64 * 1024), kMultiChunkBytes}) {
        Bytes big = patternBytes(size);
        auto va = b.gpuAlloc(big.size());
        ASSERT_TRUE(va.isOk()) << size;
        ASSERT_TRUE(b.copyToGpu(va.value(), big).isOk()) << size;
        auto back = b.copyFromGpu(va.value(), big.size());
        ASSERT_TRUE(back.isOk()) << size;
        EXPECT_EQ(back.value(), big) << size;
    }
}

TEST_P(BackendConformanceTest, NpuCopyRoundTripsAcrossChunks)
{
    auto &b = *backend;
    /* At a nonzero buffer offset, so each chunk's offset adds to
     * the caller's. */
    const uint64_t offset = 13;
    auto buf = b.npuAllocBuffer(offset + kMultiChunkBytes);
    if (GetParam() == "hix") {
        /* HIX-TZ models a GPU only. */
        EXPECT_EQ(buf.status().code(), ErrorCode::Unsupported);
        return;
    }
    ASSERT_TRUE(buf.isOk()) << buf.status().toString();
    Bytes data = patternBytes(kMultiChunkBytes);
    ASSERT_TRUE(b.npuWriteBuffer(buf.value(), offset, data).isOk());
    ASSERT_TRUE(b.npuWriteBuffer(buf.value(), 0, Bytes{}).isOk());
    auto back = b.npuReadBuffer(buf.value(), offset, data.size());
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back.value(), data);
    auto head = b.npuReadBuffer(buf.value(), 0, offset);
    ASSERT_TRUE(head.isOk());
    EXPECT_EQ(head.value(), Bytes(offset, 0));
}

TEST_P(BackendConformanceTest, TimeAdvancesMonotonically)
{
    auto &b = *backend;
    SimTime t0 = b.now();
    auto va = b.gpuAlloc(4096);
    ASSERT_TRUE(va.isOk());
    ASSERT_TRUE(b.copyToGpu(va.value(), Bytes(4096, 1)).isOk());
    ASSERT_TRUE(b.gpuSynchronize().isOk());
    EXPECT_GT(b.now(), t0);
}

TEST_P(BackendConformanceTest, EmptyGpuCopiesAreChargedNoOps)
{
    /* An empty copy either way is one charged command that moves
     * nothing, never an error. */
    auto &b = *backend;
    auto va = b.gpuAlloc(4096);
    ASSERT_TRUE(va.isOk());
    SimTime t0 = b.now();
    Status put = b.copyToGpu(va.value(), Bytes{});
    EXPECT_TRUE(put.isOk()) << put.toString();
    EXPECT_GT(b.now(), t0);

    SimTime t1 = b.now();
    auto got = b.copyFromGpu(va.value(), 0);
    ASSERT_TRUE(got.isOk()) << got.status().toString();
    EXPECT_TRUE(got.value().empty());
    EXPECT_GT(b.now(), t1);
}

TEST_P(BackendConformanceTest, FailedGpuCopyReachesTheCaller)
{
    /* A copy to an unmapped VA fails at once, or, where the copy is
     * asynchronous (cronus's cuMemcpyHtoD), at the next synchronize:
     * reported exactly once either way. */
    auto &b = *backend;
    ASSERT_TRUE(b.gpuAlloc(4096).isOk());
    Status put = b.copyToGpu(0xdead0000, Bytes(16, 1));
    Status sync = b.gpuSynchronize();
    EXPECT_NE(put.isOk(), sync.isOk())
        << "copy: " << put.toString() << ", sync: " << sync.toString();
    const Status &failure = put.isOk() ? sync : put;
    EXPECT_EQ(failure.code(), ErrorCode::AccessFault)
        << failure.toString();
    Status again = b.gpuSynchronize();
    EXPECT_TRUE(again.isOk()) << again.toString();
}

TEST_P(BackendConformanceTest, FaultAndRecoverRestoresService)
{
    auto &b = *backend;
    ASSERT_TRUE(b.gpuAlloc(4096).isOk());
    ASSERT_TRUE(b.injectGpuFault().isOk());
    EXPECT_FALSE(b.gpuAlloc(4096).isOk());
    auto cost = b.recoverGpu();
    ASSERT_TRUE(cost.isOk()) << cost.status().toString();
    EXPECT_GT(cost.value(), 0u);
    EXPECT_TRUE(b.gpuAlloc(4096).isOk());
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, BackendConformanceTest,
    ::testing::Values("native", "tz", "hix", "cronus"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(CronusBackendCopy, EmptyCopiesKeepTheirCallCount)
{
    /* An empty GPU copy is still one (charged) cuMemcpyHtoD call; an
     * empty NPU write sends no call at all. */
    auto b = makeBackend("cronus");
    auto va = b->gpuAlloc(4096);
    ASSERT_TRUE(va.isOk());
    SimTime t0 = b->now();
    ASSERT_TRUE(b->copyToGpu(va.value(), Bytes{}).isOk());
    EXPECT_GT(b->now(), t0);

    auto buf = b->npuAllocBuffer(64);
    ASSERT_TRUE(buf.isOk());
    SimTime t1 = b->now();
    ASSERT_TRUE(b->npuWriteBuffer(buf.value(), 0, Bytes{}).isOk());
    EXPECT_EQ(b->now(), t1);
}

TEST(BaselineContrast, CronusRecoveryIsOrdersOfMagnitudeFaster)
{
    auto cronus = makeBackend("cronus");
    auto tz = makeBackend("tz");
    ASSERT_TRUE(cronus->gpuAlloc(4096).isOk());
    ASSERT_TRUE(tz->gpuAlloc(4096).isOk());
    ASSERT_TRUE(cronus->injectGpuFault().isOk());
    ASSERT_TRUE(tz->injectGpuFault().isOk());
    SimTime cronus_cost = cronus->recoverGpu().value();
    SimTime tz_cost = tz->recoverGpu().value();
    /* Hundreds of ms vs ~2 minutes. */
    EXPECT_LT(cronus_cost * 50, tz_cost);
}

TEST(BaselineContrast, OnlyCronusKeepsOthersAliveThroughGpuFault)
{
    auto cronus = makeBackend("cronus");
    auto tz = makeBackend("tz");
    auto native = makeBackend("native");
    for (auto *b : {cronus.get(), tz.get(), native.get()})
        ASSERT_TRUE(b->injectGpuFault().isOk());
    EXPECT_TRUE(cronus->othersAlive());   /* R3.1 holds */
    EXPECT_FALSE(tz->othersAlive());      /* monolithic dies whole */
    EXPECT_FALSE(native->othersAlive());
}

TEST(BaselineContrast, DirectRebootScrubsGpuMemory)
{
    for (const char *which : {"native", "tz"}) {
        auto b = makeBackend(which);
        Bytes secret(4096, 0x5a);
        auto va = b->gpuAlloc(secret.size());
        ASSERT_TRUE(va.isOk());
        ASSERT_TRUE(b->copyToGpu(va.value(), secret).isOk());

        ASSERT_TRUE(b->injectGpuFault().isOk());
        ASSERT_TRUE(b->recoverGpu().isOk());

        /* The reboot cleared VRAM: the next tenant's allocation
         * (same physical pages) reads zero. */
        auto fresh = b->gpuAlloc(secret.size());
        ASSERT_TRUE(fresh.isOk()) << which;
        auto out = b->copyFromGpu(fresh.value(), secret.size());
        ASSERT_TRUE(out.isOk()) << which;
        EXPECT_EQ(out.value(), Bytes(secret.size(), 0)) << which;
    }
}

TEST(BaselineContrast, HixTrafficIsVisibleButEncrypted)
{
    HixTzBackend hix(kKernels);
    Bytes plaintext = toBytes(
        "super-secret-model-weights-0123456789abcdef");
    auto va = hix.gpuAlloc(plaintext.size());
    ASSERT_TRUE(va.isOk());
    ASSERT_TRUE(hix.copyToGpu(va.value(), plaintext).isOk());

    /* The untrusted OS observed traffic (timing side channel HIX
     * cannot hide)... */
    ASSERT_FALSE(hix.observedMessages().empty());
    /* ...but the bytes are ciphertext. */
    for (const auto &msg : hix.observedMessages()) {
        std::string view(msg.ciphertext.begin(),
                         msg.ciphertext.end());
        EXPECT_EQ(view.find("super-secret"), std::string::npos);
    }
}

TEST(BaselineContrast, MonolithicTrustsAllDrivers)
{
    DirectBackend tz(DirectBackend::Kind::TrustZone, kKernels);
    Bytes secret = toBytes("tenant-a-data!!!");
    auto va = tz.gpuAlloc(secret.size());
    ASSERT_TRUE(va.isOk());
    ASSERT_TRUE(tz.copyToGpu(va.value(), secret).isOk());
    /* The "NPU driver" reads tenant GPU data: monolithic design
     * violates R3.2. CRONUS structurally prevents this (foreign
     * partitions cannot map GPU state; see SpmTest). */
    auto stolen = tz.maliciousDriverReadsGpu(va.value(),
                                             secret.size());
    ASSERT_TRUE(stolen.isOk());
    EXPECT_EQ(stolen.value(), secret);
}

TEST(BaselineContrast, CronusStreamsWithFewerRoundTrips)
{
    auto cronus_b = makeBackend("cronus");
    HixTzBackend hix(kKernels);

    auto run = [](ComputeBackend &b) {
        /* Warm up (builds channels, boots mOSes), then measure the
         * steady-state streaming cost only. */
        auto va = b.gpuAlloc(4096).value();
        SimTime start = b.now();
        Bytes data(512, 3);
        for (int i = 0; i < 32; ++i) {
            EXPECT_TRUE(b.copyToGpu(va, data).isOk());
            EXPECT_TRUE(b.launchKernel("fill_f32", {va, 128, 0},
                                       128).isOk());
        }
        EXPECT_TRUE(b.gpuSynchronize().isOk());
        return b.now() - start;
    };
    SimTime cronus_time = run(*cronus_b);
    SimTime hix_time = run(hix);
    /* Control-plane-heavy streams: CRONUS is clearly faster. */
    EXPECT_LT(cronus_time, hix_time);
}

} // namespace
} // namespace cronus::baseline
