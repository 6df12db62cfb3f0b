/** Tests for the streaming RPC protocol, including failover. */

#include "test_fixtures.hh"

namespace cronus::core
{
namespace
{

using testing::CronusTest;

class SrpcTest : public CronusTest
{
  protected:
    void
    SetUp() override
    {
        CronusTest::SetUp();
        cpu = makeCpuEnclave().value();
        gpu = makeGpuEnclave().value();
    }

    std::unique_ptr<SrpcChannel>
    makeChannel()
    {
        auto channel = system->connect(cpu, gpu);
        EXPECT_TRUE(channel.isOk()) << channel.status().toString();
        return std::move(channel.value());
    }

    uint64_t
    gpuAlloc(SrpcChannel &channel, uint64_t bytes)
    {
        auto r = channel.callSync("cuMemAlloc",
                                  CudaRuntime::encodeMemAlloc(bytes));
        EXPECT_TRUE(r.isOk()) << r.status().toString();
        return CudaRuntime::decodeU64Result(r.value()).value();
    }

    AppHandle cpu, gpu;
};

TEST_F(SrpcTest, ConnectPerformsDcheck)
{
    auto channel = makeChannel();
    EXPECT_FALSE(channel->failed());
    EXPECT_GT(channel->grantId(), 0u);
}

TEST_F(SrpcTest, ConnectRejectsWrongSecret)
{
    AppHandle forged = gpu;
    forged.secret = Bytes(32, 0x13);
    auto channel = system->connect(cpu, forged);
    /* dCheck tags differ between the two sides -> rejected. */
    EXPECT_FALSE(channel.isOk());
}

TEST_F(SrpcTest, SyncCallReturnsResult)
{
    auto channel = makeChannel();
    uint64_t va = gpuAlloc(*channel, 64);
    EXPECT_GT(va, 0u);
}

TEST_F(SrpcTest, AsyncCallsStreamWithoutWaiting)
{
    auto channel = makeChannel();
    uint64_t va = gpuAlloc(*channel, 4096);

    Bytes data(512, 7);
    /* cuMemcpyHtoD is async per the manifest: call() returns
     * immediately with no payload. */
    auto r = channel->call("cuMemcpyHtoD",
                           CudaRuntime::encodeMemcpyHtoD(va, data));
    ASSERT_TRUE(r.isOk());
    EXPECT_TRUE(r.value().empty());
    EXPECT_GE(channel->stats().asyncCalls, 1u);
    ASSERT_TRUE(channel->drain().isOk());
}

TEST_F(SrpcTest, StreamedCudaPipelineComputes)
{
    auto channel = makeChannel();
    uint64_t va_a = gpuAlloc(*channel, 16);
    uint64_t va_b = gpuAlloc(*channel, 16);
    uint64_t va_c = gpuAlloc(*channel, 16);

    std::vector<float> a = {1, 2, 3, 4}, b = {10, 20, 30, 40};
    Bytes a_bytes(reinterpret_cast<uint8_t *>(a.data()),
                  reinterpret_cast<uint8_t *>(a.data()) + 16);
    Bytes b_bytes(reinterpret_cast<uint8_t *>(b.data()),
                  reinterpret_cast<uint8_t *>(b.data()) + 16);

    /* Stream: two copies + launch (all async), then a sync DtoH. */
    ASSERT_TRUE(channel->call("cuMemcpyHtoD",
                              CudaRuntime::encodeMemcpyHtoD(
                                  va_a, a_bytes)).isOk());
    ASSERT_TRUE(channel->call("cuMemcpyHtoD",
                              CudaRuntime::encodeMemcpyHtoD(
                                  va_b, b_bytes)).isOk());
    ASSERT_TRUE(channel->call("cuLaunchKernel",
                              CudaRuntime::encodeLaunchKernel(
                                  "vec_add_f32",
                                  {va_a, va_b, va_c, 4}, 4)).isOk());
    auto out = channel->call("cuMemcpyDtoH",
                             CudaRuntime::encodeMemcpyDtoH(va_c, 16));
    ASSERT_TRUE(out.isOk()) << out.status().toString();
    const float *c =
        reinterpret_cast<const float *>(out.value().data());
    EXPECT_EQ(c[0], 11);
    EXPECT_EQ(c[1], 22);
    EXPECT_EQ(c[2], 33);
    EXPECT_EQ(c[3], 44);

    ASSERT_TRUE(channel->close().isOk());
    /* streamCheck held: everything issued was executed. */
    EXPECT_EQ(channel->stats().executed,
              channel->stats().asyncCalls +
                  channel->stats().syncCalls);
}

TEST_F(SrpcTest, RequestsExecuteInOrder)
{
    /* saxpy y += a*x is order-sensitive: y = (y + x) * ... ordering
     * is observable through accumulate semantics. We use repeated
     * saxpy with a=1: y[i] accumulates x. */
    auto channel = makeChannel();
    uint64_t va_x = gpuAlloc(*channel, 16);
    uint64_t va_y = gpuAlloc(*channel, 16);
    std::vector<float> x = {1, 1, 1, 1}, y0 = {0, 0, 0, 0};
    Bytes x_bytes(reinterpret_cast<uint8_t *>(x.data()),
                  reinterpret_cast<uint8_t *>(x.data()) + 16);
    Bytes y_bytes(reinterpret_cast<uint8_t *>(y0.data()),
                  reinterpret_cast<uint8_t *>(y0.data()) + 16);
    ASSERT_TRUE(channel->call("cuMemcpyHtoD",
                              CudaRuntime::encodeMemcpyHtoD(
                                  va_x, x_bytes)).isOk());
    ASSERT_TRUE(channel->call("cuMemcpyHtoD",
                              CudaRuntime::encodeMemcpyHtoD(
                                  va_y, y_bytes)).isOk());

    uint32_t one_bits;
    float one = 1.0f;
    std::memcpy(&one_bits, &one, 4);
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(channel->call("cuLaunchKernel",
                                  CudaRuntime::encodeLaunchKernel(
                                      "saxpy_f32",
                                      {one_bits, va_x, va_y, 4},
                                      4)).isOk());
    }
    auto out = channel->call("cuMemcpyDtoH",
                             CudaRuntime::encodeMemcpyDtoH(va_y, 16));
    ASSERT_TRUE(out.isOk());
    const float *result =
        reinterpret_cast<const float *>(out.value().data());
    EXPECT_EQ(result[0], 10.0f);
}

TEST_F(SrpcTest, NoWorldSwitchesInSteadyState)
{
    auto channel = makeChannel();
    uint64_t va = gpuAlloc(*channel, 4096);
    uint64_t switches_before = system->monitor().worldSwitchCount();

    Bytes data(256, 1);
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(channel->call("cuMemcpyHtoD",
                                  CudaRuntime::encodeMemcpyHtoD(
                                      va, data)).isOk());
    }
    ASSERT_TRUE(channel->drain().isOk());
    /* 50 streamed RPCs: zero additional world switches. */
    EXPECT_EQ(system->monitor().worldSwitchCount(), switches_before);
}

TEST_F(SrpcTest, ConnectCostsFiveWorldSwitches)
{
    /* Two round trips of local attestation over untrusted memory,
     * plus one switch asking the normal world for the executor. */
    uint64_t switches_before = system->monitor().worldSwitchCount();
    auto channel = makeChannel();
    EXPECT_EQ(channel->stats().setupWorldSwitches, 5u);
    EXPECT_EQ(system->monitor().worldSwitchCount() - switches_before,
              5u);
}

TEST_F(SrpcTest, RingWrapsAroundManyCalls)
{
    auto channel = makeChannel();
    uint64_t va = gpuAlloc(*channel, 4096);
    Bytes data(64, 9);
    /* Far more calls than ring slots (32). */
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(channel->call("cuMemcpyHtoD",
                                  CudaRuntime::encodeMemcpyHtoD(
                                      va, data)).isOk());
    }
    ASSERT_TRUE(channel->drain().isOk());
    EXPECT_EQ(channel->stats().executed, 201u);
}

TEST_F(SrpcTest, OversizedRequestRejected)
{
    auto channel = makeChannel();
    Bytes huge(1 << 20, 0);
    auto r = channel->callAsync("cuMemcpyHtoD",
                                CudaRuntime::encodeMemcpyHtoD(1,
                                                              huge));
    EXPECT_EQ(r.code(), ErrorCode::InvalidArgument);
}

TEST_F(SrpcTest, RemoteErrorSurfacesOnSyncCall)
{
    auto channel = makeChannel();
    /* Allocation bigger than VRAM fails remotely. */
    auto r = channel->callSync(
        "cuMemAlloc", CudaRuntime::encodeMemAlloc(1ull << 40));
    EXPECT_EQ(r.code(), ErrorCode::ResourceExhausted);
}

TEST_F(SrpcTest, CalleeFailureSurfacesAsPeerFailed)
{
    auto channel = makeChannel();
    uint64_t va = gpuAlloc(*channel, 4096);

    /* The GPU partition fails (mOS panic). */
    ASSERT_TRUE(system->injectPanic("gpu0").isOk());

    Bytes data(64, 1);
    auto r = channel->call("cuMemcpyDtoH",
                           CudaRuntime::encodeMemcpyDtoH(va, 16));
    EXPECT_EQ(r.code(), ErrorCode::PeerFailed);
    EXPECT_TRUE(channel->failed());
    /* Channel stays failed -- no TOCTOU window (A1). */
    EXPECT_EQ(channel->call("cuMemcpyHtoD",
                            CudaRuntime::encodeMemcpyHtoD(va, data))
                  .code(),
              ErrorCode::PeerFailed);
    /* The trap signal was delivered to the failover wiring. */
    ASSERT_FALSE(system->trapSignals().empty());
    EXPECT_EQ(system->trapSignals().back().grantId,
              channel->grantId());
}

TEST_F(SrpcTest, RecoveredPartitionCannotReadOldTraffic)
{
    auto channel = makeChannel();
    uint64_t va = gpuAlloc(*channel, 4096);
    Bytes secret_payload = toBytes("sensitive-weights");
    ASSERT_TRUE(channel->call("cuMemcpyHtoD",
                              CudaRuntime::encodeMemcpyHtoD(
                                  va, secret_payload)).isOk());
    ASSERT_TRUE(channel->drain().isOk());

    ASSERT_TRUE(system->injectPanic("gpu0").isOk());
    ASSERT_TRUE(system->recover("gpu0").isOk());

    /* A3 defense: the recovered partition's device memory was
     * scrubbed; the old VRAM contents and contexts are gone. */
    auto *gpu_dev = dynamic_cast<accel::GpuDevice *>(
        system->platform().findDevice("gpu0"));
    ASSERT_NE(gpu_dev, nullptr);
    EXPECT_EQ(gpu_dev->contextCount(), 0u);

    /* And the old channel remains unusable. */
    auto r = channel->call("cuMemcpyDtoH",
                           CudaRuntime::encodeMemcpyDtoH(va, 16));
    EXPECT_EQ(r.code(), ErrorCode::PeerFailed);
}

TEST_F(SrpcTest, CallerSurvivesAndCanRebuild)
{
    auto channel = makeChannel();
    (void)gpuAlloc(*channel, 4096);
    ASSERT_TRUE(system->injectPanic("gpu0").isOk());
    Bytes data(16, 2);
    EXPECT_EQ(channel->call("cuMemAlloc",
                            CudaRuntime::encodeMemAlloc(16)).code(),
              ErrorCode::PeerFailed);

    /* The CPU enclave itself is unaffected (fault isolation R3.1):
     * its own mECalls still work. */
    EXPECT_TRUE(system->ecall(cpu, "echo", data).isOk());

    /* After recovery a fresh enclave + channel works again. */
    ASSERT_TRUE(system->recover("gpu0").isOk());
    auto gpu2 = makeGpuEnclave();
    ASSERT_TRUE(gpu2.isOk()) << gpu2.status().toString();
    auto channel2 = system->connect(cpu, gpu2.value());
    ASSERT_TRUE(channel2.isOk()) << channel2.status().toString();
    EXPECT_GT(gpuAlloc(*channel2.value(), 64), 0u);
}

TEST_F(SrpcTest, CloseRunsStreamCheckAndRevokesGrant)
{
    auto channel = makeChannel();
    uint64_t gid = channel->grantId();
    (void)gpuAlloc(*channel, 64);
    ASSERT_TRUE(channel->close().isOk());
    auto grant = system->spm().grant(gid);
    ASSERT_TRUE(grant.isOk());
    EXPECT_FALSE(grant.value()->active);
    /* No further calls. */
    EXPECT_EQ(channel->call("cuMemAlloc",
                            CudaRuntime::encodeMemAlloc(16)).code(),
              ErrorCode::InvalidState);
}

/** Property sweep: random async/sync interleavings equal the
 *  monolithic result (the §IV-C equivalence guarantee). */
class SrpcInterleavingTest : public SrpcTest,
                             public ::testing::WithParamInterface<int>
{
};

TEST_P(SrpcInterleavingTest, MatchesDirectExecution)
{
    Rng rng(GetParam());
    auto channel = makeChannel();
    uint64_t va = gpuAlloc(*channel, 16);
    std::vector<float> x = {1, 2, 3, 4};
    Bytes x_bytes(reinterpret_cast<uint8_t *>(x.data()),
                  reinterpret_cast<uint8_t *>(x.data()) + 16);
    ASSERT_TRUE(channel->call("cuMemcpyHtoD",
                              CudaRuntime::encodeMemcpyHtoD(
                                  va, x_bytes)).isOk());

    /* Random stream of saxpy with random coefficients; track the
     * expected value locally. */
    std::vector<float> expected = x;
    for (int i = 0; i < 20; ++i) {
        float coeff = 1.0f + static_cast<float>(rng.nextBelow(3));
        uint32_t bits;
        std::memcpy(&bits, &coeff, 4);
        ASSERT_TRUE(channel->call("cuLaunchKernel",
                                  CudaRuntime::encodeLaunchKernel(
                                      "saxpy_f32",
                                      {bits, va, va, 4}, 4)).isOk());
        for (auto &v : expected)
            v += coeff * v;
        /* Occasionally interleave a sync point. */
        if (rng.nextBelow(4) == 0) {
            ASSERT_TRUE(channel->call("cuCtxSynchronize",
                                      Bytes{}).isOk());
        }
    }
    auto out = channel->call("cuMemcpyDtoH",
                             CudaRuntime::encodeMemcpyDtoH(va, 16));
    ASSERT_TRUE(out.isOk());
    const float *result =
        reinterpret_cast<const float *>(out.value().data());
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(result[i], expected[i]) << "lane " << i;
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, SrpcInterleavingTest,
                         ::testing::Range(1, 9));

} // namespace
} // namespace cronus::core
