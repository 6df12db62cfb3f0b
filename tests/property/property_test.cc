/** Property-based suites: randomized operation sequences against
 *  the system's invariants. */

#include "../core/test_fixtures.hh"

#include "base/json.hh"

namespace cronus::core
{
namespace
{

/* ------------------------------------------------------------------ */
/* JSON fuzz                                                           */
/* ------------------------------------------------------------------ */

class JsonFuzzTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(JsonFuzzTest, RandomBytesNeverCrashTheParser)
{
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        size_t len = rng.nextBelow(128);
        std::string doc;
        for (size_t j = 0; j < len; ++j)
            doc.push_back(static_cast<char>(rng.nextBelow(256)));
        auto r = parseJson(doc);  /* must not crash or throw */
        (void)r;
    }
}

namespace
{

JsonValue
randomJson(Rng &rng, int depth)
{
    switch (depth <= 0 ? rng.nextBelow(4) : rng.nextBelow(6)) {
      case 0: return JsonValue();
      case 1: return JsonValue(rng.nextBelow(2) == 0);
      case 2: return JsonValue(int64_t(rng.next() >> 16));
      case 3: {
        std::string s;
        size_t len = rng.nextBelow(12);
        for (size_t i = 0; i < len; ++i)
            s.push_back(
                static_cast<char>('a' + rng.nextBelow(26)));
        return JsonValue(s);
      }
      case 4: {
        JsonArray arr;
        size_t n = rng.nextBelow(4);
        for (size_t i = 0; i < n; ++i)
            arr.push_back(randomJson(rng, depth - 1));
        return JsonValue(std::move(arr));
      }
      default: {
        JsonObject obj;
        size_t n = rng.nextBelow(4);
        for (size_t i = 0; i < n; ++i)
            obj["k" + std::to_string(rng.nextBelow(100))] =
                randomJson(rng, depth - 1);
        return JsonValue(std::move(obj));
      }
    }
}

} // namespace

TEST_P(JsonFuzzTest, GeneratedDocumentsRoundTrip)
{
    Rng rng(GetParam() * 7919);
    for (int i = 0; i < 50; ++i) {
        JsonValue doc = randomJson(rng, 4);
        auto back = parseJson(doc.dump());
        ASSERT_TRUE(back.isOk()) << doc.dump();
        EXPECT_TRUE(doc == back.value()) << doc.dump();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzTest,
                         ::testing::Range<uint64_t>(1, 6));

/* ------------------------------------------------------------------ */
/* SPM randomized operation sequences                                  */
/* ------------------------------------------------------------------ */

class SpmPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SpmPropertyTest, RandomShareFailRecoverKeepsInvariants)
{
    Logger::instance().setQuiet(true);
    Rng rng(GetParam());

    hw::Platform platform;
    for (int i = 0; i < 3; ++i) {
        accel::GpuConfig gc;
        gc.name = "gpu" + std::to_string(i);
        gc.vramBytes = 4ull << 20;
        gc.rotSeed = toBytes("prop" + std::to_string(i));
        platform.registerDevice(
            std::make_unique<accel::GpuDevice>(gc), 40 + i);
    }
    tee::SecureMonitor monitor(platform);
    ASSERT_TRUE(monitor.bootAllSecure().isOk());
    tee::Spm spm(monitor);

    std::vector<tee::PartitionId> pids;
    for (int i = 0; i < 3; ++i) {
        tee::MosImage image{"m" + std::to_string(i), "gpu",
                            toBytes("c" + std::to_string(i))};
        pids.push_back(spm.createPartition(
            image, "gpu" + std::to_string(i), 2ull << 20).value());
    }

    std::vector<uint64_t> grants;
    for (int step = 0; step < 120; ++step) {
        uint64_t op = rng.nextBelow(10);
        tee::PartitionId a = pids[rng.nextBelow(pids.size())];
        tee::PartitionId b = pids[rng.nextBelow(pids.size())];
        auto pa = spm.partition(a);
        ASSERT_TRUE(pa.isOk());

        if (op < 4) {
            /* Share a random page a -> b. */
            hw::PhysAddr page =
                pa.value()->memBase +
                rng.nextBelow(pa.value()->memBytes /
                              hw::kPageSize) *
                    hw::kPageSize;
            auto g = spm.sharePages(a, b, page, 1);
            if (g.isOk())
                grants.push_back(g.value());
            /* Double-share of the same page must always fail. */
            if (g.isOk()) {
                EXPECT_FALSE(spm.sharePages(a, b, page, 1).isOk());
            }
        } else if (op < 6) {
            /* Random read through stage-2; must never crash, and a
             * PeerFailed result is only legal after a failure. */
            hw::PhysAddr addr =
                pa.value()->memBase +
                rng.nextBelow(pa.value()->memBytes - 8);
            auto r = spm.read(a, addr, 8);
            if (!r.isOk()) {
                EXPECT_TRUE(r.code() == ErrorCode::PeerFailed ||
                            r.code() == ErrorCode::AccessFault ||
                            r.code() == ErrorCode::InvalidState)
                    << r.status().toString();
            }
        } else if (op < 7) {
            /* Fail a random partition. */
            if (spm.partition(a).value()->state ==
                tee::PartitionState::Ready) {
                EXPECT_TRUE(spm.failPartition(a).isOk());
            }
        } else if (op < 9) {
            /* Recover if failed; its memory must come back zeroed
             * and a fresh incarnation. */
            auto p = spm.partition(a).value();
            if (p->state == tee::PartitionState::Failed) {
                uint64_t inc = p->incarnation;
                tee::MosImage image{"r", "gpu", toBytes("r")};
                ASSERT_TRUE(
                    spm.recoverPartition(a, image).isOk());
                auto fresh = spm.partition(a).value();
                EXPECT_EQ(fresh->incarnation, inc + 1);
                auto zero = spm.read(a, fresh->memBase, 64);
                ASSERT_TRUE(zero.isOk());
                EXPECT_EQ(zero.value(), Bytes(64, 0));
            }
        } else {
            /* Revoke a random grant (either party). */
            if (!grants.empty()) {
                uint64_t gid =
                    grants[rng.nextBelow(grants.size())];
                auto g = spm.grant(gid);
                if (g.isOk() && g.value()->active)
                    spm.revokeGrant(gid, g.value()->owner);
            }
        }
    }

    /* Global invariant: every active grant's pages are mapped in
     * the peer's stage-2 exactly when the grant is active. */
    for (uint64_t gid : grants) {
        auto g = spm.grant(gid);
        if (!g.isOk() || !g.value()->active)
            continue;
        auto peer = spm.partition(g.value()->peer);
        ASSERT_TRUE(peer.isOk());
        if (peer.value()->state != tee::PartitionState::Ready)
            continue;
        EXPECT_NE(peer.value()
                      ->stage2.translate(g.value()->base, 1, false)
                      .fault,
                  hw::FaultKind::Unmapped);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpmPropertyTest,
                         ::testing::Range<uint64_t>(10, 22));

/* ------------------------------------------------------------------ */
/* Crash-during-stream: no wrong results, ever                         */
/* ------------------------------------------------------------------ */

class CrashStreamTest : public testing::CronusTest,
                        public ::testing::WithParamInterface<int>
{
  protected:
    void SetUp() override { testing::CronusTest::SetUp(); }
};

TEST_P(CrashStreamTest, CrashMidStreamNeverYieldsWrongData)
{
    Rng rng(GetParam());
    auto cpu = makeCpuEnclave().value();
    auto gpu = makeGpuEnclave().value();
    auto channel = std::move(system->connect(cpu, gpu).value());

    auto va = channel->callSync("cuMemAlloc",
                                CudaRuntime::encodeMemAlloc(16));
    uint64_t buf = CudaRuntime::decodeU64Result(va.value()).value();
    std::vector<float> x = {1, 1, 1, 1};
    Bytes x_bytes(reinterpret_cast<uint8_t *>(x.data()),
                  reinterpret_cast<uint8_t *>(x.data()) + 16);
    ASSERT_TRUE(channel->call("cuMemcpyHtoD",
                              CudaRuntime::encodeMemcpyHtoD(
                                  buf, x_bytes)).isOk());

    /* Stream 20 saxpy(1.0) calls; crash after a random prefix. */
    uint32_t one_bits = 0x3f800000;
    int crash_after = 1 + int(rng.nextBelow(18));
    int completed = 0;
    bool failed = false;
    for (int i = 0; i < 20; ++i) {
        if (i == crash_after) {
            ASSERT_TRUE(system->injectPanic("gpu0").isOk());
        }
        auto r = channel->call(
            "cuLaunchKernel",
            CudaRuntime::encodeLaunchKernel(
                "saxpy_f32", {one_bits, buf, buf, 4}, 4));
        if (!r.isOk()) {
            EXPECT_EQ(r.code(), ErrorCode::PeerFailed);
            failed = true;
            break;
        }
        ++completed;
    }
    EXPECT_TRUE(failed);

    /* Either the read-back fails with PeerFailed (no stale data) --
     * it must never return a value inconsistent with the number of
     * completed calls. */
    auto out = channel->call("cuMemcpyDtoH",
                             CudaRuntime::encodeMemcpyDtoH(buf, 16));
    EXPECT_EQ(out.code(), ErrorCode::PeerFailed);

    /* Recovery restores service with a clean slate. */
    ASSERT_TRUE(system->recover("gpu0").isOk());
    auto gpu2 = makeGpuEnclave();
    ASSERT_TRUE(gpu2.isOk());
    auto channel2 = system->connect(cpu, gpu2.value());
    ASSERT_TRUE(channel2.isOk());
    EXPECT_TRUE(channel2.value()
                    ->callSync("cuMemAlloc",
                               CudaRuntime::encodeMemAlloc(16))
                    .isOk());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashStreamTest,
                         ::testing::Range(1, 9));

/* ------------------------------------------------------------------ */
/* sRPC configuration sweep                                            */
/* ------------------------------------------------------------------ */

struct SrpcShape
{
    uint64_t slots;
    uint64_t slotBytes;
};

class SrpcConfigTest : public testing::CronusTest,
                       public ::testing::WithParamInterface<SrpcShape>
{
};

TEST_P(SrpcConfigTest, PipelineCorrectUnderAnyRingShape)
{
    auto cpu = makeCpuEnclave().value();
    auto gpu = makeGpuEnclave().value();
    SrpcConfig config;
    config.slots = GetParam().slots;
    config.slotBytes = GetParam().slotBytes;
    auto channel = system->connect(cpu, gpu, config);
    ASSERT_TRUE(channel.isOk()) << channel.status().toString();

    auto va = channel.value()->callSync(
        "cuMemAlloc", CudaRuntime::encodeMemAlloc(16));
    uint64_t buf = CudaRuntime::decodeU64Result(va.value()).value();
    std::vector<float> x = {0, 0, 0, 0};
    Bytes x_bytes(reinterpret_cast<uint8_t *>(x.data()),
                  reinterpret_cast<uint8_t *>(x.data()) + 16);
    ASSERT_TRUE(channel.value()->call(
        "cuMemcpyHtoD",
        CudaRuntime::encodeMemcpyHtoD(buf, x_bytes)).isOk());

    /* 3x the ring depth of fill launches with increasing values;
     * last writer must win. */
    uint64_t n = 3 * config.slots;
    for (uint64_t i = 1; i <= n; ++i) {
        float v = float(i);
        uint32_t bits;
        std::memcpy(&bits, &v, 4);
        ASSERT_TRUE(channel.value()->call(
            "cuLaunchKernel",
            CudaRuntime::encodeLaunchKernel("fill_f32",
                                            {buf, 4, bits},
                                            4)).isOk());
    }
    auto out = channel.value()->call(
        "cuMemcpyDtoH", CudaRuntime::encodeMemcpyDtoH(buf, 16));
    ASSERT_TRUE(out.isOk());
    const float *result =
        reinterpret_cast<const float *>(out.value().data());
    EXPECT_FLOAT_EQ(result[0], float(n));
    ASSERT_TRUE(channel.value()->close().isOk());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SrpcConfigTest,
    ::testing::Values(SrpcShape{2, 1024}, SrpcShape{4, 4096},
                      SrpcShape{8, 65536}, SrpcShape{32, 2048},
                      SrpcShape{64, 1024}),
    [](const ::testing::TestParamInfo<SrpcShape> &info) {
        return "slots" + std::to_string(info.param.slots) + "x" +
               std::to_string(info.param.slotBytes);
    });

/* ------------------------------------------------------------------ */
/* Multi-tenant isolation                                              */
/* ------------------------------------------------------------------ */

TEST(MultiTenantTest, TwoAppsShareTheGpuWithoutLeaks)
{
    Logger::instance().setQuiet(true);
    testing::registerTestCpuFunctions();
    accel::registerBuiltinKernels();
    CronusSystem system;

    struct Tenant
    {
        AppHandle cpu, gpu;
        std::unique_ptr<SrpcChannel> channel;
        uint64_t va = 0;
    };
    Tenant tenants[2];
    for (int i = 0; i < 2; ++i) {
        tenants[i].cpu =
            system.createEnclave(testing::cpuManifest(), "app.so",
                                 testing::cpuImageBytes()).value();
        tenants[i].gpu =
            system.createEnclave(testing::gpuManifest(),
                                 "test.cubin",
                                 testing::gpuImageBytes()).value();
        tenants[i].channel = std::move(
            system.connect(tenants[i].cpu, tenants[i].gpu).value());
        auto va = tenants[i].channel->callSync(
            "cuMemAlloc", CudaRuntime::encodeMemAlloc(16));
        tenants[i].va =
            CudaRuntime::decodeU64Result(va.value()).value();
    }

    /* Each tenant fills its buffer with a distinct value. */
    for (int i = 0; i < 2; ++i) {
        float v = i == 0 ? 111.0f : 222.0f;
        uint32_t bits;
        std::memcpy(&bits, &v, 4);
        ASSERT_TRUE(tenants[i].channel->call(
            "cuLaunchKernel",
            CudaRuntime::encodeLaunchKernel(
                "fill_f32", {tenants[i].va, 4, bits}, 4)).isOk());
    }
    for (int i = 0; i < 2; ++i) {
        auto out = tenants[i].channel->call(
            "cuMemcpyDtoH",
            CudaRuntime::encodeMemcpyDtoH(tenants[i].va, 16));
        ASSERT_TRUE(out.isOk());
        const float *result =
            reinterpret_cast<const float *>(out.value().data());
        EXPECT_FLOAT_EQ(result[0], i == 0 ? 111.0f : 222.0f);
    }

    /* Tenant 0 dereferencing tenant 1's VA faults (same VA value in
     * a different context is unmapped). */
    auto steal = tenants[0].channel->call(
        "cuMemcpyDtoH",
        CudaRuntime::encodeMemcpyDtoH(tenants[1].va + 4096, 16));
    EXPECT_FALSE(steal.isOk());

    /* Distinct enclaves have distinct measurements; same mOS. */
    auto e0 = tenants[0].gpu.host->enclaveManager().enclave(
        tenants[0].gpu.eid).value();
    auto e1 = tenants[1].gpu.host->enclaveManager().enclave(
        tenants[1].gpu.eid).value();
    EXPECT_EQ(crypto::digestHex(e0->measure()),
              crypto::digestHex(e1->measure()));  /* same image */
    EXPECT_NE(tenants[0].gpu.eid, tenants[1].gpu.eid);
    EXPECT_NE(toHex(tenants[0].gpu.secret),
              toHex(tenants[1].gpu.secret));
}

} // namespace
} // namespace cronus::core
