/**
 * @file
 * ResumableChannel tests (src/recover/): park on peer failure,
 * supervised reconnect with checkpoint restore + in-flight replay,
 * double faults in the middle of a recovery (killIncarnation), the
 * GaveUp path once the restart budget is gone, and dispatcher
 * re-placement of an unpinned callee after quarantine -- all under
 * the InvariantAuditor.
 */

#include "../core/test_fixtures.hh"
#include "inject/injector.hh"
#include "inject/invariant_auditor.hh"
#include "recover/resumable_channel.hh"

namespace cronus::recover
{
namespace
{

using core::AppHandle;
using core::CronusConfig;
using core::CronusSystem;
using core::CudaRuntime;

class ReconnectTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Logger::instance().setQuiet(true);
        core::testing::registerTestCpuFunctions();
        accel::registerBuiltinKernels();
        CronusConfig cfg;
        cfg.numGpus = 2;
        cfg.withNpu = false;
        sys = std::make_unique<CronusSystem>(cfg);
        auditor.attachSpm(sys->spm());
        auto cpu = sys->createEnclave(core::testing::cpuManifest(),
                                      "app.so",
                                      core::testing::cpuImageBytes());
        ASSERT_TRUE(cpu.isOk());
        driver = cpu.value();
    }

    CalleeSpec
    gpuSpec(const std::string &device)
    {
        CalleeSpec spec;
        spec.manifestJson = core::testing::gpuManifest();
        spec.imageName = "test.cubin";
        spec.image = core::testing::gpuImageBytes();
        spec.deviceName = device;
        return spec;
    }

    std::unique_ptr<ResumableChannel>
    openChannel(Supervisor &sup, const std::string &device)
    {
        auto ch = std::make_unique<ResumableChannel>(
            *sys, sup, driver, gpuSpec(device));
        ch->setOnConnect([this](core::SrpcChannel &c) {
            auditor.attachChannel(c);
        });
        EXPECT_TRUE(ch->open().isOk());
        return ch;
    }

    Result<uint64_t>
    alloc(ResumableChannel &ch, uint64_t bytes)
    {
        auto r = ch.call("cuMemAlloc",
                         CudaRuntime::encodeMemAlloc(bytes));
        if (!r.isOk())
            return r.status();
        return CudaRuntime::decodeU64Result(r.value());
    }

    Status
    fill(ResumableChannel &ch, uint64_t va, uint64_t n, float value)
    {
        uint32_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        auto r = ch.call("cuLaunchKernel",
                         CudaRuntime::encodeLaunchKernel(
                             "fill_f32", {va, n, bits}, n));
        return r.status();
    }

    Result<std::vector<float>>
    readback(ResumableChannel &ch, uint64_t va, uint64_t n)
    {
        auto r = ch.call("cuMemcpyDtoH",
                         CudaRuntime::encodeMemcpyDtoH(va, n * 4));
        if (!r.isOk())
            return r.status();
        std::vector<float> out(n);
        std::memcpy(out.data(), r.value().data(), n * 4);
        return out;
    }

    tee::PartitionId
    pidOf(const std::string &device)
    {
        auto mos = sys->mosForDevice(device);
        EXPECT_TRUE(mos.isOk());
        return mos.value()->partitionId();
    }

    std::unique_ptr<CronusSystem> sys;
    inject::InvariantAuditor auditor;
    AppHandle driver;
};

TEST_F(ReconnectTest, ReconnectRestoresCheckpointAndReplaysJournal)
{
    Supervisor sup(*sys);
    auto ch = openChannel(sup, "gpu0");
    constexpr uint64_t kN = 32;

    auto va1 = alloc(*ch, kN * 4);
    ASSERT_TRUE(va1.isOk());
    auto va2 = alloc(*ch, kN * 4);
    ASSERT_TRUE(va2.isOk());
    ASSERT_TRUE(fill(*ch, va1.value(), kN, 1.0f).isOk());
    /* Seal buffers + the 1.0 fill into the checkpoint ... */
    ASSERT_TRUE(ch->checkpoint().isOk());
    /* ... and leave a second fill journaled but un-checkpointed. */
    ASSERT_TRUE(fill(*ch, va2.value(), kN, 2.0f).isOk());

    ASSERT_TRUE(sys->injectPanic("gpu0").isOk());
    auto parked = ch->call("cuCtxSynchronize", Bytes{});
    EXPECT_EQ(parked.code(), ErrorCode::PeerFailed);
    EXPECT_EQ(ch->state(), ChannelState::Parked);

    ASSERT_TRUE(ch->awaitResume().isOk());
    EXPECT_EQ(ch->state(), ChannelState::Live);
    EXPECT_EQ(ch->reconnects(), 1u);
    /* The 2.0 fill and the failed sync were replayed; the 1.0 fill
     * came back through the checkpoint, not the journal. */
    EXPECT_GE(ch->replayedCalls(), 2u);

    auto survived = readback(*ch, va1.value(), kN);
    ASSERT_TRUE(survived.isOk());
    for (float f : survived.value())
        EXPECT_EQ(f, 1.0f);
    auto replayed = readback(*ch, va2.value(), kN);
    ASSERT_TRUE(replayed.isOk());
    for (float f : replayed.value())
        EXPECT_EQ(f, 2.0f);

    ch.reset();
    EXPECT_TRUE(auditor.finalCheck().isOk());
    EXPECT_TRUE(auditor.violations().empty());
}

TEST_F(ReconnectTest, FailedReplayedCallDoesNotBlockLaterReplay)
{
    Supervisor sup(*sys);
    auto ch = openChannel(sup, "gpu0");
    constexpr uint64_t kN = 16;
    auto va = alloc(*ch, kN * 4);
    ASSERT_TRUE(va.isOk());
    ASSERT_TRUE(ch->checkpoint().isOk());

    /* A read of an unmapped address dies with the callee, so it
     * stays journaled ... */
    ASSERT_TRUE(sys->injectPanic("gpu0").isOk());
    auto bad = ch->call("cuMemcpyDtoH",
                        CudaRuntime::encodeMemcpyDtoH(0xdead0000, 4));
    EXPECT_EQ(bad.code(), ErrorCode::PeerFailed);
    /* ... and on replay it completes with an application error:
     * the journal drops it, as call() would have, and the resume
     * still succeeds. */
    ASSERT_TRUE(ch->awaitResume().isOk());
    EXPECT_EQ(ch->state(), ChannelState::Live);
    EXPECT_EQ(ch->replayedCalls(), 0u);

    ASSERT_TRUE(fill(*ch, va.value(), kN, 3.0f).isOk());
    ASSERT_TRUE(ch->drain().isOk());

    /* The second recovery replays the fill (and the sync that
     * parked the channel) instead of stopping at the dropped read. */
    ASSERT_TRUE(sys->injectPanic("gpu0").isOk());
    auto parked = ch->call("cuCtxSynchronize", Bytes{});
    EXPECT_EQ(parked.code(), ErrorCode::PeerFailed);
    ASSERT_TRUE(ch->awaitResume().isOk());
    EXPECT_EQ(ch->reconnects(), 2u);
    EXPECT_EQ(ch->replayedCalls(), 2u);

    auto values = readback(*ch, va.value(), kN);
    ASSERT_TRUE(values.isOk());
    for (float f : values.value())
        EXPECT_EQ(f, 3.0f);

    ch.reset();
    EXPECT_TRUE(auditor.finalCheck().isOk());
    EXPECT_TRUE(auditor.violations().empty());
}

TEST_F(ReconnectTest, DoubleFaultMidRecoveryEventuallyResumes)
{
    Supervisor sup(*sys);
    auto ch = openChannel(sup, "gpu0");
    constexpr uint64_t kN = 16;
    auto va = alloc(*ch, kN * 4);
    ASSERT_TRUE(va.isOk());
    ASSERT_TRUE(ch->checkpoint().isOk());

    /* Kill incarnation 1 now, and incarnation 2 as soon as it comes
     * up: the second fault lands inside the recovery window
     * (typically on reconnect traffic). Incarnation 3 survives. */
    SimTime now = sys->platform().clock().now();
    tee::PartitionId victim = pidOf("gpu0");
    inject::FaultPlan plan(7);
    plan.killIncarnation(1, now, victim);
    plan.killIncarnation(2, now, victim);
    inject::FaultInjector injector(sys->spm(), plan);
    injector.arm();

    auto parked = ch->call("cuCtxSynchronize", Bytes{});
    EXPECT_EQ(parked.code(), ErrorCode::PeerFailed);
    ASSERT_TRUE(ch->awaitResume().isOk());
    EXPECT_EQ(ch->state(), ChannelState::Live);
    EXPECT_EQ(sup.restartsOf("gpu0"), 2u);
    EXPECT_TRUE(injector.allFired());

    ASSERT_TRUE(fill(*ch, va.value(), kN, 3.0f).isOk());
    auto values = readback(*ch, va.value(), kN);
    ASSERT_TRUE(values.isOk());
    for (float f : values.value())
        EXPECT_EQ(f, 3.0f);

    ch.reset();
    injector.disarm();
    EXPECT_TRUE(auditor.finalCheck().isOk());
    EXPECT_TRUE(auditor.violations().empty());
}

TEST_F(ReconnectTest, PinnedChannelGivesUpAfterBudget)
{
    SupervisorConfig cfg;
    cfg.restartBudget = 1;
    Supervisor sup(*sys, cfg);
    auto ch = openChannel(sup, "gpu0");
    ASSERT_TRUE(ch->checkpoint().isOk());

    SimTime now = sys->platform().clock().now();
    tee::PartitionId victim = pidOf("gpu0");
    inject::FaultPlan plan(11);
    for (uint64_t k = 1; k <= cfg.restartBudget + 1; ++k)
        plan.killIncarnation(k, now, victim);
    inject::FaultInjector injector(sys->spm(), plan);
    injector.arm();

    auto parked = ch->call("cuCtxSynchronize", Bytes{});
    EXPECT_EQ(parked.code(), ErrorCode::PeerFailed);
    EXPECT_EQ(ch->awaitResume().code(), ErrorCode::Degraded);
    EXPECT_EQ(ch->state(), ChannelState::GaveUp);
    EXPECT_TRUE(sup.quarantined("gpu0"));
    EXPECT_TRUE(sys->dispatcher().isDegraded("gpu0"));

    /* GaveUp is sticky: every further call reports Degraded. */
    EXPECT_EQ(ch->call("cuCtxSynchronize", Bytes{}).code(),
              ErrorCode::Degraded);
    injector.disarm();
}

TEST_F(ReconnectTest, UnpinnedChannelRePlacedAfterQuarantine)
{
    SupervisorConfig cfg;
    cfg.restartBudget = 0;  /* first failure quarantines */
    Supervisor sup(*sys, cfg);
    auto ch = openChannel(sup, "");
    const std::string first_device = ch->device();
    constexpr uint64_t kN = 16;
    auto va = alloc(*ch, kN * 4);
    ASSERT_TRUE(va.isOk());
    ASSERT_TRUE(fill(*ch, va.value(), kN, 5.0f).isOk());
    ASSERT_TRUE(ch->checkpoint().isOk());

    ASSERT_TRUE(sys->injectPanic(first_device).isOk());
    auto parked = ch->call("cuCtxSynchronize", Bytes{});
    EXPECT_EQ(parked.code(), ErrorCode::PeerFailed);

    /* The device quarantines immediately; the dispatcher re-places
     * the callee on the healthy twin and the checkpoint follows. */
    ASSERT_TRUE(ch->awaitResume().isOk());
    EXPECT_EQ(ch->state(), ChannelState::Live);
    EXPECT_NE(ch->device(), first_device);

    auto values = readback(*ch, va.value(), kN);
    ASSERT_TRUE(values.isOk());
    for (float f : values.value())
        EXPECT_EQ(f, 5.0f);
}

} // namespace
} // namespace cronus::recover
