/**
 * @file
 * Supervisor unit tests (src/recover/): staged recovery under a
 * restart budget, deterministic backoff schedule, quarantine of
 * crash-looping partitions with dispatcher re-placement, and
 * heartbeat-based hang detection (the machine's only hang detector).
 */

#include <limits>

#include "../core/test_fixtures.hh"
#include "recover/supervisor.hh"

namespace cronus::recover
{
namespace
{

using core::AppHandle;
using core::CronusConfig;
using core::CronusSystem;

std::unique_ptr<CronusSystem>
makeTwoGpuSystem()
{
    Logger::instance().setQuiet(true);
    core::testing::registerTestCpuFunctions();
    accel::registerBuiltinKernels();
    CronusConfig cfg;
    cfg.numGpus = 2;
    cfg.withNpu = false;
    return std::make_unique<CronusSystem>(cfg);
}

TEST(SupervisorTest, BackoffScheduleIsExponentialAndDeterministic)
{
    auto sys_a = makeTwoGpuSystem();
    auto sys_b = makeTwoGpuSystem();
    SupervisorConfig cfg;
    cfg.backoffBaseNs = 10 * kNsPerMs;
    cfg.backoffFactor = 3;
    Supervisor sup_a(*sys_a, cfg);
    Supervisor sup_b(*sys_b, cfg);

    EXPECT_EQ(sup_a.backoffDelay(1), 10 * kNsPerMs);
    EXPECT_EQ(sup_a.backoffDelay(2), 30 * kNsPerMs);
    EXPECT_EQ(sup_a.backoffDelay(3), 90 * kNsPerMs);
    for (uint32_t n = 1; n <= 5; ++n)
        EXPECT_EQ(sup_a.backoffDelay(n), sup_b.backoffDelay(n));
}

TEST(SupervisorTest, BackoffClampsAtCeilingWithoutOverflow)
{
    auto sys = makeTwoGpuSystem();
    SupervisorConfig cfg;
    cfg.backoffBaseNs = 20 * kNsPerMs;
    cfg.backoffFactor = 2;
    Supervisor sup(*sys, cfg);

    /* Within the default restart budget the schedule is untouched. */
    EXPECT_EQ(sup.backoffDelay(1), 20 * kNsPerMs);
    EXPECT_EQ(sup.backoffDelay(2), 40 * kNsPerMs);
    EXPECT_EQ(sup.backoffDelay(3), 80 * kNsPerMs);

    /* 20ms * 2^9 = 10.24s crosses the 10s ceiling at restart 10;
     * from there on the delay pins to the ceiling exactly. */
    EXPECT_EQ(sup.backoffDelay(9), 20 * kNsPerMs << 8);
    EXPECT_EQ(sup.backoffDelay(10), Supervisor::kBackoffMaxNs);
    EXPECT_EQ(sup.backoffDelay(11), Supervisor::kBackoffMaxNs);

    /* Unclamped, restart 100 would need 20ms * 2^99 -- far past
     * SimTime's 64-bit range. The clamp must short-circuit before
     * the multiply wraps instead of returning a wrapped value. */
    EXPECT_EQ(sup.backoffDelay(64), Supervisor::kBackoffMaxNs);
    EXPECT_EQ(sup.backoffDelay(100), Supervisor::kBackoffMaxNs);
    EXPECT_EQ(sup.backoffDelay(std::numeric_limits<uint32_t>::max()),
              Supervisor::kBackoffMaxNs);
}

TEST(SupervisorTest, BackoffClampDegenerateConfigs)
{
    auto sys = makeTwoGpuSystem();

    /* A base above the ceiling clamps immediately. */
    SupervisorConfig high;
    high.backoffBaseNs = 30 * kNsPerSec;
    Supervisor sup_high(*sys, high);
    EXPECT_EQ(sup_high.backoffDelay(1), Supervisor::kBackoffMaxNs);
    EXPECT_EQ(sup_high.backoffDelay(50), Supervisor::kBackoffMaxNs);

    /* Factor < 2 means no growth: constant base, never past max,
     * and no division-by-zero inside the clamp arithmetic. */
    SupervisorConfig flat;
    flat.backoffBaseNs = 20 * kNsPerMs;
    flat.backoffFactor = 0;
    Supervisor sup_flat(*sys, flat);
    EXPECT_EQ(sup_flat.backoffDelay(1), 20 * kNsPerMs);
    EXPECT_EQ(sup_flat.backoffDelay(40), 20 * kNsPerMs);
}

TEST(SupervisorTest, StagedRecoveryBringsPartitionBack)
{
    auto sys = makeTwoGpuSystem();
    Supervisor sup(*sys);
    ASSERT_TRUE(sup.watch("gpu0").isOk());

    ASSERT_TRUE(sys->injectPanic("gpu0").isOk());
    EXPECT_EQ(sup.healthOf("gpu0"), DeviceHealth::Healthy);

    SimTime t0 = sys->platform().clock().now();
    ASSERT_TRUE(sup.awaitRecovery("gpu0").isOk());
    EXPECT_EQ(sup.healthOf("gpu0"), DeviceHealth::Healthy);
    EXPECT_EQ(sup.restartsOf("gpu0"), 1u);

    auto mos = sys->mosForDevice("gpu0");
    ASSERT_TRUE(mos.isOk());
    auto p = sys->spm().partition(mos.value()->partitionId());
    ASSERT_TRUE(p.isOk());
    EXPECT_EQ(p.value()->state, tee::PartitionState::Ready);
    EXPECT_EQ(p.value()->incarnation, 2u);

    /* Recovery charged backoff + scrub in virtual time, far below
     * the whole-machine reboot of the monolithic comparator. */
    SimTime elapsed = sys->platform().clock().now() - t0;
    EXPECT_GE(elapsed, sup.config().backoffBaseNs);
    EXPECT_LT(elapsed, sys->platform().costs().machineRebootNs);
}

TEST(SupervisorTest, BudgetExhaustionQuarantinesAndMarksDegraded)
{
    auto sys = makeTwoGpuSystem();
    SupervisorConfig cfg;
    cfg.restartBudget = 2;
    Supervisor sup(*sys, cfg);
    ASSERT_TRUE(sup.watch("gpu0").isOk());

    for (uint32_t i = 1; i <= cfg.restartBudget; ++i) {
        ASSERT_TRUE(sys->injectPanic("gpu0").isOk());
        ASSERT_TRUE(sup.awaitRecovery("gpu0").isOk());
        EXPECT_EQ(sup.restartsOf("gpu0"), i);
    }

    /* One failure past the budget: terminal quarantine. */
    ASSERT_TRUE(sys->injectPanic("gpu0").isOk());
    Status s = sup.awaitRecovery("gpu0");
    EXPECT_EQ(s.code(), ErrorCode::Degraded);
    EXPECT_TRUE(sup.quarantined("gpu0"));
    EXPECT_TRUE(sys->dispatcher().isDegraded("gpu0"));

    /* Quarantine is terminal: further waits fail the same way. */
    EXPECT_EQ(sup.awaitRecovery("gpu0").code(),
              ErrorCode::Degraded);
}

TEST(SupervisorTest, QuarantinedDeviceIsSkippedByPlacement)
{
    auto sys = makeTwoGpuSystem();
    SupervisorConfig cfg;
    cfg.restartBudget = 0;  /* first failure quarantines */
    Supervisor sup(*sys, cfg);
    ASSERT_TRUE(sup.watch("gpu0").isOk());

    ASSERT_TRUE(sys->injectPanic("gpu0").isOk());
    EXPECT_EQ(sup.awaitRecovery("gpu0").code(),
              ErrorCode::Degraded);

    /* Pinned placement on the quarantined device is refused ... */
    auto pinned = sys->createEnclave(core::testing::gpuManifest(),
                                     "test.cubin",
                                     core::testing::gpuImageBytes(),
                                     "gpu0");
    EXPECT_EQ(pinned.code(), ErrorCode::Degraded);

    /* ... and unpinned placement lands on the healthy twin. */
    auto placed = sys->createEnclave(core::testing::gpuManifest(),
                                     "test.cubin",
                                     core::testing::gpuImageBytes());
    ASSERT_TRUE(placed.isOk());
    EXPECT_EQ(placed.value().host->deviceName(), "gpu1");
}

TEST(SupervisorTest, BornHungPartitionCaughtWithinOnePoll)
{
    auto sys = makeTwoGpuSystem();
    Supervisor sup(*sys);
    ASSERT_TRUE(sup.watch("gpu0", /*hang_detect=*/true).isOk());

    /* gpu0's mOS never heartbeats after boot. Advancing past one
     * poll period must fail it and stage recovery. */
    SimClock &clock = sys->platform().clock();
    clock.advance(Supervisor::kPollPeriodNs + 1);
    sup.pump();
    EXPECT_EQ(sup.healthOf("gpu0"), DeviceHealth::BackingOff);

    ASSERT_TRUE(sup.awaitRecovery("gpu0").isOk());
    EXPECT_EQ(sup.restartsOf("gpu0"), 1u);
}

TEST(SupervisorTest, HeartbeatKeepsHealthyAndSilenceFailsInOnePoll)
{
    auto sys = makeTwoGpuSystem();
    Supervisor sup(*sys);
    ASSERT_TRUE(sup.watch("gpu0", /*hang_detect=*/true).isOk());
    ASSERT_TRUE(sup.watch("gpu1", /*hang_detect=*/true).isOk());
    tee::PartitionId gpu0 =
        sys->mosForDevice("gpu0").value()->partitionId();
    tee::PartitionId gpu1 =
        sys->mosForDevice("gpu1").value()->partitionId();

    /* pump() polls each watch at most once; advancing past one
     * period plus both polls' cost makes every pump a poll. */
    SimClock &clock = sys->platform().clock();
    SimTime round = Supervisor::kPollPeriodNs +
                    2 * sys->platform().costs().hangPollNs;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(sys->spm().heartbeat(gpu0).isOk());
        ASSERT_TRUE(sys->spm().heartbeat(gpu1).isOk());
        clock.advance(round);
        sup.pump();
        EXPECT_EQ(sup.healthOf("gpu0"), DeviceHealth::Healthy);
        EXPECT_EQ(sup.healthOf("gpu1"), DeviceHealth::Healthy);
    }

    /* gpu1 stops heartbeating: the very next poll fails it, while
     * gpu0, still ticking, stays Healthy. */
    ASSERT_TRUE(sys->spm().heartbeat(gpu0).isOk());
    clock.advance(round);
    sup.pump();
    EXPECT_EQ(sup.healthOf("gpu0"), DeviceHealth::Healthy);
    EXPECT_EQ(sup.healthOf("gpu1"), DeviceHealth::BackingOff);
    EXPECT_EQ(sys->spm().partition(gpu1).value()->state,
              tee::PartitionState::Failed);
    EXPECT_EQ(sys->spm().partition(gpu0).value()->state,
              tee::PartitionState::Ready);
    ASSERT_FALSE(sup.events().empty());
    EXPECT_EQ(sup.events().front().device, "gpu1");
    EXPECT_EQ(sup.events().front().what, "hang");
}

TEST(SupervisorTest, RecoveredIncarnationThatNeverTicksIsCaughtInOnePoll)
{
    auto sys = makeTwoGpuSystem();
    Supervisor sup(*sys);
    ASSERT_TRUE(sup.watch("gpu0", /*hang_detect=*/true).isOk());

    ASSERT_TRUE(sys->injectPanic("gpu0").isOk());
    ASSERT_TRUE(sup.awaitRecovery("gpu0").isOk());
    tee::PartitionId pid =
        sys->mosForDevice("gpu0").value()->partitionId();
    ASSERT_EQ(sys->spm().partition(pid).value()->incarnation, 2u);

    /* The new incarnation never heartbeats: one poll period after
     * the reboot it is failed again and recovery is staged. */
    sys->platform().clock().advance(Supervisor::kPollPeriodNs);
    sup.pump();
    EXPECT_EQ(sup.healthOf("gpu0"), DeviceHealth::BackingOff);
    EXPECT_EQ(sys->spm().partition(pid).value()->state,
              tee::PartitionState::Failed);
    const auto &events = sup.events();
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events[events.size() - 2].what, "hang");

    ASSERT_TRUE(sup.awaitRecovery("gpu0").isOk());
    EXPECT_EQ(sup.restartsOf("gpu0"), 2u);
}

TEST(SupervisorTest, EventLogIsByteIdenticalAcrossRuns)
{
    auto run = [] {
        auto sys = makeTwoGpuSystem();
        SupervisorConfig cfg;
        cfg.restartBudget = 1;
        Supervisor sup(*sys, cfg);
        EXPECT_TRUE(sup.watch("gpu0").isOk());
        EXPECT_TRUE(sys->injectPanic("gpu0").isOk());
        EXPECT_TRUE(sup.awaitRecovery("gpu0").isOk());
        EXPECT_TRUE(sys->injectPanic("gpu0").isOk());
        EXPECT_EQ(sup.awaitRecovery("gpu0").code(),
                  ErrorCode::Degraded);
        return sup.report().dump();
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace cronus::recover
