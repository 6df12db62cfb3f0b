/** FaultInjector actions against a live system. */

#include <gtest/gtest.h>

#include "../core/test_fixtures.hh"
#include "inject/injector.hh"

namespace cronus::inject
{
namespace
{

using core::testing::CronusBackendTest;

class InjectorTest : public CronusBackendTest
{
  protected:
    void
    SetUp() override
    {
        CronusBackendTest::SetUp();
        cpu = makeCpuEnclave().value();
        gpu = makeGpuEnclave().value();
        cpuPid = cpu.host->partitionId();
    }

    core::AppHandle cpu, gpu;
    tee::PartitionId cpuPid = 0;

    tee::PhysAddr
    cpuBase()
    {
        return system->spm()
            .partition(cpuPid)
            .value()
            ->memBase;
    }
};

TEST_P(InjectorTest, FailAccessAbortsExactlyOnce)
{
    FaultPlan plan(1);
    plan.failAccess(2, AccessFilter::readsBy(cpuPid));
    FaultInjector injector(system->spm(), plan);
    injector.arm();

    EXPECT_TRUE(system->spm().read(cpuPid, cpuBase(), 8).isOk());
    EXPECT_EQ(system->spm().read(cpuPid, cpuBase(), 8).code(),
              ErrorCode::AccessFault);
    /* One-shot: the event does not re-fire. */
    EXPECT_TRUE(system->spm().read(cpuPid, cpuBase(), 8).isOk());
    EXPECT_TRUE(injector.allFired());
    EXPECT_EQ(injector.fired()[0].seq, 2u);
}

TEST_P(InjectorTest, SkewClockChargesVirtualTime)
{
    FaultPlan plan(1);
    plan.skewClock(1, 123456);
    FaultInjector injector(system->spm(), plan);
    injector.arm();

    SimTime before = system->platform().clock().now();
    ASSERT_TRUE(system->spm().read(cpuPid, cpuBase(), 8).isOk());
    SimTime after = system->platform().clock().now();
    EXPECT_GE(after - before, SimTime(123456));

    ASSERT_EQ(injector.fired().size(), 1u);
    EXPECT_GE(injector.fired()[0].tAfter -
                  injector.fired()[0].tBefore,
              SimTime(123456));
}

TEST_P(InjectorTest, CorruptHeaderPokesTheNamedField)
{
    auto channel = std::move(system->connect(cpu, gpu).value());

    FaultPlan plan(1);
    plan.corruptHeader(1, "magic", 0xdeadbeef,
                       0, AccessFilter::readsBy(cpuPid));
    FaultInjector injector(system->spm(), plan);
    injector.attachChannel(*channel);
    injector.arm();
    /* Any caller read pulls the trigger; the poke lands before the
     * read proceeds. */
    uint64_t off =
        core::SharedRegion::headerFieldOffset("magic").value();
    auto observed =
        system->spm().read(cpuPid, channel->ringBase() + off, 8);
    injector.disarm();

    ASSERT_TRUE(observed.isOk());
    ByteReader r(observed.value());
    EXPECT_EQ(r.getU64().value(), 0xdeadbeefull);
    /* The channel noticed nothing yet; teardown stays orderly. */
    EXPECT_TRUE(channel->close().isOk());
}

TEST_P(InjectorTest, UnknownHeaderFieldIsReportedNotFatal)
{
    auto channel = std::move(system->connect(cpu, gpu).value());
    FaultPlan plan(1);
    plan.corruptHeader(1, "bogus", 1, 0,
                       AccessFilter::readsBy(cpuPid));
    FaultInjector injector(system->spm(), plan);
    injector.attachChannel(*channel);
    injector.arm();

    /* The access itself still succeeds; the failure to corrupt is
     * recorded in the log instead of crashing the run. */
    EXPECT_TRUE(system->spm().read(cpuPid, cpuBase(), 8).isOk());
    ASSERT_EQ(injector.fired().size(), 1u);
    EXPECT_NE(injector.fired()[0].description.find(
                  "unknown ring-header field"),
              std::string::npos);
    injector.disarm();
    EXPECT_TRUE(channel->close().isOk());
}

TEST_P(InjectorTest, ReportListsFiredAndPendingEvents)
{
    FaultPlan plan(1);
    plan.skewClock(1, 100).skewClock(1000000, 100);
    FaultInjector injector(system->spm(), plan);
    injector.arm();
    ASSERT_TRUE(system->spm().read(cpuPid, cpuBase(), 8).isOk());
    injector.disarm();

    auto parsed = parseJson(injector.report().dump());
    ASSERT_TRUE(parsed.isOk());
    const JsonValue &doc = parsed.value();
    EXPECT_EQ(doc["fired"].asArray().size(), 1u);
    EXPECT_EQ(doc["pending"].asInt(), 1);
    EXPECT_EQ(doc["plan"]["seed"].asInt(), 1);
    EXPECT_FALSE(injector.allFired());
}

TEST_P(InjectorTest, DisarmStopsInjection)
{
    FaultPlan plan(1);
    plan.failAccess(1, AccessFilter::readsBy(cpuPid));
    FaultInjector injector(system->spm(), plan);
    injector.arm();
    injector.disarm();
    EXPECT_TRUE(system->spm().read(cpuPid, cpuBase(), 8).isOk());
    EXPECT_TRUE(injector.fired().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, InjectorTest,
    ::testing::Values(tee::BackendSelect::Tz,
                      tee::BackendSelect::Pmp),
    core::testing::backendParamName);

} // namespace
} // namespace cronus::inject
