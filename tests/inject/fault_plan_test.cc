/** FaultPlan determinism and schedule serialization. */

#include <gtest/gtest.h>

#include "../core/test_fixtures.hh"
#include "inject/injector.hh"

namespace cronus::inject
{
namespace
{

TEST(AccessFilterTest, MatchesPidAndDirection)
{
    tee::SpmAccess read{1, 0, 8, false, 1};
    tee::SpmAccess write{2, 0, 8, true, 2};
    EXPECT_TRUE(AccessFilter::any().matches(read));
    EXPECT_TRUE(AccessFilter::any().matches(write));
    EXPECT_TRUE(AccessFilter::readsBy(1).matches(read));
    EXPECT_FALSE(AccessFilter::readsBy(2).matches(read));
    EXPECT_FALSE(AccessFilter::readsBy(2).matches(write));
    EXPECT_TRUE(AccessFilter::writesBy(2).matches(write));
    EXPECT_FALSE(AccessFilter::writesBy(2).matches(read));
}

TEST(FaultPlanTest, JsonCarriesTheFullSchedule)
{
    FaultPlan plan(11);
    plan.killOnAccess(5, 3)
        .failAccess(7, AccessFilter::writesBy(2))
        .corruptHeader(9, "rid", 1000, 0)
        .skewClock(11, 123456);

    auto parsed = parseJson(plan.toJson().dump());
    ASSERT_TRUE(parsed.isOk());
    const JsonValue &doc = parsed.value();
    EXPECT_EQ(doc["seed"].asInt(), 11);
    const JsonArray &events = doc["events"].asArray();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0]["action"]["kind"].asString(),
              "kill_partition");
    EXPECT_EQ(events[0]["trigger"]["nth"].asInt(), 5);
    EXPECT_EQ(events[1]["action"]["kind"].asString(), "fail_access");
    EXPECT_EQ(events[1]["trigger"]["pid"].asInt(), 2);
    EXPECT_EQ(events[2]["action"]["field"].asString(), "rid");
    EXPECT_EQ(events[3]["action"]["skew_ns"].asInt(), 123456);
}

/**
 * End-to-end determinism: two fresh systems running the same
 * workload under the same plan trap at exactly the same access
 * ordinal.
 */
uint64_t
trapSeqForNth(uint64_t nth)
{
    using namespace core::testing;
    Logger::instance().setQuiet(true);
    registerTestCpuFunctions();
    core::CronusSystem system;
    auto cpu = system
                   .createEnclave(cpuManifest(), "app.so",
                                  cpuImageBytes())
                   .value();
    auto gpu = system
                   .createEnclave(gpuManifest(), "test.cubin",
                                  gpuImageBytes())
                   .value();
    auto channel = std::move(system.connect(cpu, gpu).value());

    FaultPlan plan;
    plan.killOnAccess(nth, gpu.host->partitionId());
    FaultInjector injector(system.spm(), plan);
    injector.arm();
    for (int i = 0; i < 5000 && !injector.allFired(); ++i) {
        if (!channel->callSync("cuCtxSynchronize", Bytes{}).isOk())
            break;
    }
    injector.disarm();
    return injector.fired().empty() ? 0 : injector.fired()[0].seq;
}

TEST(FaultPlanTest, SameSeedSameTrapPoint)
{
    uint64_t first = trapSeqForNth(700);
    ASSERT_NE(first, 0u);
    EXPECT_EQ(first, trapSeqForNth(700));
    EXPECT_NE(first, trapSeqForNth(1300));
}

} // namespace
} // namespace cronus::inject
