/** Unit tests for statistics primitives. */

#include <gtest/gtest.h>

#include "base/stats.hh"

namespace cronus
{
namespace
{

TEST(StatsTest, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
}

TEST(StatsTest, ThroughputSeriesBuckets)
{
    ThroughputSeries series(100 * kNsPerMs);
    /* 5 events in bucket 0, 2 in bucket 3. */
    for (int i = 0; i < 5; ++i)
        series.record(i * 10 * kNsPerMs);
    series.record(320 * kNsPerMs);
    series.record(399 * kNsPerMs);

    auto rates = series.ratesPerSecond(400 * kNsPerMs);
    ASSERT_EQ(rates.size(), 5u);
    EXPECT_DOUBLE_EQ(rates[0], 50.0);  /* 5 per 100ms = 50/s */
    EXPECT_DOUBLE_EQ(rates[1], 0.0);
    EXPECT_DOUBLE_EQ(rates[3], 20.0);
}

TEST(StatsTest, StatGroupCreatesOnDemand)
{
    StatGroup group;
    group.counter("rpc").inc(3);
    EXPECT_EQ(group.value("rpc"), 3u);
    EXPECT_EQ(group.value("unknown"), 0u);
    EXPECT_EQ(&group.counter("rpc"), &group.counter("rpc"));
    EXPECT_EQ(group.toJson().dump(), "{\"rpc\":3}");
}

TEST(SimClockTest, AdvanceAndAdvanceTo)
{
    SimClock clock;
    EXPECT_EQ(clock.now(), 0u);
    clock.advance(100);
    EXPECT_EQ(clock.now(), 100u);
    clock.advanceTo(50);   /* must not go backwards */
    EXPECT_EQ(clock.now(), 100u);
    clock.advanceTo(500);
    EXPECT_EQ(clock.now(), 500u);
    clock.reset();
    EXPECT_EQ(clock.now(), 0u);
}

} // namespace
} // namespace cronus
