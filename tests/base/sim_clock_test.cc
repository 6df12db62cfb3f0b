/**
 * @file
 * SimClock unit tests: charging, monotonic jumps, reset, and the
 * always-on overflow abort. The abort is exercised with a death test
 * because it fires via abort(), not an exception -- it must hold in
 * NDEBUG builds too.
 */

#include <gtest/gtest.h>

#include "base/sim_clock.hh"

namespace cronus
{
namespace
{

TEST(SimClockTest, AdvanceAndNow)
{
    SimClock clock;
    EXPECT_EQ(clock.now(), 0u);
    clock.advance(100);
    clock.advance(50);
    EXPECT_EQ(clock.now(), 150u);
    clock.advanceTo(120);  // backwards jump is a no-op
    EXPECT_EQ(clock.now(), 150u);
    clock.advanceTo(400);
    EXPECT_EQ(clock.now(), 400u);
}

TEST(SimClockTest, ResetClearsTime)
{
    SimClock clock;
    clock.advance(100);
    clock.reset();
    EXPECT_EQ(clock.now(), 0u);
}

TEST(SimClockDeath, AdvanceOverflowAborts)
{
    SimClock clock;
    clock.advance(~0ull);
    EXPECT_DEATH(clock.advance(2), "overflow");
}

} // namespace
} // namespace cronus
