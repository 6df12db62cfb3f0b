/** Security test suite: every in-scope attack must be blocked. */

#include <gtest/gtest.h>

#include "attacks/attacks.hh"

namespace cronus::attacks
{
namespace
{

/** An attack entry point with its name. gtest prints the parameter
 * into every test's listed name, so it must print the name rather
 * than the function's (ASLR-randomized) address. */
struct Scenario
{
    const char *name;
    AttackOutcome (*run)();
};

void
PrintTo(const Scenario &scenario, std::ostream *os)
{
    *os << scenario.name;
}

#define SCENARIO(fn) Scenario{#fn, &fn}

class AttackTest : public ::testing::TestWithParam<Scenario>
{
};

TEST_P(AttackTest, IsBlocked)
{
    AttackOutcome result = GetParam().run();
    EXPECT_TRUE(result.blocked)
        << result.name << ": " << result.detail;
}

INSTANTIATE_TEST_SUITE_P(
    InScopeAttacks, AttackTest,
    ::testing::Values(
        SCENARIO(attackNormalWorldReadsSmem),
        SCENARIO(attackNormalWorldTampersSmem),
        SCENARIO(attackReplayEcall), SCENARIO(attackTamperEcallArgs),
        SCENARIO(attackMisdispatch), SCENARIO(attackDropRpcByStall),
        SCENARIO(attackFabricatedAccelerator),
        SCENARIO(attackMaliciousDeviceTree),
        SCENARIO(attackMosSubstitution), SCENARIO(attackCrashLeak),
        SCENARIO(attackDeadLockOnFailure),
        SCENARIO(attackUndeclaredCall),
        SCENARIO(attackCrossContextGpuRead)),
    [](const ::testing::TestParamInfo<Scenario> &info) {
        return "attack_" + std::to_string(info.index);
    });

TEST(AttackSuite, AllThirteenScenariosBlocked)
{
    auto results = runAllAttacks();
    EXPECT_EQ(results.size(), 13u);
    for (const auto &r : results)
        EXPECT_TRUE(r.blocked) << r.name << ": " << r.detail;
}

} // namespace
} // namespace cronus::attacks
