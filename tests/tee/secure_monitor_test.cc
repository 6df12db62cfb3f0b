/** Tests for the secure monitor (EL3) and the normal world. */

#include <gtest/gtest.h>

#include "accel/gpu.hh"
#include "accel/npu.hh"
#include "tee/normal_world.hh"

namespace cronus::tee
{
namespace
{

hw::DeviceTree
validDt()
{
    hw::DeviceTree dt;
    hw::DtNode gpu;
    gpu.name = "gpu0";
    gpu.compatible = "nvidia,sim";
    gpu.mmioBase = 0x1000;
    gpu.mmioSize = 0x1000;
    gpu.irq = 40;
    gpu.world = hw::World::Secure;
    dt.addNode(gpu);
    return dt;
}

TEST(SecureMonitorTest, BootValidatesAndLocks)
{
    Logger::instance().setQuiet(true);
    hw::Platform platform;
    SecureMonitor sm(platform);
    EXPECT_FALSE(sm.booted());
    ASSERT_TRUE(sm.boot(validDt()).isOk());
    EXPECT_TRUE(sm.booted());
    EXPECT_TRUE(platform.tzasc().isLocked());
    EXPECT_TRUE(platform.tzpc().isLocked());
    EXPECT_EQ(platform.tzpc().deviceWorld("gpu0"), hw::World::Secure);
    /* DT frozen for attestation. */
    EXPECT_EQ(sm.deviceTree().measure(), validDt().measure());
    /* Double boot rejected. */
    EXPECT_EQ(sm.boot(validDt()).code(), ErrorCode::InvalidState);
}

TEST(SecureMonitorTest, BootRejectsInvalidDt)
{
    Logger::instance().setQuiet(true);
    hw::Platform platform;
    SecureMonitor sm(platform);
    hw::DeviceTree bad = validDt();
    hw::DtNode dup;
    dup.name = "gpu1";
    dup.compatible = "x";
    dup.mmioBase = 0x1800;  /* overlaps gpu0 */
    dup.mmioSize = 0x1000;
    dup.irq = 41;
    bad.addNode(dup);
    EXPECT_EQ(sm.boot(bad).code(), ErrorCode::InvalidArgument);
    EXPECT_FALSE(sm.booted());
}

TEST(SecureMonitorTest, WorldSwitchChargesAndCounts)
{
    hw::Platform platform;
    SecureMonitor sm(platform);
    SimTime t0 = platform.clock().now();
    sm.worldSwitch();
    EXPECT_EQ(platform.clock().now() - t0,
              platform.costs().worldSwitchNs);
    sm.sel2RpcSwitch();
    EXPECT_EQ(sm.worldSwitchCount(), 1u);
    EXPECT_EQ(sm.sel2SwitchCount(), 1u);
    /* The S-EL2 RPC leg is 4x the basic world switch. */
    EXPECT_EQ(platform.costs().sel2RpcSwitchNs,
              4 * platform.costs().worldSwitchNs);
}

TEST(SecureMonitorTest, AttestationKeyEndorsedByRot)
{
    hw::Platform platform;
    SecureMonitor sm(platform);
    EXPECT_TRUE(crypto::verify(platform.rootOfTrust().publicKey(),
                               sm.attestationKey().toBytes(),
                               sm.atkEndorsement()));
    Bytes report = toBytes("report-bytes");
    auto sig = sm.signReport(report);
    EXPECT_TRUE(crypto::verify(sm.attestationKey(), report, sig));
}

TEST(SecureMonitorTest, LocalSealKeyStablePerPlatform)
{
    hw::Platform p1, p2;
    SecureMonitor a(p1), b(p1);
    EXPECT_EQ(a.localSealKey(), b.localSealKey());
    hw::PlatformConfig cfg;
    cfg.rotSeed = toBytes("other-machine");
    hw::Platform other(cfg);
    SecureMonitor c(other);
    EXPECT_NE(a.localSealKey(), c.localSealKey());
}

TEST(SecureMonitorTest, BootAllSecureAssignsEveryDevice)
{
    Logger::instance().setQuiet(true);
    hw::Platform platform;
    platform.registerDevice(std::make_unique<accel::GpuDevice>(), 40);
    platform.registerDevice(std::make_unique<accel::NpuDevice>(), 60);
    SecureMonitor sm(platform);
    ASSERT_TRUE(sm.bootAllSecure().isOk());
    EXPECT_TRUE(sm.booted());
    EXPECT_TRUE(platform.tzasc().isLocked());
    EXPECT_TRUE(platform.tzpc().isLocked());

    /* Every registered device is secure on the TZPC ... */
    hw::DeviceTree discovered = platform.buildDeviceTree();
    ASSERT_EQ(discovered.all().size(), 2u);
    for (const auto &node : discovered.all())
        EXPECT_EQ(platform.tzpc().deviceWorld(node.name),
                  hw::World::Secure)
            << node.name;
    /* ... and the frozen tree is the discovered one, all-secure. */
    const hw::DeviceTree &frozen = sm.deviceTree();
    ASSERT_EQ(frozen.all().size(), discovered.all().size());
    for (size_t i = 0; i < frozen.all().size(); ++i) {
        EXPECT_EQ(frozen.all()[i].name, discovered.all()[i].name);
        EXPECT_EQ(frozen.all()[i].world, hw::World::Secure);
    }

    EXPECT_EQ(sm.bootAllSecure().code(), ErrorCode::InvalidState);
}

TEST(NormalWorldTest, AllocationAndAccess)
{
    hw::Platform platform;
    SecureMonitor sm(platform);
    NormalWorld nw(sm);
    /* Untrusted memory is the normal OS's to hand out; take a page. */
    hw::PhysAddr addr = platform.normalBase() + hw::kPageSize;
    ASSERT_TRUE(nw.write(addr, Bytes{1, 2, 3}).isOk());
    EXPECT_EQ(nw.read(addr, 3).value(), (Bytes{1, 2, 3}));
    /* Normal world cannot reach secure memory. */
    EXPECT_EQ(nw.read(platform.secureBase(), 4).code(),
              ErrorCode::AccessFault);
}

} // namespace
} // namespace cronus::tee
