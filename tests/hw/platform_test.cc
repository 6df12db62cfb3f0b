/** Integration tests for the assembled platform. */

#include <gtest/gtest.h>

#include "hw/platform.hh"

namespace cronus::hw
{
namespace
{

/** Minimal device for bus tests. */
class DummyDevice : public Device
{
  public:
    DummyDevice() : Device("dummy0", "test,dummy", 0x100) {}

    Result<uint64_t> mmioRead(uint64_t offset) override
    {
        if (offset >= mmioSize())
            return Status(ErrorCode::AccessFault, "mmio oob");
        return reg;
    }

    Status mmioWrite(uint64_t offset, uint64_t value) override
    {
        if (offset >= mmioSize())
            return Status(ErrorCode::AccessFault, "mmio oob");
        reg = value;
        return Status::ok();
    }

    void reset(bool) override { reg = 0; }

    /** Expose DMA helpers for tests. */
    Status dmaReadHost(PhysAddr addr, uint8_t *out, uint64_t len)
    {
        return platform->dmaRead(*this, addr, out, len);
    }
    Status dmaWriteHost(PhysAddr addr, const uint8_t *data,
                        uint64_t len)
    {
        return platform->dmaWrite(*this, addr, data, len);
    }

    uint64_t reg = 0;
};

TEST(PlatformTest, MemoryLayout)
{
    Platform p;
    EXPECT_EQ(p.normalBase(), 0u);
    EXPECT_EQ(p.secureBase(), p.normalSize());
    EXPECT_EQ(p.dram().size(), p.normalSize() + p.secureSize());
}

TEST(PlatformTest, TzascFiltersBusAccess)
{
    Platform p;
    Bytes data = {1, 2, 3};
    EXPECT_TRUE(p.busWrite(World::Normal, 0x1000, data).isOk());
    EXPECT_TRUE(
        p.busWrite(World::Secure, p.secureBase(), data).isOk());
    EXPECT_EQ(p.busWrite(World::Normal, p.secureBase(), data).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(p.busRead(World::Normal, p.secureBase(), 16).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(p.stats().value("tzasc_faults"), 2u);
}

TEST(PlatformTest, DeviceRegistrationAndTzpc)
{
    Platform p;
    Device *dev = p.registerDevice(std::make_unique<DummyDevice>(), 40);
    ASSERT_NE(dev, nullptr);
    EXPECT_EQ(dev->irq(), 40u);
    EXPECT_NE(dev->streamId(), 0u);

    ASSERT_TRUE(p.tzpc().assignDevice("dummy0", World::Secure,
                                      World::Secure).isOk());
    EXPECT_TRUE(p.accessDevice("dummy0", World::Secure).isOk());
    EXPECT_EQ(p.accessDevice("dummy0", World::Normal).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(p.accessDevice("nope", World::Secure).code(),
              ErrorCode::NotFound);
}

TEST(PlatformTest, SecureDeviceDmaConfinedToSecureMemory)
{
    Platform p;
    auto *dev = static_cast<DummyDevice *>(
        p.registerDevice(std::make_unique<DummyDevice>(), 40));
    ASSERT_TRUE(p.tzpc().assignDevice("dummy0", World::Secure,
                                      World::Secure).isOk());

    uint8_t buf[8] = {0};
    /* DMA into normal memory from a secure-bus device: blocked. */
    EXPECT_EQ(dev->dmaWriteHost(0x1000, buf, 8).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(p.stats().value("dma_confinement_faults"), 1u);
    /* DMA into secure memory: allowed. */
    EXPECT_TRUE(dev->dmaWriteHost(p.secureBase(), buf, 8).isOk());
    EXPECT_TRUE(dev->dmaReadHost(p.secureBase(), buf, 8).isOk());
}

TEST(PlatformTest, SmmuGatesDeviceDma)
{
    Platform p;
    auto *dev = static_cast<DummyDevice *>(
        p.registerDevice(std::make_unique<DummyDevice>(), 40));
    ASSERT_TRUE(p.tzpc().assignDevice("dummy0", World::Secure,
                                      World::Secure).isOk());

    /* Install an SMMU table: iova 0x0 -> secure page. */
    PhysAddr target = p.secureBase();
    ASSERT_TRUE(p.smmu().streamTable(dev->streamId())
                    .map(0x0, target, PagePerms::rw(), 1).isOk());

    uint8_t data[4] = {9, 9, 9, 9};
    ASSERT_TRUE(dev->dmaWriteHost(0x0, data, 4).isOk());
    auto stored = p.dram().read(target, 4);
    EXPECT_EQ(stored.value(), (Bytes{9, 9, 9, 9}));

    /* Unmapped iova faults. */
    EXPECT_EQ(dev->dmaWriteHost(0x100000, data, 4).code(),
              ErrorCode::AccessFault);
    /* Invalidated entry faults (proceed-trap step 1). */
    p.smmu().invalidateByTag(1);
    EXPECT_EQ(dev->dmaWriteHost(0x0, data, 4).code(),
              ErrorCode::AccessFault);
}

TEST(PlatformTest, DeviceTreeReflectsDevices)
{
    Platform p;
    p.registerDevice(std::make_unique<DummyDevice>(), 40);
    ASSERT_TRUE(p.tzpc().assignDevice("dummy0", World::Secure,
                                      World::Secure).isOk());
    DeviceTree dt = p.buildDeviceTree();
    EXPECT_TRUE(dt.validate().isOk());
    const DtNode *n = dt.find("dummy0");
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->world, World::Secure);
    EXPECT_EQ(n->irq, 40u);
}

TEST(PlatformTest, ClockChargesTransferCosts)
{
    Platform p;
    SimTime before = p.clock().now();
    p.chargeMemcpy(1 << 20);
    EXPECT_GT(p.clock().now(), before);
}

TEST(PlatformTest, RootOfTrustSigns)
{
    Platform p;
    Bytes msg = toBytes("report");
    auto sig = p.rootOfTrust().sign(msg);
    EXPECT_TRUE(crypto::verify(p.rootOfTrust().publicKey(), msg, sig));
}

TEST(VendorRegistryTest, EndorsementFlow)
{
    VendorRegistry reg;
    crypto::KeyPair vendor = crypto::deriveKeyPair(toBytes("nvidia"));
    crypto::KeyPair device = crypto::deriveKeyPair(toBytes("gpu-rot"));
    reg.addVendor("nvidia", vendor.pub);

    auto endorsement = reg.endorse("nvidia", vendor, device.pub);
    ASSERT_TRUE(endorsement.isOk());
    EXPECT_TRUE(reg.verifyEndorsement("nvidia", device.pub,
                                      endorsement.value()));

    /* Wrong vendor or fabricated device key is rejected. */
    EXPECT_FALSE(reg.verifyEndorsement("amd", device.pub,
                                       endorsement.value()));
    crypto::KeyPair fake = crypto::deriveKeyPair(toBytes("fake"));
    EXPECT_FALSE(reg.verifyEndorsement("nvidia", fake.pub,
                                       endorsement.value()));
    EXPECT_FALSE(reg.endorse("unknown", vendor,
                             device.pub).isOk());
}

} // namespace
} // namespace cronus::hw
