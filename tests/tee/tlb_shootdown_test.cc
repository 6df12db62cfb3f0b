/**
 * Shootdown-precision tests: the software TLB must never serve a
 * stale translation across the SPM's invalidation events. Each case
 * first makes an entry *hot* (a prior access filled the per-partition
 * stage-2 cache), then performs the invalidating event -- grant
 * revoke, partition failure (r_f marking + tag invalidation), scrub
 * and reload, hook-injected panic (proceed-trap) -- and asserts the
 * very first subsequent access faults exactly as the uncached model
 * would (§IV-D).
 */

#include <gtest/gtest.h>

#include "accel/gpu.hh"
#include "tee/spm.hh"

namespace cronus::tee
{
namespace
{

class TlbShootdownTest
    : public ::testing::TestWithParam<BackendSelect>
{
  protected:
    void
    SetUp() override
    {
        Logger::instance().setQuiet(true);
        hw::TranslationCache::setGlobalEnable(true);
        platform = std::make_unique<hw::Platform>();
        accel::GpuConfig gc;
        gc.name = "gpu0";
        platform->registerDevice(
            std::make_unique<accel::GpuDevice>(gc), 40);
        accel::GpuConfig gc2;
        gc2.name = "gpu1";
        gc2.rotSeed = {'g', '1'};
        platform->registerDevice(
            std::make_unique<accel::GpuDevice>(gc2), 41);

        monitor = std::make_unique<SecureMonitor>(*platform);
        ASSERT_TRUE(monitor->bootAllSecure().isOk());
        spm = std::make_unique<Spm>(*monitor, GetParam());
    }

    void
    TearDown() override
    {
        hw::TranslationCache::setGlobalEnable(true);
    }

    MosImage
    image(const std::string &name)
    {
        return MosImage{name, "gpu", toBytes("code-of-" + name)};
    }

    PartitionId
    makePartition(const std::string &device,
                  uint64_t mem = 1 << 20)
    {
        auto pid = spm->createPartition(image(device + ".mos"),
                                        device, mem);
        EXPECT_TRUE(pid.isOk()) << pid.status().toString();
        return pid.value();
    }

    /** Read @p addr from @p pid until the stage-2 TLB reports a hit,
     *  proving the entry is resident. */
    void
    heat(PartitionId pid, PhysAddr addr)
    {
        uint64_t hits0 = spm->tlbCounters().hits;
        ASSERT_TRUE(spm->read(pid, addr, 8).isOk());
        ASSERT_TRUE(spm->read(pid, addr, 8).isOk());
        ASSERT_GT(spm->tlbCounters().hits, hits0)
            << "entry never became hot";
    }

    std::unique_ptr<hw::Platform> platform;
    std::unique_ptr<SecureMonitor> monitor;
    std::unique_ptr<Spm> spm;
};

TEST_P(TlbShootdownTest, GrantRevokeFaultsFirstPeerAccess)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    auto gid = spm->sharePages(a, b, a_base, 1);
    ASSERT_TRUE(gid.isOk());

    heat(b, a_base);
    ASSERT_TRUE(spm->revokeGrant(gid.value(), a).isOk());

    /* First post-revoke access: the hot entry must not win. */
    EXPECT_EQ(spm->read(b, a_base, 8).code(),
              ErrorCode::AccessFault);
    /* The owner's own mapping is unaffected. */
    EXPECT_TRUE(spm->read(a, a_base, 8).isOk());
}

TEST_P(TlbShootdownTest, FailureInvalidationBeatsHotEntry)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    ASSERT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());

    heat(b, a_base);
    /* Failure step 1: r_f set, survivor entries tag-invalidated. */
    ASSERT_TRUE(spm->failPartition(a).isOk());

    /* First access is the proceed-trap, the second finds the page
     * unmapped -- same sequence as the uncached model. */
    EXPECT_EQ(spm->read(b, a_base, 8).code(), ErrorCode::PeerFailed);
    EXPECT_EQ(spm->read(b, a_base, 8).code(),
              ErrorCode::AccessFault);
}

TEST_P(TlbShootdownTest, ScrubAndReloadServesNoStaleData)
{
    PartitionId a = makePartition("gpu0");
    PhysAddr base = spm->partition(a).value()->memBase;
    ASSERT_TRUE(spm->write(a, base, Bytes{0x55, 0x66}).isOk());
    heat(a, base);

    ASSERT_TRUE(spm->failPartition(a).isOk());
    EXPECT_EQ(spm->read(a, base, 2).code(), ErrorCode::InvalidState);
    ASSERT_TRUE(spm->recoverPartition(a, image("gpu0.mos")).isOk());

    /* The scrub rebuilt the partition; the pre-failure entry must
     * not leak the crashed incarnation's data (A3). */
    EXPECT_EQ(spm->read(a, base, 2).value(), (Bytes{0, 0}));
}

TEST_P(TlbShootdownTest, HookInjectedPanicTrapsHotAccess)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    ASSERT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());

    heat(b, a_base);
    /* Injector-style hook: the owner dies immediately before the
     * survivor's second post-install access -- by then the entry is
     * hot again, so only a shootdown makes the access trap. */
    uint64_t kill_at = 2;
    spm->setAccessHook([&](const SpmAccess &acc) {
        if (acc.seq == kill_at)
            spm->panic(a);
        return Status::ok();
    });
    ASSERT_TRUE(spm->read(b, a_base, 8).isOk());
    EXPECT_EQ(spm->read(b, a_base, 8).code(), ErrorCode::PeerFailed);
}

TEST_P(TlbShootdownTest, ZeroCopyPathsRespectShootdown)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    auto gid = spm->sharePages(a, b, a_base, 1);
    ASSERT_TRUE(gid.isOk());

    /* Heat through the non-allocating entry points themselves: the
     * first access of each direction walks the table and annotates
     * the host page, the second one copies through it. */
    const uint8_t word[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    uint8_t buf[8] = {};
    for (int pass = 0; pass < 2; ++pass) {
        ASSERT_TRUE(spm->write(b, a_base, word, sizeof(word)).isOk());
        ASSERT_TRUE(spm->readInto(b, a_base, buf, sizeof(buf)).isOk());
    }
    EXPECT_EQ(Bytes(buf, buf + 8), Bytes(word, word + 8));
    EXPECT_GT(spm->tlbCounters().hits, 0u);

    ASSERT_TRUE(spm->revokeGrant(gid.value(), a).isOk());

    /* Both fast-path entry points fault on first re-access. */
    EXPECT_EQ(spm->readInto(b, a_base, buf, sizeof(buf)).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(spm->write(b, a_base, word, sizeof(word)).code(),
              ErrorCode::AccessFault);
}

TEST_P(TlbShootdownTest, DisabledTlbTakesIdenticalFaultSequence)
{
    hw::TranslationCache::setGlobalEnable(false);
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    ASSERT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());
    ASSERT_TRUE(spm->read(b, a_base, 8).isOk());
    ASSERT_TRUE(spm->failPartition(a).isOk());
    EXPECT_EQ(spm->read(b, a_base, 8).code(), ErrorCode::PeerFailed);
    EXPECT_EQ(spm->read(b, a_base, 8).code(),
              ErrorCode::AccessFault);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TlbShootdownTest,
    ::testing::Values(BackendSelect::Tz, BackendSelect::Pmp),
    [](const ::testing::TestParamInfo<BackendSelect> &info) {
        return std::string(backendName(
            resolveBackend(info.param)));
    });

} // namespace
} // namespace cronus::tee
