/** Tests for the Secure Partition Manager and failure recovery. */

#include <gtest/gtest.h>

#include "accel/gpu.hh"
#include "tee/spm.hh"

namespace cronus::tee
{
namespace
{

class SpmTest : public ::testing::TestWithParam<BackendSelect>
{
  protected:
    void
    SetUp() override
    {
        Logger::instance().setQuiet(true);
        /* Some tests re-run SetUp() to get a second machine; drop
         * the old stack in reverse-dependency order first so the Spm
         * never outlives the Platform it references. */
        spm.reset();
        monitor.reset();
        platform.reset();
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

    std::unique_ptr<hw::Platform> platform;
    std::unique_ptr<SecureMonitor> monitor;
    std::unique_ptr<Spm> spm;
};

TEST_P(SpmTest, CreatePartitionBasics)
{
    PartitionId pid = makePartition("gpu0");
    auto p = spm->partition(pid);
    ASSERT_TRUE(p.isOk());
    EXPECT_EQ(p.value()->deviceName, "gpu0");
    EXPECT_EQ(p.value()->state, PartitionState::Ready);
    EXPECT_EQ(p.value()->incarnation, 1u);
    EXPECT_TRUE(spm->validateMosId(pid));
    EXPECT_FALSE(spm->validateMosId(99));
}

TEST_P(SpmTest, DevicePartitionOneToOne)
{
    makePartition("gpu0");
    auto dup = spm->createPartition(image("x"), "gpu0", 1 << 20);
    EXPECT_EQ(dup.code(), ErrorCode::InvalidState);
    auto unknown = spm->createPartition(image("x"), "tpu9", 1 << 20);
    EXPECT_EQ(unknown.code(), ErrorCode::NotFound);
}

TEST_P(SpmTest, PartitionMemoryReadWrite)
{
    PartitionId pid = makePartition("gpu0");
    PhysAddr base = spm->partition(pid).value()->memBase;
    Bytes data = {1, 2, 3, 4};
    ASSERT_TRUE(spm->write(pid, base + 0x100, data).isOk());
    auto back = spm->read(pid, base + 0x100, 4);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), data);
}

TEST_P(SpmTest, PartitionCannotTouchForeignMemory)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr b_base = spm->partition(b).value()->memBase;
    /* Partition a's stage-2 has no mapping for b's memory. */
    EXPECT_EQ(spm->read(a, b_base, 16).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(spm->write(a, b_base, Bytes{1}).code(),
              ErrorCode::AccessFault);
}

TEST_P(SpmTest, NormalWorldCannotReadSecureMemory)
{
    PartitionId pid = makePartition("gpu0");
    PhysAddr base = spm->partition(pid).value()->memBase;
    ASSERT_TRUE(spm->write(pid, base, Bytes{42}).isOk());
    EXPECT_EQ(platform->busRead(hw::World::Normal, base, 1).code(),
              ErrorCode::AccessFault);
}

TEST_P(SpmTest, SharePagesAndCommunicate)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;

    auto gid = spm->sharePages(a, b, a_base, 2);
    ASSERT_TRUE(gid.isOk()) << gid.status().toString();

    Bytes msg = {0xde, 0xad};
    ASSERT_TRUE(spm->write(a, a_base, msg).isOk());
    auto seen = spm->read(b, a_base, 2);
    ASSERT_TRUE(seen.isOk()) << seen.status().toString();
    EXPECT_EQ(seen.value(), msg);

    /* Both directions work. */
    Bytes reply = {0xbe, 0xef};
    ASSERT_TRUE(spm->write(b, a_base, reply).isOk());
    EXPECT_EQ(spm->read(a, a_base, 2).value(), reply);
}

TEST_P(SpmTest, ShareOnceRuleEnforced)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    ASSERT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());
    EXPECT_EQ(spm->sharePages(a, b, a_base, 1).code(),
              ErrorCode::InvalidState);
}

TEST_P(SpmTest, ShareValidation)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    EXPECT_EQ(spm->sharePages(a, a, a_base, 1).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(spm->sharePages(a, b, a_base + 1, 1).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(spm->sharePages(a, b, a_base, 0).code(),
              ErrorCode::InvalidArgument);
    /* Range outside the owner's memory. */
    PhysAddr b_base = spm->partition(b).value()->memBase;
    EXPECT_EQ(spm->sharePages(a, b, b_base, 1).code(),
              ErrorCode::PermissionDenied);
}

TEST_P(SpmTest, FailureInvalidatesSurvivorAccess)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    ASSERT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());

    /* a fails. b's next access to the shared page traps and gets a
     * PeerFailed signal -- never stale data (A1) nor a hang (A2). */
    ASSERT_TRUE(spm->failPartition(a).isOk());
    bool signaled = false;
    spm->setTrapHandler([&](const TrapSignal &sig) {
        EXPECT_EQ(sig.accessor, b);
        EXPECT_EQ(sig.failedPeer, a);
        signaled = true;
    });
    EXPECT_EQ(spm->read(b, a_base, 8).code(), ErrorCode::PeerFailed);
    EXPECT_TRUE(signaled);

    /* After the trap the mapping is gone entirely. */
    EXPECT_EQ(spm->read(b, a_base, 8).code(), ErrorCode::AccessFault);
}

TEST_P(SpmTest, OwnerRecoversOwnPagesAfterPeerFailure)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    ASSERT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());
    ASSERT_TRUE(spm->write(a, a_base, Bytes{7}).isOk());

    /* The *peer* fails; the owner's first access traps, then access
     * to its own page is restored. */
    ASSERT_TRUE(spm->failPartition(b).isOk());
    EXPECT_EQ(spm->read(a, a_base, 1).code(), ErrorCode::PeerFailed);
    auto again = spm->read(a, a_base, 1);
    ASSERT_TRUE(again.isOk()) << again.status().toString();
    EXPECT_EQ(again.value(), Bytes{7});
}

/* A rebooted owner's shared pages stay in the share-once budget
 * until the survivor takes its pending trap: a re-share before then
 * would overwrite the survivor's invalidated entry and swallow the
 * trap (A1). */
TEST_P(SpmTest, CrashedOwnerPagesStayReservedUntilPeerTraps)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    auto gid = spm->sharePages(a, b, a_base, 1);
    ASSERT_TRUE(gid.isOk());

    ASSERT_TRUE(spm->panic(a).isOk());
    ASSERT_TRUE(spm->recoverPartition(a, image("gpu0.mos")).isOk());
    EXPECT_EQ(spm->sharePages(a, b, a_base, 1).code(),
              ErrorCode::InvalidState);
    /* The reboot retired the grant, so the survivor cannot revoke
     * it; its next access takes the trap instead. */
    EXPECT_EQ(spm->revokeGrant(gid.value(), b).code(),
              ErrorCode::InvalidState);
    EXPECT_EQ(spm->read(b, a_base, 1).code(), ErrorCode::PeerFailed);
    EXPECT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());
}

/* If the survivor reboots too before it traps, its rebuilt stage-2
 * holds no invalidated entry, so the trap can never fire: the reboot
 * resolves it and the pages return to the share-once budget. Both
 * orders: the owner crashes first, or the peer does. */
TEST_P(SpmTest, BothPartiesRebootingReturnsShareBudget)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    for (auto [first, second] : {std::pair{a, b}, std::pair{b, a}}) {
        ASSERT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());
        ASSERT_TRUE(spm->panic(first).isOk());
        ASSERT_TRUE(spm->recoverPartition(
            first, image(spm->partition(first).value()->deviceName +
                         ".mos")).isOk());
        ASSERT_TRUE(spm->panic(second).isOk());
        ASSERT_TRUE(spm->recoverPartition(
            second, image(spm->partition(second).value()->deviceName +
                          ".mos")).isOk());

        auto again = spm->sharePages(a, b, a_base, 1);
        ASSERT_TRUE(again.isOk()) << again.status().toString();
        ASSERT_TRUE(spm->write(a, a_base, Bytes{9}).isOk());
        auto seen = spm->read(b, a_base, 1);
        ASSERT_TRUE(seen.isOk()) << seen.status().toString();
        EXPECT_EQ(seen.value(), Bytes{9});
        ASSERT_TRUE(spm->revokeGrant(again.value(), a).isOk());
    }
}

/* Resolving a stale grant cannot free pages a later grant holds:
 * the survivor revokes, the owner re-shares, and the survivor's
 * reboot resolves the old trap but leaves the new grant's page
 * reserved until the owner takes the new grant's trap. */
TEST_P(SpmTest, StaleGrantCannotReleaseReSharedPages)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    uint64_t gid = spm->sharePages(a, b, a_base, 1).value();

    ASSERT_TRUE(spm->panic(a).isOk());
    ASSERT_TRUE(spm->revokeGrant(gid, b).isOk());
    ASSERT_TRUE(spm->recoverPartition(a, image("gpu0.mos")).isOk());
    ASSERT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());

    ASSERT_TRUE(spm->panic(b).isOk());
    ASSERT_TRUE(spm->recoverPartition(b, image("gpu1.mos")).isOk());
    EXPECT_EQ(spm->sharePages(a, b, a_base, 1).code(),
              ErrorCode::InvalidState);
    EXPECT_EQ(spm->read(a, a_base, 1).code(), ErrorCode::PeerFailed);
    EXPECT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());
}

/* A revoked grant whose trap never fired stays pending. When a later
 * grant of the same page traps, the trap must resolve that later
 * grant, or its page stays reserved and its party never traps again.
 * The owner takes the trap here, before the failed peer recovers. */
TEST_P(SpmTest, StalePendingGrantDoesNotShadowOwnerTrap)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    std::vector<TrapSignal> traps;
    spm->setTrapHandler(
        [&](const TrapSignal &sig) { traps.push_back(sig); });

    uint64_t g1 = spm->sharePages(a, b, a_base, 1).value();
    ASSERT_TRUE(spm->panic(a).isOk());
    ASSERT_TRUE(spm->revokeGrant(g1, b).isOk());
    ASSERT_TRUE(spm->recoverPartition(a, image("gpu0.mos")).isOk());
    uint64_t g2 = spm->sharePages(a, b, a_base, 1).value();
    ASSERT_TRUE(spm->panic(b).isOk());

    EXPECT_EQ(spm->read(a, a_base, 1).code(), ErrorCode::PeerFailed);
    ASSERT_EQ(traps.size(), 1u);
    EXPECT_EQ(traps[0].grantId, g2);
    EXPECT_EQ(traps[0].failedPeer, b);

    ASSERT_TRUE(spm->recoverPartition(b, image("gpu1.mos")).isOk());
    auto again = spm->sharePages(a, b, a_base, 1);
    ASSERT_TRUE(again.isOk()) << again.status().toString();
    ASSERT_TRUE(spm->write(a, a_base, Bytes{7}).isOk());
    auto seen = spm->read(b, a_base, 1);
    ASSERT_TRUE(seen.isOk()) << seen.status().toString();
    EXPECT_EQ(seen.value(), Bytes{7});
}

/* The same shadowing from the peer's side: the peer revokes the
 * stale grant, the owner re-shares and crashes again, and the peer's
 * trap must resolve the new grant so the owner can share the page
 * once it recovers. */
TEST_P(SpmTest, StalePendingGrantDoesNotShadowPeerTrap)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    std::vector<TrapSignal> traps;
    spm->setTrapHandler(
        [&](const TrapSignal &sig) { traps.push_back(sig); });

    uint64_t g1 = spm->sharePages(a, b, a_base, 1).value();
    ASSERT_TRUE(spm->panic(a).isOk());
    ASSERT_TRUE(spm->revokeGrant(g1, b).isOk());
    ASSERT_TRUE(spm->recoverPartition(a, image("gpu0.mos")).isOk());
    uint64_t g2 = spm->sharePages(a, b, a_base, 1).value();
    ASSERT_TRUE(spm->panic(a).isOk());

    EXPECT_EQ(spm->read(b, a_base, 1).code(), ErrorCode::PeerFailed);
    ASSERT_EQ(traps.size(), 1u);
    EXPECT_EQ(traps[0].grantId, g2);
    EXPECT_EQ(traps[0].failedPeer, a);

    ASSERT_TRUE(spm->recoverPartition(a, image("gpu0.mos")).isOk());
    EXPECT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());
}

/* A stale grant's trap may still fire on a page it kept, but it must
 * leave alone the pages re-shared since: their entries belong to the
 * later grant, whose own trap must still fire. Here the surviving
 * owner revokes a two-page grant, re-shares its second page, and the
 * peer crashes again before the owner touches the first page. */
TEST_P(SpmTest, StaleTrapLeavesReSharedPagesToTheirGrant)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    PhysAddr second = a_base + hw::kPageSize;
    std::vector<TrapSignal> traps;
    spm->setTrapHandler(
        [&](const TrapSignal &sig) { traps.push_back(sig); });

    uint64_t g1 = spm->sharePages(a, b, a_base, 2).value();
    ASSERT_TRUE(spm->panic(b).isOk());
    ASSERT_TRUE(spm->revokeGrant(g1, a).isOk());
    ASSERT_TRUE(spm->recoverPartition(b, image("gpu1.mos")).isOk());
    uint64_t g2 = spm->sharePages(a, b, second, 1).value();
    ASSERT_TRUE(spm->panic(b).isOk());

    EXPECT_EQ(spm->read(a, a_base, 1).code(), ErrorCode::PeerFailed);
    EXPECT_EQ(spm->read(a, second, 1).code(), ErrorCode::PeerFailed);
    ASSERT_EQ(traps.size(), 2u);
    EXPECT_EQ(traps[0].grantId, g1);
    EXPECT_EQ(traps[1].grantId, g2);

    ASSERT_TRUE(spm->recoverPartition(b, image("gpu1.mos")).isOk());
    EXPECT_TRUE(spm->sharePages(a, b, a_base, 2).isOk());
}

TEST_P(SpmTest, RfBlocksNewSharingWithFailedPartition)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr b_base = spm->partition(b).value()->memBase;
    ASSERT_TRUE(spm->failPartition(a).isOk());
    EXPECT_EQ(spm->sharePages(b, a, b_base, 1).code(),
              ErrorCode::PeerFailed);
}

TEST_P(SpmTest, RecoveryScrubsMemoryAndBumpsIncarnation)
{
    PartitionId a = makePartition("gpu0");
    PhysAddr base = spm->partition(a).value()->memBase;
    ASSERT_TRUE(spm->write(a, base, Bytes{0x55, 0x66}).isOk());

    ASSERT_TRUE(spm->failPartition(a).isOk());
    /* While failed, the partition cannot run. */
    EXPECT_EQ(spm->read(a, base, 2).code(), ErrorCode::InvalidState);

    ASSERT_TRUE(spm->recoverPartition(a, image("gpu0.mos")).isOk());
    auto p = spm->partition(a);
    EXPECT_EQ(p.value()->state, PartitionState::Ready);
    EXPECT_EQ(p.value()->incarnation, 2u);
    /* A3 defense: crashed data is cleared before the new mOS runs. */
    EXPECT_EQ(spm->read(a, base, 2).value(), (Bytes{0, 0}));
}

TEST_P(SpmTest, RecoveryIsFasterThanMachineReboot)
{
    PartitionId a = makePartition("gpu0");
    ASSERT_TRUE(spm->failPartition(a).isOk());
    SimTime before = platform->clock().now();
    ASSERT_TRUE(spm->recoverPartition(a, image("gpu0.mos")).isOk());
    SimTime recovery = platform->clock().now() - before;
    EXPECT_LT(recovery, platform->costs().machineRebootNs / 10);
    /* "hundreds of milliseconds" */
    EXPECT_GE(recovery, 100 * kNsPerMs);
    EXPECT_LT(recovery, 1000 * kNsPerMs);
}

TEST_P(SpmTest, ConcurrentRecoveryChargesMaxCost)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    ASSERT_TRUE(spm->failPartition(a).isOk());
    ASSERT_TRUE(spm->failPartition(b).isOk());

    SimTime before = platform->clock().now();
    ASSERT_TRUE(spm->recoverConcurrently(
        {a, b}, {image("gpu0.mos"), image("gpu1.mos")}).isOk());
    SimTime concurrent = platform->clock().now() - before;

    /* Compare with two *serial* recoveries on a fresh setup: the
     * concurrent path must be roughly half. */
    SetUp();
    PartitionId a2 = makePartition("gpu0");
    PartitionId b2 = makePartition("gpu1");
    ASSERT_TRUE(spm->failPartition(a2).isOk());
    ASSERT_TRUE(spm->failPartition(b2).isOk());
    before = platform->clock().now();
    ASSERT_TRUE(spm->recoverPartition(a2, image("gpu0.mos")).isOk());
    ASSERT_TRUE(spm->recoverPartition(b2, image("gpu1.mos")).isOk());
    SimTime serial = platform->clock().now() - before;
    EXPECT_LT(concurrent, serial);
}

TEST_P(SpmTest, RevokeGrantRestoresShareBudget)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    uint64_t gid = spm->sharePages(a, b, a_base, 1).value();

    EXPECT_EQ(spm->revokeGrant(gid, 99).code(),
              ErrorCode::PermissionDenied);
    ASSERT_TRUE(spm->revokeGrant(gid, a).isOk());
    EXPECT_EQ(spm->read(b, a_base, 1).code(), ErrorCode::AccessFault);
    /* The page can be shared again. */
    EXPECT_TRUE(spm->sharePages(a, b, a_base, 1).isOk());
}

TEST_P(SpmTest, RequiresSecureBoot)
{
    hw::Platform fresh;
    SecureMonitor unbooted(fresh);
    Spm spm2(unbooted);
    EXPECT_EQ(spm2.createPartition(image("x"), "gpu0",
                                   1 << 20).code(),
              ErrorCode::InvalidState);
}

TEST_P(SpmTest, GrantsOfListsActiveGrants)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr a_base = spm->partition(a).value()->memBase;
    uint64_t gid = spm->sharePages(a, b, a_base, 1).value();
    EXPECT_EQ(spm->grantsOf(a), std::vector<uint64_t>{gid});
    EXPECT_EQ(spm->grantsOf(b), std::vector<uint64_t>{gid});
    EXPECT_TRUE(spm->grantsOf(99).empty());
    EXPECT_TRUE(spm->grant(gid).isOk());
    EXPECT_FALSE(spm->grant(999).isOk());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SpmTest,
    ::testing::Values(BackendSelect::Tz, BackendSelect::Pmp),
    [](const ::testing::TestParamInfo<BackendSelect> &info) {
        return std::string(backendName(
            resolveBackend(info.param)));
    });

} // namespace
} // namespace cronus::tee
