/**
 * SPM grant lifecycle under create/destroy churn: share-once re-arm
 * after revoke, revoke authorization, Retired-vs-Revoked hook
 * semantics when a partition dies holding live grants, and
 * TLB-shootdown precision across partition incarnations.
 */

#include <gtest/gtest.h>

#include "accel/gpu.hh"
#include "tee/spm.hh"

namespace cronus::tee
{
namespace
{

class SpmChurnTest
    : public ::testing::TestWithParam<BackendSelect>
{
  protected:
    void
    SetUp() override
    {
        Logger::instance().setQuiet(true);
        platform = std::make_unique<hw::Platform>();
        for (uint32_t i = 0; i < 3; ++i) {
            accel::GpuConfig gc;
            gc.name = "gpu" + std::to_string(i);
            gc.rotSeed = {'g', static_cast<uint8_t>('0' + i)};
            platform->registerDevice(
                std::make_unique<accel::GpuDevice>(gc), 40 + i);
        }
        monitor = std::make_unique<SecureMonitor>(*platform);
        ASSERT_TRUE(monitor->bootAllSecure().isOk());
        spm = std::make_unique<Spm>(*monitor, GetParam());

        spm->setGrantHook([this](const GrantEvent &ev) {
            events.push_back(ev);
        });
    }

    MosImage
    image(const std::string &name)
    {
        return MosImage{name, "gpu", toBytes("code-of-" + name)};
    }

    PartitionId
    makePartition(const std::string &device)
    {
        auto pid = spm->createPartition(image(device + ".mos"),
                                        device, 1 << 20);
        EXPECT_TRUE(pid.isOk()) << pid.status().toString();
        return pid.value();
    }

    PhysAddr
    baseOf(PartitionId pid)
    {
        return spm->partition(pid).value()->memBase;
    }

    /** Grant-hook events of @p kind, in arrival order. */
    std::vector<uint64_t>
    eventIds(GrantEvent::Kind kind) const
    {
        std::vector<uint64_t> ids;
        for (const GrantEvent &ev : events) {
            if (ev.kind == kind)
                ids.push_back(ev.id);
        }
        return ids;
    }

    std::unique_ptr<hw::Platform> platform;
    std::unique_ptr<SecureMonitor> monitor;
    std::unique_ptr<Spm> spm;
    std::vector<GrantEvent> events;
};

TEST_P(SpmChurnTest, ShareOnceReArmsAfterRevoke)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr page = baseOf(a);

    auto g1 = spm->sharePages(a, b, page, 1);
    ASSERT_TRUE(g1.isOk());

    /* Share-once: the page is pinned while the grant lives... */
    auto dup = spm->sharePages(a, b, page, 1);
    ASSERT_FALSE(dup.isOk());
    EXPECT_EQ(dup.code(), ErrorCode::InvalidState);

    /* ...and returns to the budget on revoke, re-armed for the next
     * churn iteration with a fresh grant id. */
    ASSERT_TRUE(spm->revokeGrant(g1.value(), a).isOk());
    auto g2 = spm->sharePages(a, b, page, 1);
    ASSERT_TRUE(g2.isOk());
    EXPECT_GT(g2.value(), g1.value());

    /* Many cycles keep working -- no budget leak across churn. */
    uint64_t last = g2.value();
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(spm->revokeGrant(last, a).isOk());
        auto g = spm->sharePages(a, b, page, 1);
        ASSERT_TRUE(g.isOk()) << "cycle " << i;
        last = g.value();
    }
}

TEST_P(SpmChurnTest, RevokeRequiresAPartyToTheGrant)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PartitionId c = makePartition("gpu2");

    auto g = spm->sharePages(a, b, baseOf(a), 1);
    ASSERT_TRUE(g.isOk());

    /* A third partition cannot tear down someone else's grant. */
    Status outsider = spm->revokeGrant(g.value(), c);
    ASSERT_FALSE(outsider.isOk());
    EXPECT_EQ(outsider.code(), ErrorCode::PermissionDenied);
    EXPECT_TRUE(spm->grant(g.value()).value()->active);

    /* The peer is a party: its revoke succeeds; a second revoke is
     * InvalidState and an unknown id NotFound. */
    EXPECT_TRUE(spm->revokeGrant(g.value(), b).isOk());
    EXPECT_EQ(spm->revokeGrant(g.value(), a).code(),
              ErrorCode::InvalidState);
    EXPECT_EQ(spm->revokeGrant(9999, a).code(),
              ErrorCode::NotFound);
}

TEST_P(SpmChurnTest, DeathRetiresGrantsRevokeDoesNot)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");

    /* Normal churn teardown: Created then Revoked. */
    auto g1 = spm->sharePages(a, b, baseOf(a), 1);
    ASSERT_TRUE(g1.isOk());
    ASSERT_TRUE(spm->revokeGrant(g1.value(), a).isOk());
    EXPECT_EQ(eventIds(GrantEvent::Kind::Revoked),
              std::vector<uint64_t>{g1.value()});
    EXPECT_TRUE(eventIds(GrantEvent::Kind::Retired).empty());

    /* Partition death with a live grant: failure handling retires
     * it during the scrub -- Retired, never Revoked. */
    auto g2 = spm->sharePages(a, b, baseOf(a) + hw::kPageSize, 1);
    ASSERT_TRUE(g2.isOk());
    ASSERT_TRUE(spm->panic(b).isOk());
    ASSERT_TRUE(
        spm->recoverPartition(b, image("gpu1.mos")).isOk());

    EXPECT_EQ(eventIds(GrantEvent::Kind::Retired),
              std::vector<uint64_t>{g2.value()});
    EXPECT_EQ(eventIds(GrantEvent::Kind::Revoked),
              std::vector<uint64_t>{g1.value()});
    EXPECT_FALSE(spm->grant(g2.value()).value()->active);

    /* The surviving owner's page stays pinned until its pending
     * trap resolves -- a premature re-share would alias the page
     * into the new incarnation. */
    auto early = spm->sharePages(a, b, baseOf(a) + hw::kPageSize, 1);
    ASSERT_FALSE(early.isOk());
    EXPECT_EQ(early.code(), ErrorCode::InvalidState);

    /* The owner's next touch takes the proceed-trap... */
    EXPECT_EQ(spm->read(a, baseOf(a) + hw::kPageSize, 8).code(),
              ErrorCode::PeerFailed);

    /* ...after which the trap is resolved: access recovers and the
     * share-once budget re-arms. No second Retired fires for the
     * already-retired grant. */
    EXPECT_TRUE(spm->read(a, baseOf(a) + hw::kPageSize, 8).isOk());
    EXPECT_EQ(eventIds(GrantEvent::Kind::Retired),
              std::vector<uint64_t>{g2.value()});
    EXPECT_TRUE(
        spm->sharePages(a, b, baseOf(a) + hw::kPageSize, 1).isOk());
}

TEST_P(SpmChurnTest, ShootdownOnlyHitsTheFailedPeersGrant)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PartitionId c = makePartition("gpu2");

    PhysAddr page_b = baseOf(a);
    PhysAddr page_c = baseOf(a) + hw::kPageSize;
    auto gb = spm->sharePages(a, b, page_b, 1);
    auto gc = spm->sharePages(a, c, page_c, 1);
    ASSERT_TRUE(gb.isOk());
    ASSERT_TRUE(gc.isOk());
    ASSERT_TRUE(spm->write(a, page_b, Bytes{1}).isOk());
    ASSERT_TRUE(spm->write(a, page_c, Bytes{2}).isOk());

    ASSERT_TRUE(spm->panic(b).isOk());
    ASSERT_TRUE(
        spm->recoverPartition(b, image("gpu1.mos")).isOk());

    /* The shootdown is precise: a's translation for the grant shared
     * with the dead b is invalidated (trap on first touch), while
     * the unrelated grant to c stays hot on both sides. */
    EXPECT_TRUE(spm->read(c, page_c, 1).isOk());
    EXPECT_TRUE(spm->read(a, page_c, 1).isOk());
    EXPECT_TRUE(spm->grant(gc.value()).value()->active);
    EXPECT_EQ(spm->read(a, page_b, 1).code(),
              ErrorCode::PeerFailed);

    /* b's new incarnation starts with no grants of its own. */
    EXPECT_EQ(spm->partition(b).value()->incarnation, 2u);
    EXPECT_TRUE(spm->grantsOf(b).empty());
}

TEST_P(SpmChurnTest, RecycledIncarnationCannotUseStaleMappings)
{
    PartitionId a = makePartition("gpu0");
    PartitionId b = makePartition("gpu1");
    PhysAddr page = baseOf(a);

    auto g1 = spm->sharePages(a, b, page, 1);
    ASSERT_TRUE(g1.isOk());
    ASSERT_TRUE(spm->write(a, page, Bytes{0x77}).isOk());
    ASSERT_TRUE(spm->read(b, page, 1).isOk());

    /* Kill and recycle b twice in a row (churned restarts). */
    for (uint64_t round = 2; round <= 3; ++round) {
        ASSERT_TRUE(spm->panic(b).isOk());
        ASSERT_TRUE(
            spm->recoverPartition(b, image("gpu1.mos")).isOk());
        EXPECT_EQ(spm->partition(b).value()->incarnation, round);
        /* The old incarnation's mapping of a's page died with it. */
        EXPECT_EQ(spm->read(b, page, 1).code(),
                  ErrorCode::AccessFault);
    }

    /* Resolve a's side, then re-share with the new incarnation: the
     * fresh grant works end to end (no stale translation reuse). */
    EXPECT_EQ(spm->read(a, page, 1).code(), ErrorCode::PeerFailed);
    ASSERT_TRUE(spm->read(a, page, 1).isOk());
    auto g2 = spm->sharePages(a, b, page, 1);
    ASSERT_TRUE(g2.isOk());
    ASSERT_TRUE(spm->write(a, page, Bytes{0x78}).isOk());
    auto back = spm->read(b, page, 1);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), Bytes{0x78});
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SpmChurnTest,
    ::testing::Values(BackendSelect::Tz, BackendSelect::Pmp),
    [](const ::testing::TestParamInfo<BackendSelect> &info) {
        return std::string(backendName(
            resolveBackend(info.param)));
    });

} // namespace
} // namespace cronus::tee
