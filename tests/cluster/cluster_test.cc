/**
 * @file
 * Fleet-level suites for src/cluster/: placement sharding
 * determinism, migrate-under-load acked-call preservation,
 * drain-with-budget-exhaustion fleet quarantine, and
 * interconnect-partition liveness. Every case runs on both
 * isolation substrates (TrustZone and RISC-V PMP) via the
 * value-parameterized fixture.
 */

#include <gtest/gtest.h>

#include "../core/test_fixtures.hh"
#include "cluster/cluster.hh"

using namespace cronus;
using namespace cronus::cluster;

namespace
{

class ClusterBackendTest
    : public ::testing::TestWithParam<tee::BackendSelect>
{
  protected:
    /** Build a CPU-only fleet of @p num_nodes SoCs. */
    void
    build(uint32_t num_nodes, uint32_t auto_ckpt = 0)
    {
        Logger::instance().setQuiet(true);
        core::testing::registerTestCpuFunctions();
        ClusterConfig cc;
        cc.numNodes = num_nodes;
        cc.nodeSystem.numGpus = 0;
        cc.nodeSystem.withNpu = false;
        cc.nodeSystem.backend = GetParam();
        /* Room for every enclave plus a transient migration copy on
         * one node (tests deliberately pile enclaves up). */
        cc.nodeSystem.partitionMemBytes = 64ull << 20;
        cc.autoCheckpointEvery = auto_ckpt;
        cl = std::make_unique<Cluster>(cc);
    }

    Result<Fid>
    place()
    {
        return cl->placeEnclave(core::testing::cpuManifest(),
                                "app.so",
                                core::testing::cpuImageBytes());
    }

    /** accumulate(delta) on @p fid; returns the running total. */
    Result<uint64_t>
    acc(Fid fid, uint64_t delta)
    {
        ByteWriter w;
        w.putU64(delta);
        auto r = cl->call(fid, "accumulate", w.take());
        if (!r.isOk())
            return r.status();
        ByteReader rd(r.value());
        return rd.getU64();
    }

    /** Enclaves the node's mOSes actually hold (every copy, live
     *  or orphaned). */
    size_t
    enclavesHostedOn(NodeId id)
    {
        size_t n = 0;
        for (core::MicroOS *os : cl->node(id).system().allMos())
            n += os->enclaveManager().enclaveCount();
        return n;
    }

    NodeId
    hostOf(Fid fid)
    {
        auto n = cl->nodeOf(fid);
        EXPECT_TRUE(n.isOk());
        return n.isOk() ? n.value() : kFrontend;
    }

    std::unique_ptr<Cluster> cl;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, ClusterBackendTest,
    ::testing::Values(tee::BackendSelect::Tz,
                      tee::BackendSelect::Pmp),
    [](const ::testing::TestParamInfo<tee::BackendSelect> &info) {
        return std::string(
            tee::backendName(tee::resolveBackend(info.param)));
    });

} // namespace

/* ---------------- placement sharding ---------------- */

TEST_P(ClusterBackendTest, PlacementShardsLeastLoadedDeterministic)
{
    build(4);
    std::vector<NodeId> got;
    for (int i = 0; i < 8; ++i) {
        auto fid = place();
        ASSERT_TRUE(fid.isOk()) << fid.status().toString();
        got.push_back(hostOf(fid.value()));
    }
    /* Least-loaded with lowest-id ties: two clean round-robins. */
    std::vector<NodeId> want = {0, 1, 2, 3, 0, 1, 2, 3};
    EXPECT_EQ(got, want);
    EXPECT_EQ(cl->placements, 8u);

    /* A second identically-shaped fleet shards identically --
     * placement is a pure function of (healths, loads). */
    auto first = std::move(cl);
    build(4);
    std::vector<NodeId> again;
    for (int i = 0; i < 8; ++i) {
        auto fid = place();
        ASSERT_TRUE(fid.isOk());
        again.push_back(hostOf(fid.value()));
    }
    EXPECT_EQ(again, got);
}

TEST_P(ClusterBackendTest, PlacementSkipsDownAndPenalizesDegraded)
{
    build(3);
    ASSERT_TRUE(cl->killNode(1).isOk());
    cl->node(2).setHealth(NodeHealth::Degraded);
    /* Node 1 is Down (hard skip); node 2 is Degraded (usable but
     * deprioritized): everything lands on node 0. */
    for (int i = 0; i < 3; ++i) {
        auto fid = place();
        ASSERT_TRUE(fid.isOk());
        EXPECT_EQ(hostOf(fid.value()), 0u);
    }
}

TEST_P(ClusterBackendTest, DegradedNodeIsLastResort)
{
    build(2);
    cl->node(0).setHealth(NodeHealth::Degraded);
    /* Healthy node 1 wins every placement despite the id tie-break
     * favouring 0. */
    for (int i = 0; i < 3; ++i) {
        auto fid = place();
        ASSERT_TRUE(fid.isOk());
        EXPECT_EQ(hostOf(fid.value()), 1u);
    }
    /* With node 1 gone, the Degraded node still takes work. */
    ASSERT_TRUE(cl->killNode(1).isOk());
    cl->pump();
    auto fid = place();
    ASSERT_TRUE(fid.isOk()) << fid.status().toString();
    EXPECT_EQ(hostOf(fid.value()), 0u);
}

/* ---------------- calls + journal ---------------- */

TEST_P(ClusterBackendTest, CallsRouteAndJournal)
{
    build(2);
    auto fid = place();
    ASSERT_TRUE(fid.isOk());
    EXPECT_EQ(acc(fid.value(), 10).value(), 10u);
    EXPECT_EQ(acc(fid.value(), 20).value(), 30u);
    EXPECT_EQ(acc(fid.value(), 12).value(), 42u);
    EXPECT_EQ(cl->ackedCalls(fid.value()), 3u);
    EXPECT_GT(cl->interconnect().messages, 0u);
    EXPECT_GT(cl->interconnect().bytesMoved, 0u);
}

TEST_P(ClusterBackendTest, CallToUnknownFidIsNotFound)
{
    build(2);
    ByteWriter w;
    w.putU64(1);
    EXPECT_EQ(cl->call(999, "accumulate", w.take()).code(),
              ErrorCode::NotFound);
}

/* ---------------- migration ---------------- */

TEST_P(ClusterBackendTest, MigrateUnderLoadPreservesAckedCalls)
{
    build(2);
    auto fid = place();
    ASSERT_TRUE(fid.isOk());
    ASSERT_EQ(hostOf(fid.value()), 0u);

    EXPECT_EQ(acc(fid.value(), 10).value(), 10u);
    EXPECT_EQ(acc(fid.value(), 20).value(), 30u);
    ASSERT_TRUE(cl->checkpoint(fid.value()).isOk());
    /* One post-watermark call: exactly this much must replay. */
    EXPECT_EQ(acc(fid.value(), 5).value(), 35u);

    Status s = cl->migrateEnclave(fid.value(), 1);
    ASSERT_TRUE(s.isOk()) << s.toString();
    EXPECT_EQ(hostOf(fid.value()), 1u);
    EXPECT_EQ(cl->migrationsCompleted, 1u);

    ASSERT_EQ(cl->migrations().size(), 1u);
    const MigrationAudit &a = cl->migrations().front();
    EXPECT_EQ(a.outcome, "completed");
    EXPECT_EQ(a.src, 0u);
    EXPECT_EQ(a.dst, 1u);
    EXPECT_EQ(a.replayedCalls, 1u);
    EXPECT_TRUE(a.converged());
    EXPECT_FALSE(a.srcAlive);
    EXPECT_TRUE(a.dstAlive);

    /* The running total -- watermark + replayed journal -- survived
     * the move bit-for-bit. */
    EXPECT_EQ(acc(fid.value(), 7).value(), 42u);
    EXPECT_EQ(cl->ackedCalls(fid.value()), 4u);
}

TEST_P(ClusterBackendTest, SelfMigrationLeavesOneCopy)
{
    build(2);
    auto fid = place();
    ASSERT_TRUE(fid.isOk());
    const NodeId home = hostOf(fid.value());
    EXPECT_EQ(acc(fid.value(), 10).value(), 10u);
    ASSERT_TRUE(cl->checkpoint(fid.value()).isOk());
    EXPECT_EQ(acc(fid.value(), 5).value(), 15u);
    const size_t before = enclavesHostedOn(home);
    ASSERT_EQ(before, 1u);

    /* Migrating onto the node it already lives on rebuilds the
     * enclave there; the old copy must die at Retire. */
    Status s = cl->migrateEnclave(fid.value(), home);
    ASSERT_TRUE(s.isOk()) << s.toString();
    EXPECT_EQ(hostOf(fid.value()), home);
    EXPECT_EQ(enclavesHostedOn(home), before);
    EXPECT_EQ(cl->node(home).liveEnclaves, 1u);
    ASSERT_EQ(cl->migrations().size(), 1u);
    EXPECT_EQ(cl->migrations().front().outcome, "completed");
    EXPECT_TRUE(cl->migrations().front().converged());

    /* The surviving copy carries watermark + replayed journal. */
    EXPECT_TRUE(cl->enclaveAlive(fid.value()));
    EXPECT_EQ(acc(fid.value(), 7).value(), 22u);
}

TEST_P(ClusterBackendTest, MigrateToDownNodeAbortsAtSnapshot)
{
    build(3);
    auto fid = place();
    ASSERT_TRUE(fid.isOk());
    ASSERT_EQ(hostOf(fid.value()), 0u);
    EXPECT_EQ(acc(fid.value(), 9).value(), 9u);
    ASSERT_TRUE(cl->killNode(2).isOk());

    Status s = cl->migrateEnclave(fid.value(), 2);
    EXPECT_EQ(s.code(), ErrorCode::InvalidState);
    EXPECT_EQ(cl->migrationsAborted, 1u);
    ASSERT_EQ(cl->migrations().size(), 1u);
    const MigrationAudit &a = cl->migrations().front();
    EXPECT_EQ(a.outcome.rfind("aborted:snapshot", 0), 0u);
    EXPECT_TRUE(a.srcAlive);
    EXPECT_FALSE(a.dstAlive);

    /* The source copy is untouched by the aborted attempt. */
    EXPECT_TRUE(cl->enclaveAlive(fid.value()));
    EXPECT_EQ(acc(fid.value(), 1).value(), 10u);
}

TEST_P(ClusterBackendTest, AutoCheckpointBoundsReplay)
{
    build(2, /*auto_ckpt=*/2);
    auto fid = place();
    ASSERT_TRUE(fid.isOk());
    /* 5 acked calls with a watermark every 2: at most one call sits
     * in the journal when the migration snapshots. */
    uint64_t want = 0;
    for (uint64_t d = 1; d <= 5; ++d) {
        want += d;
        EXPECT_EQ(acc(fid.value(), d).value(), want);
    }
    ASSERT_TRUE(cl->migrateEnclave(fid.value(), 1).isOk());
    ASSERT_EQ(cl->migrations().size(), 1u);
    EXPECT_LE(cl->migrations().front().replayedCalls, 1u);
    EXPECT_EQ(acc(fid.value(), 10).value(), want + 10);
}

/* ---------------- node kill / recover ---------------- */

TEST_P(ClusterBackendTest, NodeLossRecoversEnclavesWithoutAckedLoss)
{
    build(2);
    auto fid = place();
    ASSERT_TRUE(fid.isOk());
    ASSERT_EQ(hostOf(fid.value()), 0u);
    EXPECT_EQ(acc(fid.value(), 10).value(), 10u);
    EXPECT_EQ(acc(fid.value(), 20).value(), 30u);

    ASSERT_TRUE(cl->killNode(0).isOk());
    cl->pump();
    /* The fleet sweep re-placed the enclave from watermark+journal
     * on the surviving node; no acked call was lost. */
    EXPECT_TRUE(cl->enclaveAlive(fid.value()));
    EXPECT_EQ(hostOf(fid.value()), 1u);
    EXPECT_GE(cl->replacements, 1u);
    EXPECT_EQ(acc(fid.value(), 12).value(), 42u);

    ASSERT_TRUE(cl->recoverNode(0).isOk());
    EXPECT_EQ(cl->node(0).health(), NodeHealth::Healthy);
}

TEST_P(ClusterBackendTest, KillRefusesLastUsableNodeAndIsIdempotent)
{
    build(2);
    ASSERT_TRUE(cl->killNode(0).isOk());
    EXPECT_EQ(cl->killNode(1).code(), ErrorCode::InvalidState);
    EXPECT_TRUE(cl->killNode(0).isOk());  // Down -> Ok, idempotent
    EXPECT_EQ(cl->killNode(7).code(), ErrorCode::InvalidArgument);
}

/* ---------------- drain ---------------- */

TEST_P(ClusterBackendTest, DrainEvacuatesUnderUnlimitedBudget)
{
    build(3);
    std::vector<Fid> fids;
    for (int i = 0; i < 4; ++i) {
        auto fid = place();
        ASSERT_TRUE(fid.isOk());
        fids.push_back(fid.value());
    }
    /* Least-loaded: 0,1,2,0 -- node 0 hosts two enclaves. */
    ASSERT_EQ(cl->enclavesOn(0).size(), 2u);

    Status s = cl->drainNode(0, DrainBudget{});
    ASSERT_TRUE(s.isOk()) << s.toString();
    EXPECT_TRUE(cl->enclavesOn(0).empty());
    EXPECT_EQ(cl->drains, 1u);
    EXPECT_EQ(cl->fleetQuarantines, 0u);
    /* A clean drain leaves the node usable (maintenance, not
     * punishment). */
    EXPECT_TRUE(cl->node(0).placeable());
    for (Fid fid : fids)
        EXPECT_TRUE(cl->enclaveAlive(fid));
    EXPECT_EQ(cl->migrationsCompleted, 2u);
}

TEST_P(ClusterBackendTest, DrainBudgetExhaustionFleetQuarantines)
{
    build(3);
    std::vector<Fid> fids;
    for (int i = 0; i < 5; ++i) {
        auto fid = place();
        ASSERT_TRUE(fid.isOk());
        fids.push_back(fid.value());
    }
    ASSERT_EQ(cl->enclavesOn(0).size(), 2u);

    DrainBudget tight;
    tight.maxMigrations = 1;
    Status s = cl->drainNode(0, tight);
    ASSERT_TRUE(s.isOk()) << s.toString();
    /* One live migration, then the budget ran dry: the fleet
     * quarantined the node and re-placed the remainder cold. */
    EXPECT_EQ(cl->migrationsCompleted, 1u);
    EXPECT_EQ(cl->fleetQuarantines, 1u);
    EXPECT_EQ(cl->node(0).health(), NodeHealth::Quarantined);
    EXPECT_TRUE(cl->enclavesOn(0).empty());
    for (Fid fid : fids)
        EXPECT_TRUE(cl->enclaveAlive(fid));

    /* Quarantine is terminal: no recovery, no placements. */
    EXPECT_EQ(cl->recoverNode(0).code(), ErrorCode::Degraded);
    auto fid = place();
    ASSERT_TRUE(fid.isOk());
    EXPECT_NE(hostOf(fid.value()), 0u);
}

TEST_P(ClusterBackendTest, DrainRefusesLastUsableNode)
{
    build(2);
    ASSERT_TRUE(cl->killNode(0).isOk());
    EXPECT_EQ(cl->drainNode(1, DrainBudget{}).code(),
              ErrorCode::InvalidState);
    /* Draining an already-Down node is trivially fine. */
    EXPECT_TRUE(cl->drainNode(0, DrainBudget{}).isOk());
}

/* ---------------- interconnect ---------------- */

TEST_P(ClusterBackendTest, PartitionedFrontendLinkFailsCallsThenHeals)
{
    build(2);
    auto fid = place();
    ASSERT_TRUE(fid.isOk());
    ASSERT_EQ(hostOf(fid.value()), 0u);
    EXPECT_EQ(acc(fid.value(), 10).value(), 10u);

    cl->partitionLink(kFrontend, 0, true);
    auto r = acc(fid.value(), 5);
    EXPECT_EQ(r.code(), ErrorCode::PeerFailed);
    EXPECT_GT(cl->interconnect().partitionedDrops, 0u);
    /* The failed call was never acked, so it is not journaled. */
    EXPECT_EQ(cl->ackedCalls(fid.value()), 1u);

    cl->partitionLink(kFrontend, 0, false);
    EXPECT_EQ(acc(fid.value(), 5).value(), 15u);
    EXPECT_EQ(cl->ackedCalls(fid.value()), 2u);
}

TEST_P(ClusterBackendTest, PartitionedPeerLinkAbortsMigrationSafely)
{
    build(2);
    auto fid = place();
    ASSERT_TRUE(fid.isOk());
    ASSERT_EQ(hostOf(fid.value()), 0u);
    EXPECT_EQ(acc(fid.value(), 10).value(), 10u);

    cl->partitionLink(0, 1, true);
    Status s = cl->migrateEnclave(fid.value(), 1);
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(cl->migrationsAborted, 1u);
    ASSERT_EQ(cl->migrations().size(), 1u);
    EXPECT_TRUE(cl->migrations().front().srcAlive);
    EXPECT_FALSE(cl->migrations().front().dstAlive);
    /* Liveness across the partition: the source copy keeps
     * serving. */
    EXPECT_EQ(acc(fid.value(), 2).value(), 12u);

    cl->partitionLink(0, 1, false);
    ASSERT_TRUE(cl->migrateEnclave(fid.value(), 1).isOk());
    EXPECT_EQ(hostOf(fid.value()), 1u);
    EXPECT_EQ(acc(fid.value(), 3).value(), 15u);
}

TEST_P(ClusterBackendTest, NodesCarryDistinctAttestedIdentities)
{
    build(2);
    NodeCredential c0 = cl->node(0).credential();
    NodeCredential c1 = cl->node(1).credential();
    EXPECT_EQ(c0.name, "node0");
    EXPECT_EQ(c1.name, "node1");
    /* Per-node RoT seeds: fleet peers must not share keys. */
    EXPECT_NE(c0.rotKey.toBytes(), c1.rotKey.toBytes());

    EXPECT_TRUE(cl->interconnect().ensureAttested(0, 1).isOk());
    EXPECT_TRUE(cl->interconnect().ensureAttested(1, 0).isOk());
}

TEST_P(ClusterBackendTest, ForgedCredentialIsRefused)
{
    build(3);
    /* An impostor presents node 1's endorsement under a different
     * name: the RoT signature no longer covers the message. */
    NodeCredential forged = cl->node(1).credential();
    forged.name = "evil";
    cl->interconnect().registerNode(2, forged);
    uint64_t refusals = cl->interconnect().refusals;
    EXPECT_EQ(cl->interconnect().ensureAttested(0, 2).code(),
              ErrorCode::AuthFailed);
    EXPECT_GT(cl->interconnect().refusals, refusals);

    /* A consistent credential whose machine measurement is not in
     * the fleet's trusted set: signature fine, membership not. */
    crypto::KeyPair rogueRot =
        crypto::deriveKeyPair(toBytes("rogue-rot"));
    NodeCredential rogue = cl->node(2).credential();
    rogue.dtMeasurement[0] ^= 0xff;
    rogue.rotKey = rogueRot.pub;
    rogue.endorsement =
        crypto::sign(rogueRot, rogue.signedMessage());
    cl->interconnect().registerNode(2, rogue);
    EXPECT_EQ(cl->interconnect().ensureAttested(0, 2).code(),
              ErrorCode::PermissionDenied);

    /* Re-presenting the genuine credential heals the link. */
    cl->interconnect().registerNode(2, cl->node(2).credential());
    EXPECT_TRUE(cl->interconnect().ensureAttested(0, 2).isOk());
}
