/**
 * @file
 * ReplayLog tests (src/recover/): the watermark + journal rule on
 * its own -- seal() advancing the watermark, the auto-checkpoint
 * cadence, and respawn() building (or refusing to build) the fresh
 * enclave, including from a corrupted sealed blob.
 */

#include "../core/test_fixtures.hh"
#include "recover/replay_log.hh"

namespace cronus::recover
{
namespace
{

using core::AppHandle;

class ReplayLogTest : public core::testing::CronusTest
{
  protected:
    Result<AppHandle>
    respawnCpu(const ReplayLog &log, const std::string &device = "")
    {
        return log.respawn(*system, core::testing::cpuManifest(),
                           "app.so", core::testing::cpuImageBytes(),
                           device);
    }

    static Bytes
    u64Args(uint64_t v)
    {
        ByteWriter w;
        w.putU64(v);
        return w.take();
    }

    Result<uint64_t>
    accumulate(AppHandle &h, uint64_t delta)
    {
        auto r = system->ecall(h, "accumulate", u64Args(delta));
        if (!r.isOk())
            return r.status();
        ByteReader rd(r.value());
        return rd.getU64();
    }

    static const crypto::Digest &
    measurementOf(const AppHandle &h)
    {
        return h.host->enclaveManager().enclave(h.eid).value()
            ->measure();
    }
};

TEST_F(ReplayLogTest, SealEmptiesJournalAndResetsCadence)
{
    ReplayLog log(3);
    EXPECT_FALSE(log.hasWatermark());
    log.record("accumulate", u64Args(1));
    log.ack();
    log.record("accumulate", u64Args(2));
    log.ack();
    ASSERT_EQ(log.journal().size(), 2u);
    EXPECT_EQ(log.journal()[1].fn, "accumulate");
    EXPECT_EQ(log.journal()[1].args, u64Args(2));

    log.seal(Bytes{1, 2, 3}, Bytes{9});
    EXPECT_TRUE(log.hasWatermark());
    EXPECT_TRUE(log.journal().empty());
    /* The blob alone is on the wire now. */
    EXPECT_EQ(log.wireBytes(), 3u);

    /* The two acks before the seal no longer count: a full cadence
     * of three is needed again. */
    log.ack();
    log.ack();
    EXPECT_FALSE(log.checkpointDue());
    log.ack();
    EXPECT_TRUE(log.checkpointDue());
}

TEST_F(ReplayLogTest, CheckpointDueEveryNAckedCalls)
{
    ReplayLog log(4);
    std::vector<int> due_at;
    for (int call = 1; call <= 12; ++call) {
        log.record("accumulate", u64Args(call));
        log.ack();
        if (log.checkpointDue()) {
            due_at.push_back(call);
            log.seal(Bytes{1}, Bytes{});
        }
    }
    EXPECT_EQ(due_at, (std::vector<int>{4, 8, 12}));

    ReplayLog manual(0);
    for (int call = 1; call <= 100; ++call) {
        manual.ack();
        EXPECT_FALSE(manual.checkpointDue()) << "call " << call;
    }
}

TEST_F(ReplayLogTest, DropForgetsOneEntryAndKeepsOrder)
{
    ReplayLog log;
    for (uint64_t v = 1; v <= 3; ++v)
        log.record("accumulate", u64Args(v));
    log.drop(1);
    ASSERT_EQ(log.journal().size(), 2u);
    EXPECT_EQ(log.journal()[0].args, u64Args(1));
    EXPECT_EQ(log.journal()[1].args, u64Args(3));
}

TEST_F(ReplayLogTest, RespawnWithEmptyLogMatchesCreateEnclave)
{
    auto plain = makeCpuEnclave();
    ASSERT_TRUE(plain.isOk());
    ReplayLog log;
    auto fresh = respawnCpu(log);
    ASSERT_TRUE(fresh.isOk()) << fresh.status().toString();
    EXPECT_EQ(measurementOf(fresh.value()),
              measurementOf(plain.value()));
    /* Nothing was restored: the state starts empty. */
    EXPECT_EQ(accumulate(fresh.value(), 5).value(), 5u);
}

TEST_F(ReplayLogTest, RespawnFromCorruptedBlobFailsAndLeavesNoCopy)
{
    auto h = makeCpuEnclave();
    ASSERT_TRUE(h.isOk());
    ASSERT_TRUE(accumulate(h.value(), 7).isOk());
    auto blob = system->checkpointEnclave(h.value());
    ASSERT_TRUE(blob.isOk());
    Bytes corrupted = blob.value();
    ASSERT_FALSE(corrupted.empty());
    corrupted[corrupted.size() / 2] ^= 0x5a;
    ReplayLog log;
    log.seal(corrupted, h.value().secret);

    core::MicroOS *host = h.value().host;
    const size_t before = host->enclaveManager().enclaveCount();
    auto fresh = respawnCpu(log, host->deviceName());
    EXPECT_FALSE(fresh.isOk());
    /* The copy respawn created for the restore is gone again. */
    EXPECT_EQ(host->enclaveManager().enclaveCount(), before);
    /* The original is untouched. */
    EXPECT_EQ(accumulate(h.value(), 1).value(), 8u);
}

} // namespace
} // namespace cronus::recover
