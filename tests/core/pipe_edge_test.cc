/**
 * @file
 * SharedPipe crash edges: a partition dying mid-message must surface
 * PeerFailed to the surviving end (never a torn message), the
 * failure latches on the pipe even after the partition recovers, and
 * degenerate transfers (zero-length, empty ring) stay well-defined.
 */

#include "test_fixtures.hh"

#include "core/pipe.hh"

namespace cronus::core
{
namespace
{

using testing::CronusTest;

class PipeEdgeTest : public CronusTest
{
  protected:
    void
    SetUp() override
    {
        CronusTest::SetUp();
        cpu = makeCpuEnclave().value();
        gpu = makeGpuEnclave().value();
    }

    std::unique_ptr<SharedPipe>
    makePipe(const PipeConfig &config = PipeConfig())
    {
        auto pipe = SharedPipe::create(*cpu.host, cpu.eid,
                                       *gpu.host, gpu.eid,
                                       gpu.secret, config);
        EXPECT_TRUE(pipe.isOk());
        return std::move(pipe.value());
    }

    AppHandle cpu;
    AppHandle gpu;
};

TEST_F(PipeEdgeTest, WriterCrashMidMessageSurfacesPeerFailed)
{
    auto pipe = makePipe();

    /* First half of a 20-byte message lands... */
    Bytes first(10, 0xaa);
    auto accepted = pipe->write(first);
    ASSERT_TRUE(accepted.isOk());
    EXPECT_EQ(accepted.value(), 10u);

    /* ...then the writer's partition dies before the second half. */
    ASSERT_TRUE(system->injectPanic("cpu0").isOk());

    /* The reader does not get a torn message: its next ring access
     * traps and surfaces PeerFailed. */
    auto r = pipe->read(20);
    EXPECT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), ErrorCode::PeerFailed);
    EXPECT_TRUE(pipe->failed());

    /* The failure latches: even after the partition recovers, this
     * pipe instance stays dead (its grant died with the old
     * incarnation). */
    ASSERT_TRUE(system->recover("cpu0").isOk());
    auto after = pipe->read(20);
    EXPECT_FALSE(after.isOk());
    EXPECT_EQ(after.status().code(), ErrorCode::PeerFailed);
    EXPECT_FALSE(pipe->write(Bytes{0x01}).isOk());
}

TEST_F(PipeEdgeTest, ReaderCrashFailsSubsequentWrites)
{
    auto pipe = makePipe();
    ASSERT_TRUE(pipe->write(Bytes(8, 0x42)).isOk());

    ASSERT_TRUE(system->injectPanic("gpu0").isOk());

    auto w = pipe->write(Bytes(8, 0x43));
    EXPECT_FALSE(w.isOk());
    EXPECT_EQ(w.status().code(), ErrorCode::PeerFailed);
    EXPECT_TRUE(pipe->failed());
}

TEST_F(PipeEdgeTest, CloseWriteAfterReaderCrashLatchesFailure)
{
    auto pipe = makePipe();
    ASSERT_TRUE(system->injectPanic("gpu0").isOk());

    /* The writer's first access after the crash is the close flag:
     * it traps, and the pipe must remember that its peer is gone. */
    EXPECT_EQ(pipe->closeWrite().code(), ErrorCode::PeerFailed);
    EXPECT_TRUE(pipe->failed());
    EXPECT_EQ(pipe->write(Bytes{0x01}).code(), ErrorCode::PeerFailed);
}

TEST_F(PipeEdgeTest, DegenerateTransfersAreWellDefined)
{
    auto pipe = makePipe();

    /* Zero-length write accepts zero bytes. */
    auto w = pipe->write(Bytes{});
    ASSERT_TRUE(w.isOk());
    EXPECT_EQ(w.value(), 0u);

    /* Reading an empty pipe returns an empty chunk, not an error. */
    auto r = pipe->read(64);
    ASSERT_TRUE(r.isOk());
    EXPECT_TRUE(r.value().empty());

    /* Close-then-drain reaches end-of-stream exactly when the
     * buffered bytes are gone. */
    ASSERT_TRUE(pipe->write(Bytes(4, 0x07)).isOk());
    ASSERT_TRUE(pipe->closeWrite().isOk());
    auto eos = pipe->endOfStream();
    ASSERT_TRUE(eos.isOk());
    EXPECT_FALSE(eos.value());
    auto drained = pipe->read(64);
    ASSERT_TRUE(drained.isOk());
    EXPECT_EQ(drained.value().size(), 4u);
    eos = pipe->endOfStream();
    ASSERT_TRUE(eos.isOk());
    EXPECT_TRUE(eos.value());
}

} // namespace
} // namespace cronus::core
