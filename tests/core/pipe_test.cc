/** Tests for SharedPipe and sealed checkpoints. */

#include "test_fixtures.hh"

#include "core/pipe.hh"

namespace cronus::core
{
namespace
{

using testing::CronusTest;

class PipeTest : public CronusTest
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
        EXPECT_TRUE(pipe.isOk()) << pipe.status().toString();
        return std::move(pipe.value());
    }

    AppHandle cpu, gpu;
};

TEST_F(PipeTest, WriteReadRoundTrip)
{
    auto pipe = makePipe();
    Bytes msg = toBytes("gradient shard #1");
    auto wrote = pipe->write(msg);
    ASSERT_TRUE(wrote.isOk());
    EXPECT_EQ(wrote.value(), msg.size());
    EXPECT_EQ(pipe->available().value(), msg.size());
    auto got = pipe->read(1024);
    ASSERT_TRUE(got.isOk());
    EXPECT_EQ(got.value(), msg);
    EXPECT_EQ(pipe->available().value(), 0u);
}

TEST_F(PipeTest, PartialReadsPreserveOrder)
{
    auto pipe = makePipe();
    ASSERT_TRUE(pipe->write(toBytes("abcdefgh")).isOk());
    EXPECT_EQ(pipe->read(3).value(), toBytes("abc"));
    ASSERT_TRUE(pipe->write(toBytes("XYZ")).isOk());
    EXPECT_EQ(pipe->read(100).value(), toBytes("defghXYZ"));
}

TEST_F(PipeTest, WrapsAroundCapacity)
{
    PipeConfig config;
    config.capacity = 4096;  /* rounds up to one page minus header */
    auto pipe = makePipe(config);
    Rng rng(3);
    Bytes chunk(1500);
    for (int round = 0; round < 20; ++round) {
        rng.fill(chunk);
        auto wrote = pipe->write(chunk);
        ASSERT_TRUE(wrote.isOk());
        ASSERT_EQ(wrote.value(), chunk.size());
        auto got = pipe->read(chunk.size());
        ASSERT_TRUE(got.isOk());
        EXPECT_EQ(got.value(), chunk) << "round " << round;
    }
}

TEST_F(PipeTest, BackpressureWhenFull)
{
    PipeConfig config;
    config.capacity = 4096;
    auto pipe = makePipe(config);
    uint64_t cap = 0;
    /* Fill to capacity. */
    for (;;) {
        auto wrote = pipe->write(Bytes(1024, 1));
        ASSERT_TRUE(wrote.isOk());
        cap += wrote.value();
        if (wrote.value() < 1024)
            break;
    }
    EXPECT_GT(cap, 0u);
    /* Full: zero accepted. */
    EXPECT_EQ(pipe->write(Bytes(16, 2)).value(), 0u);
    /* Drain frees space. */
    ASSERT_TRUE(pipe->read(512).isOk());
    EXPECT_EQ(pipe->write(Bytes(512, 3)).value(), 512u);
}

TEST_F(PipeTest, EndOfStream)
{
    auto pipe = makePipe();
    ASSERT_TRUE(pipe->write(toBytes("tail")).isOk());
    ASSERT_TRUE(pipe->closeWrite().isOk());
    EXPECT_EQ(pipe->closeWrite().code(), ErrorCode::InvalidState);
    EXPECT_FALSE(pipe->endOfStream().value());  /* data pending */
    EXPECT_EQ(pipe->read(64).value(), toBytes("tail"));
    EXPECT_TRUE(pipe->endOfStream().value());
    EXPECT_EQ(pipe->write(toBytes("x")).code(),
              ErrorCode::InvalidState);
}

TEST_F(PipeTest, DcheckRejectsWrongSecret)
{
    auto bad = SharedPipe::create(*cpu.host, cpu.eid, *gpu.host,
                                  gpu.eid, Bytes(32, 0x9),
                                  PipeConfig());
    EXPECT_EQ(bad.code(), ErrorCode::AuthFailed);
}

TEST_F(PipeTest, FailedDcheckReleasesItsGrant)
{
    tee::PartitionId writer = cpu.host->partitionId();
    size_t before = system->spm().grantsOf(writer).size();
    auto bad = SharedPipe::create(*cpu.host, cpu.eid, *gpu.host,
                                  gpu.eid, Bytes(32, 0x9),
                                  PipeConfig());
    ASSERT_EQ(bad.code(), ErrorCode::AuthFailed);
    EXPECT_EQ(system->spm().grantsOf(writer).size(), before);
}

TEST_F(PipeTest, DestroyedPipeReleasesItsGrant)
{
    tee::PartitionId writer = cpu.host->partitionId();
    size_t before = system->spm().grantsOf(writer).size();
    auto pipe = makePipe();
    ASSERT_TRUE(pipe->write(toBytes("bye")).isOk());
    EXPECT_EQ(system->spm().grantsOf(writer).size(), before + 1);
    pipe.reset();
    EXPECT_EQ(system->spm().grantsOf(writer).size(), before);
}

TEST_F(PipeTest, PeerFailureTrapsInsteadOfStaleData)
{
    auto pipe = makePipe();
    ASSERT_TRUE(pipe->write(toBytes("in flight")).isOk());
    ASSERT_TRUE(system->injectPanic("gpu0").isOk());
    /* Reader side died; writer's next access traps. */
    auto r = pipe->write(toBytes("more"));
    EXPECT_EQ(r.code(), ErrorCode::PeerFailed);
    EXPECT_TRUE(pipe->failed());
}

class CheckpointTest : public CronusTest
{
};

TEST_F(CheckpointTest, RoundTripSameEnclave)
{
    auto handle = makeCpuEnclave().value();
    ByteWriter w;
    w.putU64(41);
    ASSERT_TRUE(system->ecall(handle, "accumulate",
                              w.data()).isOk());

    auto sealed = system->checkpointEnclave(handle);
    ASSERT_TRUE(sealed.isOk()) << sealed.status().toString();

    /* Mutate further, then roll back to the checkpoint. */
    ASSERT_TRUE(system->ecall(handle, "accumulate",
                              w.data()).isOk());
    ASSERT_TRUE(system->restoreEnclave(handle, sealed.value(),
                                       handle.secret).isOk());

    ByteWriter one;
    one.putU64(1);
    auto total = system->ecall(handle, "accumulate", one.data());
    ASSERT_TRUE(total.isOk());
    ByteReader r(total.value());
    EXPECT_EQ(r.getU64().value(), 42u);
}

TEST_F(CheckpointTest, SurvivesPartitionFailure)
{
    auto victim = makeCpuEnclave().value();
    ByteWriter w;
    w.putU64(1000);
    ASSERT_TRUE(system->ecall(victim, "accumulate",
                              w.data()).isOk());
    auto sealed = system->checkpointEnclave(victim);
    ASSERT_TRUE(sealed.isOk());

    /* The CPU partition crashes and is recovered: the enclave and
     * all its state are gone. */
    ASSERT_TRUE(system->injectPanic("cpu0").isOk());
    ASSERT_TRUE(system->recover("cpu0").isOk());
    EXPECT_EQ(system->ecall(victim, "accumulate", w.data()).code(),
              ErrorCode::NotFound);

    /* The owner restores the sealed state into a fresh enclave. */
    auto fresh = makeCpuEnclave().value();
    ASSERT_TRUE(system->restoreEnclave(fresh, sealed.value(),
                                       victim.secret).isOk());
    ByteWriter delta;
    delta.putU64(24);
    auto total = system->ecall(fresh, "accumulate", delta.data());
    ASSERT_TRUE(total.isOk());
    ByteReader r(total.value());
    EXPECT_EQ(r.getU64().value(), 1024u);
}

TEST_F(CheckpointTest, TamperedCheckpointRejected)
{
    auto handle = makeCpuEnclave().value();
    auto sealed = system->checkpointEnclave(handle);
    ASSERT_TRUE(sealed.isOk());
    Bytes tampered = sealed.value();
    tampered[tampered.size() / 2] ^= 1;
    EXPECT_FALSE(system->restoreEnclave(handle, tampered,
                                        handle.secret).isOk());
}

TEST_F(CheckpointTest, WrongSecretCannotOpen)
{
    auto handle = makeCpuEnclave().value();
    auto sealed = system->checkpointEnclave(handle);
    ASSERT_TRUE(sealed.isOk());
    EXPECT_EQ(system->restoreEnclave(handle, sealed.value(),
                                     Bytes(32, 0x1)).code(),
              ErrorCode::IntegrityViolation);
}

TEST_F(CheckpointTest, GpuEnclaveRoundTripsDeviceMemory)
{
    /* GPU snapshots capture the enclave's device allocations; a
     * restore re-mallocs them in VA order, which requires a *fresh*
     * context -- the reconnect path always restores into a newly
     * created enclave, and that is the shape tested here. */
    auto gpu = makeGpuEnclave().value();
    auto va = system->ecall(gpu, "cuMemAlloc",
                            CudaRuntime::encodeMemAlloc(16));
    ASSERT_TRUE(va.isOk());
    uint64_t ptr = CudaRuntime::decodeU64Result(va.value()).value();
    Bytes fill(16, 0xAB);
    ASSERT_TRUE(system->ecall(gpu, "cuMemcpyHtoD",
                              CudaRuntime::encodeMemcpyHtoD(
                                  ptr, fill)).isOk());
    ASSERT_TRUE(system->ecall(gpu, "cuCtxSynchronize",
                              Bytes{}).isOk());

    auto sealed = system->checkpointEnclave(gpu);
    ASSERT_TRUE(sealed.isOk()) << sealed.status().toString();

    /* The old enclave dies with its partition; a fresh enclave on
     * the recovered incarnation restores the sealed snapshot. */
    ASSERT_TRUE(system->injectPanic("gpu0").isOk());
    ASSERT_TRUE(system->recover("gpu0").isOk());
    auto fresh = makeGpuEnclave().value();
    ASSERT_TRUE(system->restoreEnclave(fresh, sealed.value(),
                                       gpu.secret).isOk());

    /* A fresh context re-mallocs in ascending VA order, so the
     * snapshot's VAs are reproduced exactly. */
    auto back = system->ecall(fresh, "cuMemcpyDtoH",
                              CudaRuntime::encodeMemcpyDtoH(ptr, 16));
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), fill);
}

} // namespace
} // namespace cronus::core
