/**
 * Fast-path regression tests: the sRPC polling loops (drain's
 * streamCheck, pump's Rid poll) and the shim spinlock must perform
 * exactly one in-place counter access per poll and zero heap
 * allocations. A global counting operator new catches any future
 * change that silently reintroduces per-poll Bytes temporaries --
 * which is why this suite owns its binary.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "../core/test_fixtures.hh"
#include "mos/shim_kernel.hh"

/* ---------------- counting allocator hook ---------------- */

namespace
{
std::atomic<uint64_t> gAllocCount{0};
}

void *
operator new(std::size_t n)
{
    ++gAllocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace cronus::core
{
namespace
{

class SrpcFastPathTest : public testing::CronusTest
{
  protected:
    void
    SetUp() override
    {
        CronusTest::SetUp();
        cpu = makeCpuEnclave().value();
        gpu = makeGpuEnclave().value();
        channel = std::move(system->connect(cpu, gpu).value());
        /* Warm every lazy path (context creation, first ring use). */
        auto warm = channel->call("cuCtxSynchronize", Bytes{});
        ASSERT_TRUE(warm.isOk()) << warm.status().toString();
        ASSERT_TRUE(channel->drain().isOk());
    }

    void
    TearDown() override
    {
        channel.reset();
        CronusTest::TearDown();
    }

    /** Count SPM accesses via the injection hook. */
    uint64_t
    installAccessCounter()
    {
        accesses = 0;
        system->spm().setAccessHook(
            [this](const tee::SpmAccess &) {
                ++accesses;
                return Status::ok();
            });
        return accesses;
    }

    AppHandle cpu, gpu;
    std::unique_ptr<SrpcChannel> channel;
    uint64_t accesses = 0;
};

TEST_F(SrpcFastPathTest, IdleDrainIsTwoCounterAccessesZeroAlloc)
{
    installAccessCounter();
    uint64_t alloc0 = gAllocCount.load();

    Status s = channel->drain();

    uint64_t allocs = gAllocCount.load() - alloc0;
    EXPECT_TRUE(s.isOk()) << s.toString();
    /* streamCheck = one Rid read + one Sid read, nothing else. */
    EXPECT_EQ(accesses, 2u);
    EXPECT_EQ(allocs, 0u);
}

TEST_F(SrpcFastPathTest, EmptyPumpIsOneCounterAccessZeroAlloc)
{
    installAccessCounter();
    uint64_t alloc0 = gAllocCount.load();

    uint64_t done = channel->pump(1);

    uint64_t allocs = gAllocCount.load() - alloc0;
    EXPECT_EQ(done, 0u);
    /* The executor poll is a single in-place Rid read. */
    EXPECT_EQ(accesses, 1u);
    EXPECT_EQ(allocs, 0u);
}

TEST_F(SrpcFastPathTest, SyncCallPollingAllocatesOnlyForPayload)
{
    /* A sync no-payload call: the enqueue writes headers straight
     * into the ring and the completion polls are counter reads; the
     * per-call allocations must stay O(1) (the executor's fn-string
     * and args buffers), not O(polls). */
    ASSERT_TRUE(channel->call("cuCtxSynchronize", Bytes{}).isOk());
    uint64_t alloc0 = gAllocCount.load();
    ASSERT_TRUE(channel->call("cuCtxSynchronize", Bytes{}).isOk());
    uint64_t allocs = gAllocCount.load() - alloc0;
    EXPECT_LE(allocs, 8u);
}

class SpinLockFastPathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Logger::instance().setQuiet(true);
        accel::registerBuiltinKernels();
        platform = std::make_unique<hw::Platform>();
        platform->registerDevice(
            std::make_unique<accel::GpuDevice>(), 40);
        monitor = std::make_unique<tee::SecureMonitor>(*platform);
        ASSERT_TRUE(monitor->bootAllSecure().isOk());
        spm = std::make_unique<tee::Spm>(*monitor);
        tee::MosImage image{"gpu0.mos", "gpu", toBytes("x")};
        pid = spm->createPartition(image, "gpu0", 4ull << 20)
                  .value();
        shim = std::make_unique<mos::ShimKernel>(*spm, pid);
        lock = shim->allocPages(1).value();
    }

    std::unique_ptr<hw::Platform> platform;
    std::unique_ptr<tee::SecureMonitor> monitor;
    std::unique_ptr<tee::Spm> spm;
    tee::PartitionId pid = 0;
    std::unique_ptr<mos::ShimKernel> shim;
    tee::PhysAddr lock = 0;
};

TEST_F(SpinLockFastPathTest, UncontendedLockUnlockZeroAlloc)
{
    /* Warm the page + TLB. */
    ASSERT_TRUE(shim->spinLock(lock).isOk());
    ASSERT_TRUE(shim->spinUnlock(lock).isOk());

    uint64_t alloc0 = gAllocCount.load();
    Status take = shim->spinLock(lock);
    Status give = shim->spinUnlock(lock);
    uint64_t allocs = gAllocCount.load() - alloc0;
    EXPECT_TRUE(take.isOk());
    EXPECT_TRUE(give.isOk());
    EXPECT_EQ(allocs, 0u);
}

TEST_F(SpinLockFastPathTest, ContendedSpinAllocatesNothingPerPoll)
{
    ASSERT_TRUE(shim->spinLock(lock).isOk());

    uint64_t seq = 0;
    spm->setAccessHook([&](const tee::SpmAccess &) {
        ++seq;
        return Status::ok();
    });
    uint64_t alloc0 = gAllocCount.load();
    Status s = shim->spinLock(lock);  /* spins out: 1024 polls */
    uint64_t allocs = gAllocCount.load() - alloc0;
    EXPECT_EQ(s.code(), ErrorCode::Timeout);
    EXPECT_EQ(seq, 1024u);
    /* Only the terminal Timeout status may allocate -- the cost must
     * not scale with the number of polls. */
    EXPECT_LE(allocs, 2u);
}

/* The bus byte counter counts accesses, not translation paths: with
 * the software TLB on, a ring access copies through a cached host
 * page; with it off, every access walks stage-2 and crosses the
 * bus. Both must report the same traffic and the same virtual time
 * (each machine boots with the setting, so the runs are identical). */
class BusAccountingTest : public ::testing::Test,
                          protected testing::CronusFixtureMixin
{
  protected:
    void
    TearDown() override
    {
        hw::TranslationCache::setGlobalEnable(tlbWas);
    }

    struct LoopResult
    {
        uint64_t busBytes = 0;  ///< bus_bytes_copied delta
        SimTime endNs = 0;      ///< virtual time after the loop
    };

    /** 100 sync calls over one channel, TLB @p tlb for the machine's
     *  whole life. */
    LoopResult
    callLoop(bool tlb)
    {
        hw::TranslationCache::setGlobalEnable(tlb);
        boot();
        AppHandle cpu = makeCpuEnclave().value();
        AppHandle gpu = makeGpuEnclave().value();
        auto channel = std::move(system->connect(cpu, gpu).value());
        hw::Platform &plat = system->platform();
        uint64_t bytes0 = plat.stats().value("bus_bytes_copied");
        for (int i = 0; i < 100; ++i)
            EXPECT_TRUE(
                channel->callSync("cuCtxSynchronize", Bytes{}).isOk());
        return {plat.stats().value("bus_bytes_copied") - bytes0,
                plat.clock().now()};
    }

    bool tlbWas = hw::TranslationCache::globalEnable();
};

TEST_F(BusAccountingTest, ByteCounterIsTlbInvariant)
{
    LoopResult on = callLoop(true);
    LoopResult off = callLoop(false);
    EXPECT_GT(on.busBytes, 0u);
    EXPECT_EQ(on.busBytes, off.busBytes);
    EXPECT_EQ(on.endNs, off.endNs);
}

} // namespace
} // namespace cronus::core
