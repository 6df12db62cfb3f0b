/** Unit tests for the simulated GPU. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>

#include "accel/builtin_kernels.hh"
#include "accel/gpu.hh"

namespace cronus::accel
{
namespace
{

class GpuTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        registerBuiltinKernels();
        ctx = gpu.createContext().value();
        GpuModuleImage image{"test.cubin",
                             {"fill_f32", "vec_add_f32",
                              "matmul_f32", "reduce_sum_f32"}};
        ASSERT_TRUE(gpu.loadModule(ctx, image).isOk());
    }

    GpuVa
    upload(const std::vector<float> &data)
    {
        GpuVa va = gpu.malloc(ctx, data.size() * 4).value();
        EXPECT_TRUE(gpu.write(ctx, va,
                              reinterpret_cast<const uint8_t *>(
                                  data.data()),
                              data.size() * 4).isOk());
        return va;
    }

    std::vector<float>
    download(GpuVa va, size_t n)
    {
        std::vector<float> out(n);
        EXPECT_TRUE(gpu.read(ctx, va,
                             reinterpret_cast<uint8_t *>(out.data()),
                             n * 4).isOk());
        return out;
    }

    GpuDevice gpu;
    GpuContextId ctx = 0;
};

TEST_F(GpuTest, MallocWriteReadRoundTrip)
{
    std::vector<float> data = {1.5f, -2.0f, 3.25f};
    GpuVa va = upload(data);
    EXPECT_EQ(download(va, 3), data);
}

TEST_F(GpuTest, VecAddKernelComputes)
{
    GpuVa a = upload({1, 2, 3, 4});
    GpuVa b = upload({10, 20, 30, 40});
    GpuVa out = gpu.malloc(ctx, 16).value();
    auto done = gpu.launch(ctx, "vec_add_f32", {a, b, out, 4},
                           LaunchDims{4}, 0);
    ASSERT_TRUE(done.isOk()) << done.status().toString();
    EXPECT_EQ(download(out, 4),
              (std::vector<float>{11, 22, 33, 44}));
}

TEST_F(GpuTest, MatmulKernelComputes)
{
    /* 2x3 * 3x2 */
    GpuVa a = upload({1, 2, 3, 4, 5, 6});
    GpuVa b = upload({7, 8, 9, 10, 11, 12});
    GpuVa c = gpu.malloc(ctx, 4 * 4).value();
    auto done = gpu.launch(ctx, "matmul_f32", {a, b, c, 2, 3, 2},
                           LaunchDims{2 * 3 * 2}, 0);
    ASSERT_TRUE(done.isOk());
    EXPECT_EQ(download(c, 4),
              (std::vector<float>{58, 64, 139, 154}));
}

TEST_F(GpuTest, MatmulRejectsOutputOverlappingInputs)
{
    /* A, B and a free 2x2 C laid out back to back in one buffer. */
    const std::vector<float> init = {1, 2, 3, 4, 5, 6, 7, 8,
                                     0, 0, 0, 0};
    GpuVa buf = upload(init);
    GpuVa a = buf, b = buf + 16, free_c = buf + 32;
    /* C on A, on A's tail, on B, and straddling B's tail. */
    for (GpuVa c : {a, a + 8, b, b + 8}) {
        EXPECT_EQ(gpu.launch(ctx, "matmul_f32", {a, b, c, 2, 2, 2},
                             LaunchDims{8}, 0).code(),
                  ErrorCode::InvalidArgument)
            << "C at +" << (c - buf);
    }
    EXPECT_EQ(download(buf, 12), init);

    /* Adjacent but disjoint is not an overlap. */
    ASSERT_TRUE(gpu.launch(ctx, "matmul_f32", {a, b, free_c, 2, 2, 2},
                           LaunchDims{8}, 0).isOk());
    EXPECT_EQ(download(free_c, 4),
              (std::vector<float>{19, 22, 43, 50}));
}

TEST_F(GpuTest, LaunchRequiresLoadedKernel)
{
    GpuVa buf = gpu.malloc(ctx, 16).value();
    EXPECT_EQ(gpu.launch(ctx, "saxpy_f32", {0, buf, buf, 4},
                         LaunchDims{4}, 0).code(),
              ErrorCode::PermissionDenied);
}

TEST_F(GpuTest, ModuleRejectsUnknownKernel)
{
    GpuModuleImage bad{"bad.cubin", {"no_such_kernel"}};
    EXPECT_EQ(gpu.loadModule(ctx, bad).code(), ErrorCode::NotFound);
}

TEST_F(GpuTest, ContextIsolationBlocksForeignVa)
{
    GpuVa va = upload({1, 2, 3, 4});
    GpuContextId other = gpu.createContext().value();
    uint8_t buf[16];
    /* The same VA in another context is unmapped: isolation. */
    EXPECT_EQ(gpu.read(other, va, buf, 16).code(),
              ErrorCode::AccessFault);
}

TEST_F(GpuTest, KernelCannotReadOutOfBounds)
{
    GpuVa a = upload({1, 2});
    GpuVa b = upload({1, 2});
    GpuVa out = gpu.malloc(ctx, 8).value();
    /* Claim a larger n than allocated: the kernel's span fails. */
    auto r = gpu.launch(ctx, "vec_add_f32", {a, b, out, 1 << 20},
                        LaunchDims{4}, 0);
    EXPECT_EQ(r.code(), ErrorCode::AccessFault);
}

TEST_F(GpuTest, OutOfMemoryReported)
{
    EXPECT_EQ(gpu.malloc(ctx, gpu.config().vramBytes + 1).code(),
              ErrorCode::ResourceExhausted);
}

TEST_F(GpuTest, FreeListReuse)
{
    uint64_t before = gpu.freeVram();
    GpuVa va = gpu.malloc(ctx, 1 << 20).value();
    EXPECT_LT(gpu.freeVram(), before);
    ASSERT_TRUE(gpu.free(ctx, va).isOk());
    EXPECT_EQ(gpu.freeVram(), before);
    /* Reallocation succeeds from the free list. */
    EXPECT_TRUE(gpu.malloc(ctx, 1 << 20).isOk());
}

TEST_F(GpuTest, FreedNeighboursCoalesce)
{
    const uint64_t total = gpu.config().vramBytes;
    const uint64_t quarter = total / 4;
    GpuVa a = gpu.malloc(ctx, quarter).value();
    GpuVa b = gpu.malloc(ctx, quarter).value();
    GpuVa c = gpu.malloc(ctx, quarter).value();
    GpuVa d = gpu.malloc(ctx, quarter).value();

    /* Two separate holes fit neither a half nor the whole. */
    ASSERT_TRUE(gpu.free(ctx, a).isOk());
    ASSERT_TRUE(gpu.free(ctx, c).isOk());
    EXPECT_EQ(gpu.freeVram(), 2 * quarter);
    EXPECT_EQ(gpu.malloc(ctx, 2 * quarter).code(),
              ErrorCode::ResourceExhausted);

    /* Freeing b bridges both neighbours into one 3/4 block. */
    ASSERT_TRUE(gpu.free(ctx, b).isOk());
    auto big = gpu.malloc(ctx, 3 * quarter);
    ASSERT_TRUE(big.isOk()) << big.status().toString();
    ASSERT_TRUE(gpu.free(ctx, big.value()).isOk());

    /* A block ending at the bump pointer returns to it, so freeing
     * everything makes the whole VRAM one allocation again. */
    ASSERT_TRUE(gpu.free(ctx, d).isOk());
    EXPECT_EQ(gpu.freeVram(), total);
    EXPECT_TRUE(gpu.malloc(ctx, total).isOk());
}

TEST_F(GpuTest, DestroyContextScrubsVram)
{
    std::vector<float> secret = {42.0f, 43.0f};
    GpuVa va = upload(secret);
    (void)va;
    ASSERT_TRUE(gpu.destroyContext(ctx, true).isOk());

    /* A new context allocating the same VRAM must see zeros. */
    GpuContextId fresh = gpu.createContext().value();
    GpuVa nva = gpu.malloc(fresh, 4096).value();
    std::vector<float> out(2);
    ASSERT_TRUE(gpu.read(fresh, nva,
                         reinterpret_cast<uint8_t *>(out.data()),
                         8).isOk());
    EXPECT_EQ(out, (std::vector<float>{0.0f, 0.0f}));
    ctx = fresh;  /* keep TearDown happy */
}

TEST_F(GpuTest, ResetWithClearZeroesAllVram)
{
    const uint64_t vram = gpu.config().vramBytes;
    GpuVa va = gpu.malloc(ctx, vram).value();
    Bytes pattern(vram, 0xa5);
    ASSERT_TRUE(gpu.write(ctx, va, pattern.data(), vram).isOk());

    gpu.reset(true);
    EXPECT_EQ(gpu.contextCount(), 0u);

    /* A fresh context covering the same VRAM must see only zeros. */
    ctx = gpu.createContext().value();
    GpuVa nva = gpu.malloc(ctx, vram).value();
    Bytes out(vram, 0xff);
    ASSERT_TRUE(gpu.read(ctx, nva, out.data(), vram).isOk());
    EXPECT_EQ(uint64_t(std::count(out.begin(), out.end(), 0)), vram);
}

/** Read the whole of @p ctx's free VRAM through one allocation and
 *  count its zero bytes against its size. */
::testing::AssertionResult
freeVramReadsZero(GpuDevice &gpu, GpuContextId ctx)
{
    const uint64_t rest = gpu.freeVram();
    auto va = gpu.malloc(ctx, rest);
    if (!va.isOk())
        return ::testing::AssertionFailure() << va.status().toString();
    Bytes out(rest, 0xff);
    Status s = gpu.read(ctx, va.value(), out.data(), rest);
    if (!s.isOk())
        return ::testing::AssertionFailure() << s.toString();
    uint64_t zeros = std::count(out.begin(), out.end(), 0);
    if (zeros != rest)
        return ::testing::AssertionFailure()
               << (rest - zeros) << " of " << rest << " bytes nonzero";
    return ::testing::AssertionSuccess();
}

TEST_F(GpuTest, RestoreAfterResetLeavesOtherVramZero)
{
    /* Dirty two blocks; only the first is kept, so the snapshot does
     * not cover the second's (now free) VRAM. */
    GpuVa kept = gpu.malloc(ctx, 8192).value();
    Bytes pattern(8192, 0xa5);
    ASSERT_TRUE(gpu.write(ctx, kept, pattern.data(), 8192).isOk());
    GpuVa dropped = gpu.malloc(ctx, 1 << 20).value();
    Bytes junk(1 << 20, 0x5a);
    ASSERT_TRUE(gpu.write(ctx, dropped, junk.data(), 1 << 20).isOk());
    ASSERT_TRUE(gpu.free(ctx, dropped).isOk());

    Bytes snap = gpu.snapshotContext(ctx).value();
    gpu.reset(true);
    ctx = gpu.createContext().value();
    ASSERT_TRUE(gpu.restoreContext(ctx, snap).isOk());

    Bytes back(8192);
    ASSERT_TRUE(gpu.read(ctx, kept, back.data(), 8192).isOk());
    EXPECT_EQ(back, pattern);
    EXPECT_TRUE(freeVramReadsZero(gpu, ctx));
}

TEST_F(GpuTest, BackToBackResetsKeepVramZero)
{
    const uint64_t vram = gpu.config().vramBytes;
    GpuVa va = gpu.malloc(ctx, vram).value();
    Bytes pattern(vram, 0xa5);
    ASSERT_TRUE(gpu.write(ctx, va, pattern.data(), vram).isOk());

    gpu.reset(true);
    gpu.reset(true);
    ctx = gpu.createContext().value();
    EXPECT_TRUE(freeVramReadsZero(gpu, ctx));
}

/** Resident set of this process, bytes (/proc/self/statm). */
uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t size_pages = 0;
    uint64_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * uint64_t(sysconf(_SC_PAGESIZE));
}

/* VRAM capacity is simulated: neither building a device nor clearing
 * it makes its 64 MiB resident on the host. Eager zeroing in either
 * place touches every page and fails this. */
TEST(GpuVramTest, UntouchedVramCostsNoHostMemory)
{
    const uint64_t before = residentBytes();
    ASSERT_GT(before, 0u);
    auto gpu = std::make_unique<GpuDevice>();
    ASSERT_EQ(gpu->config().vramBytes, uint64_t(64) << 20);
    gpu->reset(true);
    EXPECT_LT(residentBytes(), before + (uint64_t(16) << 20));
}

/* The blob layout is the old putBytes one: count, then (va, bytes,
 * length-prefixed contents) per allocation in VA order. */
TEST_F(GpuTest, SnapshotBlobLayoutIsPinned)
{
    GpuVa a = gpu.malloc(ctx, 4096).value();
    GpuVa b = gpu.malloc(ctx, 100).value();
    Bytes first(4096);
    for (size_t i = 0; i < first.size(); ++i)
        first[i] = static_cast<uint8_t>(i * 7);
    ASSERT_TRUE(gpu.write(ctx, a, first.data(), first.size()).isOk());
    Bytes second(4096, 0);
    second[0] = 0xee;
    second[99] = 0x11;
    ASSERT_TRUE(gpu.write(ctx, b, second.data(), 100).isOk());

    ByteWriter want;
    want.putU32(2);
    want.putU64(a);
    want.putU64(4096);
    want.putBytes(first);
    want.putU64(b);
    want.putU64(4096);
    want.putBytes(second);
    EXPECT_EQ(gpu.snapshotContext(ctx).value(), want.take());
}

/* A count whose byte size overflows 64 bits, or a range whose end
 * wraps, must fault: before, both wrapped to a few bytes and passed
 * the bounds check, letting a kernel write past its allocation. */
TEST_F(GpuTest, OverflowingSpansFaultAndSpareNeighbours)
{
    GpuVa va = gpu.malloc(ctx, 4096).value();
    GpuContextId other = gpu.createContext().value();
    GpuVa ova = gpu.malloc(other, 4096).value();
    Bytes secret(4096, 0x3c);
    ASSERT_TRUE(gpu.write(other, ova, secret.data(), 4096).isOk());

    const uint64_t wraps_to_4 = (uint64_t(1) << 62) + 1;
    const uint64_t one_f32 = 0x3f800000;
    EXPECT_EQ(gpu.launch(ctx, "fill_f32", {va, wraps_to_4, one_f32},
                         LaunchDims{1}, 0).code(),
              ErrorCode::AccessFault);

    GpuAccessor mem(gpu, ctx);
    EXPECT_EQ(mem.span<float>(va, wraps_to_4).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(mem.constSpan<float>(va, wraps_to_4).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(mem.span<uint8_t>(va + 16, uint64_t(0) - 16).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(mem.span<uint8_t>(va + 16, ~uint64_t(0)).code(),
              ErrorCode::AccessFault);

    Bytes back(4096);
    ASSERT_TRUE(gpu.read(other, ova, back.data(), 4096).isOk());
    EXPECT_EQ(back, secret);
}

TEST_F(GpuTest, ContextLimitIsEnforced)
{
    /* The fixture already holds one context. */
    std::vector<GpuContextId> extra;
    for (uint32_t i = 1; i < GpuDevice::kMaxContexts; ++i)
        extra.push_back(gpu.createContext().value());
    EXPECT_EQ(gpu.contextCount(), GpuDevice::kMaxContexts);
    EXPECT_EQ(gpu.createContext().code(),
              ErrorCode::ResourceExhausted);

    /* Destroying one context frees a slot. */
    ASSERT_TRUE(gpu.destroyContext(extra.back(), false).isOk());
    EXPECT_TRUE(gpu.createContext().isOk());
    EXPECT_EQ(gpu.createContext().code(),
              ErrorCode::ResourceExhausted);
}

TEST_F(GpuTest, AsyncTimingAccumulatesOnStream)
{
    GpuVa a = upload(std::vector<float>(1024, 1.0f));
    GpuVa b = upload(std::vector<float>(1024, 2.0f));
    GpuVa out = gpu.malloc(ctx, 4096).value();

    auto t1 = gpu.launch(ctx, "vec_add_f32", {a, b, out, 1024},
                         LaunchDims{1024}, 0);
    ASSERT_TRUE(t1.isOk());
    auto t2 = gpu.launch(ctx, "vec_add_f32", {a, b, out, 1024},
                         LaunchDims{1024}, 0);
    ASSERT_TRUE(t2.isOk());
    EXPECT_GT(t2.value(), t1.value());
    EXPECT_EQ(gpu.streamBusyUntil(ctx), t2.value());
    EXPECT_EQ(gpu.activeContexts(0), 1u);
    EXPECT_EQ(gpu.activeContexts(t2.value()), 0u);
}

TEST_F(GpuTest, SpatialSharingPacksLowUtilizationKernels)
{
    /* Two contexts running u=0.5 kernels concurrently should not
     * slow each other down much (aggregate throughput gain). */
    GpuContextId ctx2 = gpu.createContext().value();
    GpuModuleImage image{"m", {"vec_add_f32"}};
    ASSERT_TRUE(gpu.loadModule(ctx2, image).isOk());

    GpuVa a1 = upload(std::vector<float>(1024, 1.0f));
    GpuVa o1 = gpu.malloc(ctx, 4096).value();
    GpuVa a2 = gpu.malloc(ctx2, 4096).value();
    GpuVa o2 = gpu.malloc(ctx2, 4096).value();

    auto solo = gpu.launch(ctx, "vec_add_f32", {a1, a1, o1, 1024},
                           LaunchDims{1024}, 0);
    ASSERT_TRUE(solo.isOk());
    SimTime solo_duration = solo.value();

    /* Launch on ctx2 while ctx is still busy. */
    auto packed = gpu.launch(ctx2, "vec_add_f32", {a2, a2, o2, 1024},
                             LaunchDims{1024}, 0);
    ASSERT_TRUE(packed.isOk());
    SimTime packed_duration = packed.value();

    /* u=0.5+0.5=1.0: no dilation beyond the contention penalty. */
    EXPECT_LT(packed_duration,
              static_cast<SimTime>(solo_duration * 1.2));
}

TEST_F(GpuTest, MmioRegisters)
{
    EXPECT_EQ(gpu.mmioRead(0x0).value(), 0x47505553u);
    EXPECT_EQ(gpu.mmioRead(0x8).value(), 1u);
    EXPECT_FALSE(gpu.mmioRead(0x9999).isOk());
    EXPECT_TRUE(gpu.mmioWrite(0x0, 1).isOk());
    EXPECT_FALSE(gpu.mmioWrite(0x9999, 1).isOk());
}

TEST_F(GpuTest, AttestationSignatureVerifies)
{
    Bytes challenge = {1, 2, 3};
    auto sig = gpu.attestConfig(challenge);
    ByteWriter w;
    w.putString(gpu.config().name);
    w.putString("nvidia,gtx2080-sim");
    w.putU64(gpu.config().vramBytes);
    w.putBytes(challenge);
    EXPECT_TRUE(crypto::verify(gpu.devicePublicKey(), w.take(), sig));
}

TEST_F(GpuTest, ModuleImageSerializationRoundTrip)
{
    GpuModuleImage image{"net.cubin", {"a", "b", "c"}};
    auto back = GpuModuleImage::deserialize(image.serialize());
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value().name, "net.cubin");
    EXPECT_EQ(back.value().kernels,
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_FALSE(GpuModuleImage::deserialize(Bytes{1}).isOk());
}

} // namespace
} // namespace cronus::accel
