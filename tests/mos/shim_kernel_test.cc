/** Tests for the shim kernel (driver LibOS) and the HALs. */

#include <gtest/gtest.h>

#include "accel/builtin_kernels.hh"
#include "mos/cpu_hal.hh"
#include "mos/gpu_hal.hh"
#include "mos/npu_hal.hh"
#include "tee/spm.hh"

namespace cronus::mos
{
namespace
{

/** A device of the right kind whose magic register reads wrong. */
template <typename Dev>
class BadMagic : public Dev
{
  public:
    using Dev::Dev;

    Result<uint64_t>
    mmioRead(uint64_t offset) override
    {
        if (offset == 0x0)
            return Dev::kMagic ^ 1;
        return Dev::mmioRead(offset);
    }
};

/** The three device kinds; "<kind>0" is the real device and
 *  "<kind>-bad" one whose magic register reads wrong. */
const char *const kKinds[] = {"cpu", "gpu", "npu"};

std::unique_ptr<Hal>
makeHal(ShimKernel &shim, const std::string &kind,
        const std::string &device)
{
    if (kind == "cpu")
        return std::make_unique<CpuHal>(shim, device);
    if (kind == "gpu")
        return std::make_unique<GpuHal>(shim, device);
    return std::make_unique<NpuHal>(shim, device);
}

hw::PhysAddr
bounceOf(Hal &hal)
{
    if (auto *cpu = dynamic_cast<CpuHal *>(&hal))
        return cpu->bounceBase();
    if (auto *gpu = dynamic_cast<GpuHal *>(&hal))
        return gpu->bounceBase();
    return dynamic_cast<NpuHal &>(hal).bounceBase();
}

/** Host -> device -> host through a GPU or NPU HAL's bounce window. */
Result<Bytes>
roundTrip(Hal &hal, uint64_t ctx, const Bytes &data)
{
    if (auto *gpu = dynamic_cast<GpuHal *>(&hal)) {
        auto va = gpu->memAlloc(ctx, data.size());
        if (!va.isOk())
            return va.status();
        CRONUS_RETURN_IF_ERROR(gpu->memcpyHtoD(ctx, va.value(), data));
        return gpu->memcpyDtoH(ctx, va.value(), data.size());
    }
    auto &npu = dynamic_cast<NpuHal &>(hal);
    auto buffer = npu.allocBuffer(ctx, data.size());
    if (!buffer.isOk())
        return buffer.status();
    CRONUS_RETURN_IF_ERROR(npu.writeBuffer(ctx, buffer.value(), 0, data));
    return npu.readBuffer(ctx, buffer.value(), 0, data.size());
}

class MosTest : public ::testing::Test
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
        platform->registerDevice(
            std::make_unique<accel::NpuDevice>(), 60);
        platform->registerDevice(
            std::make_unique<accel::CpuDevice>(), 32);
        accel::GpuConfig bad_gpu;
        bad_gpu.name = "gpu-bad";
        bad_gpu.vramBytes = 1 << 20;
        platform->registerDevice(
            std::make_unique<BadMagic<accel::GpuDevice>>(bad_gpu), 41);
        accel::NpuConfig bad_npu;
        bad_npu.name = "npu-bad";
        platform->registerDevice(
            std::make_unique<BadMagic<accel::NpuDevice>>(bad_npu), 61);
        accel::CpuConfig bad_cpu;
        bad_cpu.name = "cpu-bad";
        platform->registerDevice(
            std::make_unique<BadMagic<accel::CpuDevice>>(bad_cpu), 33);

        monitor = std::make_unique<tee::SecureMonitor>(*platform);
        ASSERT_TRUE(monitor->bootAllSecure().isOk());
        spm = std::make_unique<tee::Spm>(*monitor);
        tee::MosImage image{"gpu0.mos", "gpu", toBytes("x")};
        pid = spm->createPartition(image, "gpu0",
                                   4ull << 20).value();
    }

    std::unique_ptr<hw::Platform> platform;
    std::unique_ptr<tee::SecureMonitor> monitor;
    std::unique_ptr<tee::Spm> spm;
    tee::PartitionId pid = 0;

    /** A HAL probing another kind's device fails cleanly; on its
     *  own kind it creates a context. */
    void
    expectProbeChecksDeviceKind(const std::string &kind,
                                const std::string &wrong_device)
    {
        ShimKernel shim(*spm, pid);
        auto wrong = makeHal(shim, kind, wrong_device);
        EXPECT_EQ(wrong->createDeviceContext().code(),
                  ErrorCode::InvalidArgument);
        EXPECT_EQ(wrong->attestDevice({1}).code(),
                  ErrorCode::InvalidArgument);
        auto right = makeHal(shim, kind, kind + "0");
        EXPECT_TRUE(right->createDeviceContext().isOk());
    }

    /** Creating a context maps the staging window, a copy
     *  round-trips through it, and recovering the partition that
     *  owns the device drops it. */
    void
    expectCopiesFlowThroughTheSmmu(const std::string &kind)
    {
        tee::MosImage image{kind + "0.mos", kind, toBytes("x")};
        tee::PartitionId owner =
            kind == "gpu"
                ? pid
                : spm->createPartition(image, kind + "0", 4ull << 20)
                      .value();
        ShimKernel shim(*spm, owner);
        auto hal = makeHal(shim, kind, kind + "0");
        auto ctx = hal->createDeviceContext().value();
        hw::Device *dev = platform->findDevice(kind + "0");
        hw::PhysAddr bounce = bounceOf(*hal);

        EXPECT_TRUE(platform->smmu().hasStream(dev->streamId()));
        EXPECT_TRUE(platform->smmu()
                        .translate(dev->streamId(), bounce, 8, true)
                        .ok());

        Bytes data = {1, 2, 3, 4};
        EXPECT_EQ(roundTrip(*hal, ctx, data).value(), data);

        /* Failure step 2 drops the old incarnation's SMMU windows. */
        ASSERT_TRUE(spm->failPartition(owner).isOk());
        ASSERT_TRUE(spm->recoverPartition(owner, image).isOk());
        EXPECT_FALSE(platform->smmu()
                         .translate(dev->streamId(), bounce, 8, true)
                         .ok());
    }

    /** 600 KiB > the 256 KiB staging window: several DMA passes. */
    void
    expectLargeCopySpansBounceWindows(const std::string &kind)
    {
        ShimKernel shim(*spm, pid);
        auto hal = makeHal(shim, kind, kind + "0");
        auto ctx = hal->createDeviceContext().value();
        Bytes big(600 * 1024);
        for (size_t i = 0; i < big.size(); ++i)
            big[i] = static_cast<uint8_t>(i * 13);
        EXPECT_EQ(roundTrip(*hal, ctx, big).value(), big);
    }
};

TEST_F(MosTest, AllocPagesExhaustsPartitionBudget)
{
    ShimKernel shim(*spm, pid);
    /* 4 MiB partition, 64 pages reserved for the mOS. */
    uint64_t available = (4ull << 20) / hw::kPageSize - 64;
    auto first = shim.allocPages(available);
    ASSERT_TRUE(first.isOk());
    EXPECT_EQ(shim.allocPages(1).code(),
              ErrorCode::ResourceExhausted);
}

TEST_F(MosTest, ShimMemoryAccessGoesThroughStage2)
{
    ShimKernel shim(*spm, pid);
    auto page = shim.allocPages(1).value();
    ASSERT_TRUE(shim.write(page, Bytes{1, 2, 3}).isOk());
    EXPECT_EQ(shim.read(page, 3).value(), (Bytes{1, 2, 3}));
    /* Outside the partition: stage-2 fault. */
    EXPECT_EQ(shim.read(0x0, 8).code(), ErrorCode::AccessFault);
}

TEST_F(MosTest, IoremapFindsSecureDevices)
{
    ShimKernel shim(*spm, pid);
    EXPECT_TRUE(shim.ioremap("gpu0").isOk());
    EXPECT_EQ(shim.ioremap("nope").code(), ErrorCode::NotFound);
}

TEST_F(MosTest, SpinlockRoundTrip)
{
    ShimKernel shim(*spm, pid);
    auto lock = shim.allocPages(1).value();
    ASSERT_TRUE(shim.spinLock(lock).isOk());
    /* Locked: a second take spins out. */
    EXPECT_EQ(shim.spinLock(lock).code(), ErrorCode::Timeout);
    ASSERT_TRUE(shim.spinUnlock(lock).isOk());
    EXPECT_TRUE(shim.spinLock(lock).isOk());
}

TEST_F(MosTest, DmaMapInstallsSmmuEntries)
{
    ShimKernel shim(*spm, pid);
    auto page = shim.allocPages(2).value();
    hw::Device *gpu = platform->findDevice("gpu0");
    ASSERT_TRUE(shim.dmaMap(gpu->streamId(), 0x4000, page, 2,
                            99).isOk());
    EXPECT_TRUE(platform->smmu()
                    .translate(gpu->streamId(), 0x4000, 8, true)
                    .ok());
    EXPECT_EQ(platform->smmu().invalidateByTag(99), 2u);
}

TEST_F(MosTest, HeartbeatReachesSpm)
{
    ShimKernel shim(*spm, pid);
    uint64_t before = spm->partition(pid).value()->heartbeat;
    shim.heartbeat();
    EXPECT_EQ(spm->partition(pid).value()->heartbeat, before + 1);
}

/* The GPU HAL takes the probe role of the nouveau driver. */
TEST_F(MosTest, NouveauProbeChecksDeviceKind)
{
    expectProbeChecksDeviceKind("gpu", "npu0");
}

/* The NPU HAL takes the probe role of the VTA driver. */
TEST_F(MosTest, VtaProbeChecksDeviceKind)
{
    expectProbeChecksDeviceKind("npu", "gpu0");
}

TEST_F(MosTest, CpuHalProbeChecksDeviceKind)
{
    expectProbeChecksDeviceKind("cpu", "gpu0");
}

TEST_F(MosTest, HalProbeChecksMagic)
{
    ShimKernel shim(*spm, pid);
    for (std::string kind : kKinds) {
        SCOPED_TRACE(kind);
        auto hal = makeHal(shim, kind, kind + "-bad");
        EXPECT_EQ(hal->createDeviceContext().code(),
                  ErrorCode::InvalidState);
        EXPECT_EQ(hal->attestDevice({1}).code(),
                  ErrorCode::InvalidState);
        /* A failed probe maps no staging window. */
        EXPECT_EQ(bounceOf(*hal), 0u);
    }
}

TEST_F(MosTest, HalContextLifecycleOnEveryKind)
{
    ShimKernel shim(*spm, pid);
    for (std::string kind : kKinds) {
        SCOPED_TRACE(kind);
        auto hal = makeHal(shim, kind, kind + "0");
        EXPECT_EQ(hal->deviceType(), kind);
        auto a = hal->createDeviceContext();
        auto b = hal->createDeviceContext();
        ASSERT_TRUE(a.isOk() && b.isOk());
        EXPECT_NE(a.value(), b.value());
        ASSERT_TRUE(hal->destroyDeviceContext(a.value(), true).isOk());
        EXPECT_EQ(hal->destroyDeviceContext(a.value(), true).code(),
                  ErrorCode::NotFound);
        EXPECT_TRUE(hal->destroyDeviceContext(b.value(), false).isOk());
        /* GPU and NPU map their staging window at context create;
         * the CPU moves no data by DMA and maps none. */
        EXPECT_EQ(bounceOf(*hal) != 0, kind != "cpu");
    }
}

TEST_F(MosTest, HalAttestsEveryKindWithItsOwnKey)
{
    ShimKernel shim(*spm, pid);
    std::vector<crypto::PublicKey> keys;
    for (std::string kind : kKinds) {
        SCOPED_TRACE(kind);
        auto hal = makeHal(shim, kind, kind + "0");
        auto att = hal->attestDevice(toBytes("challenge"));
        ASSERT_TRUE(att.isOk()) << att.status().toString();
        auto *dev = dynamic_cast<accel::AttestedDevice *>(
            platform->findDevice(kind + "0"));
        EXPECT_TRUE(att.value().devicePublicKey ==
                    dev->devicePublicKey());
        EXPECT_EQ(att.value().challenge, toBytes("challenge"));
        keys.push_back(att.value().devicePublicKey);
    }
    EXPECT_FALSE(keys[0] == keys[1]);
    EXPECT_FALSE(keys[1] == keys[2]);
    EXPECT_FALSE(keys[0] == keys[2]);
}

TEST_F(MosTest, GpuHalLifecycle)
{
    ShimKernel shim(*spm, pid);
    GpuHal hal(shim, "gpu0");
    EXPECT_EQ(hal.deviceType(), "gpu");
    auto ctx = hal.createDeviceContext();
    ASSERT_TRUE(ctx.isOk());

    auto va = hal.memAlloc(ctx.value(), 64);
    ASSERT_TRUE(va.isOk());
    Bytes data = {9, 8, 7, 6};
    ASSERT_TRUE(hal.memcpyHtoD(ctx.value(), va.value(),
                               data).isOk());
    auto back = hal.memcpyDtoH(ctx.value(), va.value(), 4);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), data);
    ASSERT_TRUE(hal.memFree(ctx.value(), va.value()).isOk());
    ASSERT_TRUE(hal.destroyDeviceContext(ctx.value(), true).isOk());
}

TEST_F(MosTest, GpuHalAttestsRealHardware)
{
    ShimKernel shim(*spm, pid);
    GpuHal hal(shim, "gpu0");
    auto att = hal.attestDevice(toBytes("challenge"));
    ASSERT_TRUE(att.isOk()) << att.status().toString();
    auto *gpu = dynamic_cast<accel::GpuDevice *>(
        platform->findDevice("gpu0"));
    EXPECT_TRUE(att.value().devicePublicKey ==
                gpu->devicePublicKey());
}

TEST_F(MosTest, GpuCopiesFlowThroughTheSmmu)
{
    expectCopiesFlowThroughTheSmmu("gpu");
}

TEST_F(MosTest, NpuCopiesFlowThroughTheSmmu)
{
    expectCopiesFlowThroughTheSmmu("npu");
}

TEST_F(MosTest, LargeCopySpansBounceWindows)
{
    expectLargeCopySpansBounceWindows("gpu");
}

TEST_F(MosTest, NpuLargeCopySpansBounceWindows)
{
    expectLargeCopySpansBounceWindows("npu");
}

TEST_F(MosTest, HalChargesDriverCosts)
{
    ShimKernel shim(*spm, pid);
    GpuHal hal(shim, "gpu0");
    auto ctx = hal.createDeviceContext().value();
    accel::GpuModuleImage module{"m", {"fill_f32"}};
    ASSERT_TRUE(hal.loadModule(ctx, module).isOk());
    auto va = hal.memAlloc(ctx, 64).value();

    SimTime before = platform->clock().now();
    ASSERT_TRUE(hal.launchKernel(ctx, "fill_f32", {va, 16, 0},
                                 16).isOk());
    /* Launch submission cost is charged to the CPU clock even
     * though the kernel runs asynchronously. */
    EXPECT_GE(platform->clock().now() - before,
              platform->costs().gpuSubmitNs);
}

} // namespace
} // namespace cronus::mos
