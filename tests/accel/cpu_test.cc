/** Unit tests for the CPU device model. */

#include <gtest/gtest.h>

#include "accel/cpu.hh"

namespace cronus::accel
{
namespace
{

TEST(CpuTest, ContextLifecycle)
{
    CpuDevice cpu;
    auto ctx = cpu.createContext();
    ASSERT_TRUE(ctx.isOk());
    EXPECT_EQ(cpu.contextCount(), 1u);
    EXPECT_TRUE(cpu.destroyContext(ctx.value(), false).isOk());
    EXPECT_EQ(cpu.destroyContext(ctx.value(), false).code(),
              ErrorCode::NotFound);
}

TEST(CpuTest, ExecuteRunsBodyAndCharges)
{
    CpuDevice cpu;
    auto ctx = cpu.createContext().value();
    bool ran = false;
    auto cost = cpu.execute(ctx, 1000, [&] {
        ran = true;
        return Status::ok();
    });
    ASSERT_TRUE(cost.isOk());
    EXPECT_TRUE(ran);
    EXPECT_EQ(cost.value(),
              static_cast<SimTime>(1000 * CpuDevice::kNsPerWorkUnit));
}

TEST(CpuTest, ExecutePropagatesBodyError)
{
    CpuDevice cpu;
    auto ctx = cpu.createContext().value();
    auto r = cpu.execute(ctx, 10, [] {
        return Status(ErrorCode::InvalidArgument, "bad input");
    });
    EXPECT_EQ(r.code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(cpu.execute(99, 10, nullptr).code(),
              ErrorCode::NotFound);
}

TEST(CpuTest, MmioAndAttestation)
{
    CpuDevice cpu;
    EXPECT_EQ(cpu.mmioRead(0x8).value(), CpuDevice::kCores);
    EXPECT_FALSE(cpu.mmioRead(0x999).isOk());

    Bytes challenge = {5};
    auto sig = cpu.attestConfig(challenge);
    ByteWriter w;
    w.putString(cpu.config().name);
    w.putString("arm,cortex-a53-sim");
    w.putU64(CpuDevice::kCores);
    w.putBytes(challenge);
    EXPECT_TRUE(crypto::verify(cpu.devicePublicKey(), w.take(), sig));
}

} // namespace
} // namespace cronus::accel
