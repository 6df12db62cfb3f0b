/** Unit tests for the simulated VTA-style NPU. */

#include <gtest/gtest.h>

#include <algorithm>

#include "accel/npu.hh"

namespace cronus::accel
{
namespace
{

class NpuTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ctx = npu.createContext().value();
    }

    NpuDevice npu;
    NpuContextId ctx = 0;
};

NpuInsn
loadInsn(uint32_t buffer, NpuBank bank, uint64_t len)
{
    NpuInsn insn;
    insn.op = NpuOp::Load;
    insn.buffer = buffer;
    insn.bank = bank;
    insn.length = len;
    return insn;
}

TEST_F(NpuTest, BufferRoundTrip)
{
    uint32_t buf = npu.allocBuffer(ctx, 64).value();
    std::vector<uint8_t> data = {1, 2, 3, 4};
    ASSERT_TRUE(npu.writeBuffer(ctx, buf, 0, data.data(), 4).isOk());
    std::vector<uint8_t> out(4);
    ASSERT_TRUE(npu.readBuffer(ctx, buf, 0, out.data(), 4).isOk());
    EXPECT_EQ(out, data);
}

TEST_F(NpuTest, BufferBoundsChecked)
{
    uint32_t buf = npu.allocBuffer(ctx, 16).value();
    uint8_t b = 0;
    EXPECT_EQ(npu.writeBuffer(ctx, buf, 16, &b, 1).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(npu.readBuffer(ctx, buf, 12, &b, 8).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(npu.writeBuffer(ctx, 999, 0, &b, 1).code(),
              ErrorCode::NotFound);
}

TEST_F(NpuTest, WrappingRangesFault)
{
    /* offset + len wraps past 2^64 to a small sum; each check must
     * still see the range as out of bounds. */
    const uint64_t huge = ~uint64_t(0);
    uint32_t buf = npu.allocBuffer(ctx, 64).value();
    uint8_t data[2] = {0xa5, 0x5a};
    EXPECT_EQ(npu.writeBuffer(ctx, buf, huge, data, 2).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(npu.readBuffer(ctx, buf, huge, data, 2).code(),
              ErrorCode::AccessFault);
    EXPECT_EQ(npu.writeBuffer(ctx, buf, 2, data, huge).code(),
              ErrorCode::AccessFault);

    auto run_one = [&](const NpuInsn &insn) {
        NpuProgram prog;
        prog.insns.push_back(insn);
        return npu.run(ctx, prog, 0).code();
    };
    NpuInsn load = loadInsn(buf, NpuBank::Input, 2);
    load.dramOffset = huge;
    EXPECT_EQ(run_one(load), ErrorCode::AccessFault);
    load.dramOffset = 0;
    load.sramOffset = huge;
    EXPECT_EQ(run_one(load), ErrorCode::AccessFault);

    NpuInsn gemm;
    gemm.op = NpuOp::Gemm;
    gemm.rows = gemm.cols = gemm.inner = 1;
    gemm.sramOffset = huge;
    EXPECT_EQ(run_one(gemm), ErrorCode::AccessFault);

    NpuInsn store;
    store.op = NpuOp::Store;
    store.buffer = buf;
    store.length = 2;
    store.sramOffset = huge;
    EXPECT_EQ(run_one(store), ErrorCode::AccessFault);
    store.sramOffset = 0;
    store.dramOffset = huge;
    EXPECT_EQ(run_one(store), ErrorCode::AccessFault);

    /* Nothing above reached the buffer. */
    std::vector<uint8_t> out(64, 0xff);
    ASSERT_TRUE(npu.readBuffer(ctx, buf, 0, out.data(), 64).isOk());
    EXPECT_EQ(std::count(out.begin(), out.end(), 0), 64);
}

TEST_F(NpuTest, GemmComputesInt8MatMul)
{
    /* inp: 2x3 (rows x inner), wgt: 2x3 (cols x inner),
     * result acc[2x2][i,j] = sum_k inp[i,k]*wgt[j,k]. */
    uint32_t in_buf = npu.allocBuffer(ctx, 6).value();
    uint32_t w_buf = npu.allocBuffer(ctx, 6).value();
    uint32_t out_buf = npu.allocBuffer(ctx, 4).value();

    int8_t inp[6] = {1, 2, 3, 4, 5, 6};
    int8_t wgt[6] = {1, 0, 1, 0, 1, 0};
    ASSERT_TRUE(npu.writeBuffer(ctx, in_buf, 0,
                                reinterpret_cast<uint8_t *>(inp),
                                6).isOk());
    ASSERT_TRUE(npu.writeBuffer(ctx, w_buf, 0,
                                reinterpret_cast<uint8_t *>(wgt),
                                6).isOk());

    NpuProgram prog;
    prog.insns.push_back(loadInsn(in_buf, NpuBank::Input, 6));
    prog.insns.push_back(loadInsn(w_buf, NpuBank::Weight, 6));
    NpuInsn gemm;
    gemm.op = NpuOp::Gemm;
    gemm.rows = 2;
    gemm.cols = 2;
    gemm.inner = 3;
    gemm.resetAccum = true;
    prog.insns.push_back(gemm);
    NpuInsn store;
    store.op = NpuOp::Store;
    store.buffer = out_buf;
    store.length = 4;
    prog.insns.push_back(store);

    auto done = npu.run(ctx, prog, 0);
    ASSERT_TRUE(done.isOk()) << done.status().toString();
    EXPECT_GT(done.value(), 0u);

    int8_t out[4];
    ASSERT_TRUE(npu.readBuffer(ctx, out_buf, 0,
                               reinterpret_cast<uint8_t *>(out),
                               4).isOk());
    /* row0: [1,2,3].[1,0,1]=4, [1,2,3].[0,1,0]=2
     * row1: [4,5,6].[1,0,1]=10, [4,5,6].[0,1,0]=5 */
    EXPECT_EQ(out[0], 4);
    EXPECT_EQ(out[1], 2);
    EXPECT_EQ(out[2], 10);
    EXPECT_EQ(out[3], 5);
}

TEST_F(NpuTest, AluReluClampsNegative)
{
    uint32_t in_buf = npu.allocBuffer(ctx, 2).value();
    uint32_t out_buf = npu.allocBuffer(ctx, 1).value();
    int8_t inp[2] = {-3, 1};
    int8_t wgt_unused[1] = {0};
    (void)wgt_unused;
    ASSERT_TRUE(npu.writeBuffer(ctx, in_buf, 0,
                                reinterpret_cast<uint8_t *>(inp),
                                2).isOk());

    NpuProgram prog;
    prog.insns.push_back(loadInsn(in_buf, NpuBank::Input, 2));
    uint32_t w_buf = npu.allocBuffer(ctx, 2).value();
    int8_t wgt[2] = {1, 1};
    ASSERT_TRUE(npu.writeBuffer(ctx, w_buf, 0,
                                reinterpret_cast<uint8_t *>(wgt),
                                2).isOk());
    prog.insns.push_back(loadInsn(w_buf, NpuBank::Weight, 2));
    NpuInsn gemm;
    gemm.op = NpuOp::Gemm;
    gemm.rows = 1;
    gemm.cols = 1;
    gemm.inner = 2;
    gemm.resetAccum = true;
    prog.insns.push_back(gemm);  /* acc[0] = -3 + 1 = -2 */
    NpuInsn relu;
    relu.op = NpuOp::Alu;
    relu.aluOp = NpuAluOp::Relu;
    relu.aluElems = 1;
    prog.insns.push_back(relu);
    NpuInsn store;
    store.op = NpuOp::Store;
    store.buffer = out_buf;
    store.length = 1;
    prog.insns.push_back(store);

    ASSERT_TRUE(npu.run(ctx, prog, 0).isOk());
    int8_t out;
    ASSERT_TRUE(npu.readBuffer(ctx, out_buf, 0,
                               reinterpret_cast<uint8_t *>(&out),
                               1).isOk());
    EXPECT_EQ(out, 0);
}

TEST_F(NpuTest, StoreClampsToInt8)
{
    uint32_t in_buf = npu.allocBuffer(ctx, 1).value();
    uint32_t w_buf = npu.allocBuffer(ctx, 1).value();
    uint32_t out_buf = npu.allocBuffer(ctx, 1).value();
    int8_t big_a = 100, big_b = 100;
    ASSERT_TRUE(npu.writeBuffer(ctx, in_buf, 0,
                                reinterpret_cast<uint8_t *>(&big_a),
                                1).isOk());
    ASSERT_TRUE(npu.writeBuffer(ctx, w_buf, 0,
                                reinterpret_cast<uint8_t *>(&big_b),
                                1).isOk());
    NpuProgram prog;
    prog.insns.push_back(loadInsn(in_buf, NpuBank::Input, 1));
    prog.insns.push_back(loadInsn(w_buf, NpuBank::Weight, 1));
    NpuInsn gemm;
    gemm.op = NpuOp::Gemm;
    gemm.rows = gemm.cols = gemm.inner = 1;
    gemm.resetAccum = true;
    prog.insns.push_back(gemm);  /* acc = 10000 */
    NpuInsn store;
    store.op = NpuOp::Store;
    store.buffer = out_buf;
    store.length = 1;
    prog.insns.push_back(store);
    ASSERT_TRUE(npu.run(ctx, prog, 0).isOk());
    int8_t out;
    ASSERT_TRUE(npu.readBuffer(ctx, out_buf, 0,
                               reinterpret_cast<uint8_t *>(&out),
                               1).isOk());
    EXPECT_EQ(out, 127);
}

TEST_F(NpuTest, ProgramFaultsReported)
{
    NpuProgram prog;
    NpuInsn bad;
    bad.op = NpuOp::Load;
    bad.buffer = 42;
    bad.bank = NpuBank::Input;
    bad.length = 1;
    prog.insns.push_back(bad);
    EXPECT_EQ(npu.run(ctx, prog, 0).code(), ErrorCode::NotFound);

    NpuProgram oob;
    NpuInsn gemm;
    gemm.op = NpuOp::Gemm;
    gemm.rows = 1 << 16;
    gemm.cols = 1 << 16;
    gemm.inner = 1;
    oob.insns.push_back(gemm);
    EXPECT_EQ(npu.run(ctx, oob, 0).code(), ErrorCode::AccessFault);
}

TEST_F(NpuTest, ContextIsolation)
{
    uint32_t buf = npu.allocBuffer(ctx, 16).value();
    NpuContextId other = npu.createContext().value();
    uint8_t b;
    /* Buffer ids are per-context; the same id is absent elsewhere. */
    EXPECT_EQ(npu.readBuffer(other, buf, 0, &b, 1).code(),
              ErrorCode::NotFound);
}

TEST_F(NpuTest, DramQuotaEnforced)
{
    EXPECT_EQ(npu.allocBuffer(ctx, NpuDevice::kDramBytes + 1).code(),
              ErrorCode::ResourceExhausted);
}

TEST_F(NpuTest, ResetWithClearZeroesBuffers)
{
    const uint64_t bytes = NpuDevice::kDramBytes;
    uint32_t buf = npu.allocBuffer(ctx, bytes).value();
    std::vector<uint8_t> pattern(bytes, 0xa5);
    ASSERT_TRUE(
        npu.writeBuffer(ctx, buf, 0, pattern.data(), bytes).isOk());

    npu.reset(true);
    EXPECT_EQ(npu.contextCount(), 0u);

    /* A fresh context's whole-quota buffer must read all zero. */
    ctx = npu.createContext().value();
    uint32_t nbuf = npu.allocBuffer(ctx, bytes).value();
    std::vector<uint8_t> out(bytes, 0xff);
    ASSERT_TRUE(npu.readBuffer(ctx, nbuf, 0, out.data(), bytes).isOk());
    EXPECT_EQ(uint64_t(std::count(out.begin(), out.end(), 0)), bytes);
}

TEST_F(NpuTest, TimingScalesWithWork)
{
    auto run_gemm = [&](uint32_t dim) {
        NpuProgram prog;
        NpuInsn gemm;
        gemm.op = NpuOp::Gemm;
        gemm.rows = gemm.cols = dim;
        gemm.inner = dim;
        gemm.resetAccum = true;
        prog.insns.push_back(gemm);
        NpuContextId c = npu.createContext().value();
        SimTime start = 0;
        auto done = npu.run(c, prog, start);
        EXPECT_TRUE(done.isOk());
        return done.value();
    };
    SimTime small = run_gemm(8);
    SimTime large = run_gemm(32);
    EXPECT_GT(large, small);
}

TEST_F(NpuTest, AttestationSignatureVerifies)
{
    Bytes challenge = {9, 9};
    auto sig = npu.attestConfig(challenge);
    ByteWriter w;
    w.putString(npu.config().name);
    w.putString("tvm,vta-fsim");
    w.putU64(NpuDevice::kSramBytes);
    w.putBytes(challenge);
    EXPECT_TRUE(crypto::verify(npu.devicePublicKey(), w.take(), sig));
}

} // namespace
} // namespace cronus::accel
