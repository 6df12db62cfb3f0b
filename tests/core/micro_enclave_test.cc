/** Tests for mEnclave lifecycle, ownership and authentication. */

#include "test_fixtures.hh"

namespace cronus::core
{
namespace
{

using testing::CronusTest;

class MicroEnclaveTest : public CronusTest
{
};

TEST_F(MicroEnclaveTest, CreateAndEcall)
{
    auto handle = makeCpuEnclave();
    ASSERT_TRUE(handle.isOk()) << handle.status().toString();

    Bytes payload = toBytes("hello enclave");
    auto echoed = system->ecall(handle.value(), "echo", payload);
    ASSERT_TRUE(echoed.isOk()) << echoed.status().toString();
    EXPECT_EQ(echoed.value(), payload);
}

TEST_F(MicroEnclaveTest, EnclaveStatePersistsAcrossCalls)
{
    auto handle = makeCpuEnclave().value();
    ByteWriter w;
    w.putU64(5);
    auto first = system->ecall(handle, "accumulate", w.data());
    ASSERT_TRUE(first.isOk());
    auto second = system->ecall(handle, "accumulate", w.data());
    ASSERT_TRUE(second.isOk());
    ByteReader r(second.value());
    EXPECT_EQ(r.getU64().value(), 10u);
}

TEST_F(MicroEnclaveTest, UndeclaredCallRejected)
{
    auto handle = makeCpuEnclave().value();
    /* "secret_fn" is not in the manifest's static mECall list. */
    auto r = system->ecall(handle, "secret_fn", Bytes{});
    EXPECT_EQ(r.code(), ErrorCode::PermissionDenied);
}

TEST_F(MicroEnclaveTest, BodyErrorPropagates)
{
    auto handle = makeCpuEnclave().value();
    EXPECT_EQ(system->ecall(handle, "fail", Bytes{}).code(),
              ErrorCode::InvalidArgument);
}

TEST_F(MicroEnclaveTest, NonOwnerCannotInvoke)
{
    auto handle = makeCpuEnclave().value();
    MicroOS *os = handle.host;
    /* Forge a request with the wrong secret. */
    Bytes wrong_secret(32, 0x42);
    Bytes tag = EnclaveManager::authTag(wrong_secret, handle.eid, 1,
                                        "echo", Bytes{});
    auto r = os->enclaveManager().ecall(handle.eid, "echo", Bytes{},
                                        1, tag);
    EXPECT_EQ(r.code(), ErrorCode::AuthFailed);
}

TEST_F(MicroEnclaveTest, ReplayedEcallRejected)
{
    auto handle = makeCpuEnclave().value();
    MicroOS *os = handle.host;
    Bytes args = toBytes("x");
    Bytes tag = EnclaveManager::authTag(handle.secret, handle.eid, 1,
                                        "echo", args);
    ASSERT_TRUE(os->enclaveManager()
                    .ecall(handle.eid, "echo", args, 1, tag).isOk());
    /* Same nonce again: replay. */
    EXPECT_EQ(os->enclaveManager()
                  .ecall(handle.eid, "echo", args, 1, tag).code(),
              ErrorCode::IntegrityViolation);
    /* Old nonce after progress: also replay. */
    Bytes tag2 = EnclaveManager::authTag(handle.secret, handle.eid,
                                         5, "echo", args);
    ASSERT_TRUE(os->enclaveManager()
                    .ecall(handle.eid, "echo", args, 5, tag2).isOk());
    EXPECT_EQ(os->enclaveManager()
                  .ecall(handle.eid, "echo", args, 3,
                         EnclaveManager::authTag(handle.secret,
                                                 handle.eid, 3,
                                                 "echo", args))
                  .code(),
              ErrorCode::IntegrityViolation);
}

TEST_F(MicroEnclaveTest, TamperedArgsRejected)
{
    auto handle = makeCpuEnclave().value();
    MicroOS *os = handle.host;
    Bytes args = toBytes("legit");
    Bytes tag = EnclaveManager::authTag(handle.secret, handle.eid, 1,
                                        "echo", args);
    Bytes tampered = toBytes("evil!");
    EXPECT_EQ(os->enclaveManager()
                  .ecall(handle.eid, "echo", tampered, 1, tag).code(),
              ErrorCode::AuthFailed);
}

TEST_F(MicroEnclaveTest, MisdispatchedRequestRejected)
{
    /* A malicious dispatcher routes the request to the NPU
     * partition; the eid's mOS bits do not match. */
    auto handle = makeCpuEnclave().value();
    auto npu_os = system->mosForDevice("npu0");
    ASSERT_TRUE(npu_os.isOk());
    system->dispatcher().setMisroute(
        [&](Eid) { return npu_os.value(); });
    auto r = system->ecall(handle, "echo", Bytes{});
    EXPECT_EQ(r.code(), ErrorCode::PermissionDenied);
    system->dispatcher().setMisroute(nullptr);
    EXPECT_TRUE(system->ecall(handle, "echo", Bytes{}).isOk());
}

TEST_F(MicroEnclaveTest, ImageHashMismatchRejected)
{
    /* Manifest declares one hash, the provided image differs. */
    Bytes evil_image = testing::cpuImageBytes();
    evil_image.push_back(0xff);
    auto r = system->createEnclave(testing::cpuManifest(), "app.so",
                                   evil_image);
    EXPECT_EQ(r.code(), ErrorCode::IntegrityViolation);
}

TEST_F(MicroEnclaveTest, UndeclaredImageNameRejected)
{
    auto r = system->createEnclave(testing::cpuManifest(),
                                   "other.so",
                                   testing::cpuImageBytes());
    EXPECT_EQ(r.code(), ErrorCode::InvalidArgument);
}

TEST_F(MicroEnclaveTest, ManifestDeviceMismatchRejected)
{
    /* A GPU manifest cannot be instantiated on the CPU partition. */
    auto cpu_os = system->mosForDevice("cpu0").value();
    crypto::KeyPair owner = crypto::deriveKeyPair(toBytes("o"));
    auto r = cpu_os->enclaveManager().create(
        testing::gpuManifest(), "test.cubin",
        testing::gpuImageBytes(), owner.pub);
    EXPECT_EQ(r.code(), ErrorCode::InvalidArgument);
}

TEST_F(MicroEnclaveTest, RejectedImageLeavesNoTrace)
{
    /* Creation allocates the device context before it binds the
     * image, so a manifest-valid image the runtime rejects must hand
     * the context back and leave the books as they were. */
    CpuImage unknown;
    unknown.exports = {"echo", "no_such_function"};
    struct Case
    {
        std::string device, type, imageName;
        Bytes image;
        std::string call;
    };
    const Case cases[] = {
        {"cpu0", "cpu", "app.so", unknown.serialize(), "echo"},
        {"gpu0", "gpu", "bad.cubin", Bytes{0xde, 0xad, 0xbe},
         "cuMemAlloc"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.device);
        EnclaveManager &mgr =
            system->mosForDevice(c.device).value()->enclaveManager();
        hw::Device *dev = system->platform().findDevice(c.device);
        ASSERT_NE(dev, nullptr);
        auto contexts = [&] {
            return c.type == "cpu"
                       ? static_cast<accel::CpuDevice *>(dev)
                             ->contextCount()
                       : static_cast<accel::GpuDevice *>(dev)
                             ->contextCount();
        };
        size_t enclaves = mgr.enclaveCount();
        uint64_t memory = mgr.memoryInUse();
        size_t live = contexts();

        std::string manifest = testing::manifestJson(
            c.type, {{c.imageName, c.image}}, {{c.call, false}});
        auto r = system->createEnclave(manifest, c.imageName, c.image);
        EXPECT_FALSE(r.isOk());
        EXPECT_EQ(mgr.enclaveCount(), enclaves);
        EXPECT_EQ(mgr.memoryInUse(), memory);
        EXPECT_EQ(contexts(), live);
    }
}

TEST_F(MicroEnclaveTest, MemoryQuotaEnforced)
{
    /* Partition budget is 24 MiB; a 1 GiB manifest is rejected. */
    std::string huge = testing::manifestJson(
        "cpu", {{"app.so", testing::cpuImageBytes()}},
        {{"echo", false}}, "1G");
    auto r = system->createEnclave(huge, "app.so",
                                   testing::cpuImageBytes());
    EXPECT_EQ(r.code(), ErrorCode::ResourceExhausted);
}

TEST_F(MicroEnclaveTest, DestroyRequiresOwnershipAndFreesQuota)
{
    auto handle = makeCpuEnclave().value();
    MicroOS *os = handle.host;
    uint64_t used = os->enclaveManager().memoryInUse();
    EXPECT_GT(used, 0u);

    /* Wrong tag. */
    EXPECT_EQ(os->enclaveManager()
                  .destroy(handle.eid, 99, Bytes(32, 0)).code(),
              ErrorCode::AuthFailed);

    ASSERT_TRUE(system->destroyEnclave(handle).isOk());
    EXPECT_EQ(os->enclaveManager().memoryInUse(), 0u);
    EXPECT_EQ(system->ecall(handle, "echo", Bytes{}).code(),
              ErrorCode::NotFound);
}

TEST_F(MicroEnclaveTest, EidsEncodePartition)
{
    auto cpu = makeCpuEnclave().value();
    auto gpu = makeGpuEnclave().value();
    EXPECT_NE(mosIdOf(cpu.eid), mosIdOf(gpu.eid));
    EXPECT_EQ(mosIdOf(cpu.eid), cpu.host->partitionId());
    EXPECT_EQ(enclaveIdOf(makeEid(3, 77)), 77u);
    EXPECT_EQ(mosIdOf(makeEid(3, 77)), 3u);
}

TEST_F(MicroEnclaveTest, LocalAttestationRoundTrip)
{
    auto handle = makeCpuEnclave().value();
    Bytes challenge = {1, 2, 3};
    auto report = handle.host->enclaveManager().localAttest(
        handle.eid, challenge);
    ASSERT_TRUE(report.isOk());
    const Bytes &lsk = system->monitor().localSealKey();
    EXPECT_TRUE(EnclaveManager::verifyLocalReport(report.value(),
                                                  lsk));

    /* Tampering with any field breaks the MAC. */
    auto bad = report.value();
    bad.partitionIncarnation += 1;
    EXPECT_FALSE(EnclaveManager::verifyLocalReport(bad, lsk));
    auto bad2 = report.value();
    bad2.challenge.push_back(9);
    EXPECT_FALSE(EnclaveManager::verifyLocalReport(bad2, lsk));
    /* And a different machine's LSK does not verify. */
    EXPECT_FALSE(EnclaveManager::verifyLocalReport(report.value(),
                                                   Bytes(32, 1)));
}

TEST_F(MicroEnclaveTest, GpuEnclaveEndToEnd)
{
    auto handle = makeGpuEnclave().value();

    std::vector<float> a = {1, 2, 3, 4};
    std::vector<float> b = {5, 6, 7, 8};
    Bytes a_bytes(reinterpret_cast<uint8_t *>(a.data()),
                  reinterpret_cast<uint8_t *>(a.data()) + 16);
    Bytes b_bytes(reinterpret_cast<uint8_t *>(b.data()),
                  reinterpret_cast<uint8_t *>(b.data()) + 16);

    auto alloc = [&](uint64_t n) {
        auto r = system->ecall(handle, "cuMemAlloc",
                               CudaRuntime::encodeMemAlloc(n));
        EXPECT_TRUE(r.isOk()) << r.status().toString();
        return CudaRuntime::decodeU64Result(r.value()).value();
    };
    uint64_t va_a = alloc(16), va_b = alloc(16), va_c = alloc(16);

    ASSERT_TRUE(system->ecall(handle, "cuMemcpyHtoD",
                              CudaRuntime::encodeMemcpyHtoD(
                                  va_a, a_bytes)).isOk());
    ASSERT_TRUE(system->ecall(handle, "cuMemcpyHtoD",
                              CudaRuntime::encodeMemcpyHtoD(
                                  va_b, b_bytes)).isOk());
    ASSERT_TRUE(system->ecall(handle, "cuLaunchKernel",
                              CudaRuntime::encodeLaunchKernel(
                                  "vec_add_f32",
                                  {va_a, va_b, va_c, 4}, 4)).isOk());
    auto out = system->ecall(handle, "cuMemcpyDtoH",
                             CudaRuntime::encodeMemcpyDtoH(va_c, 16));
    ASSERT_TRUE(out.isOk());
    const float *result =
        reinterpret_cast<const float *>(out.value().data());
    EXPECT_EQ(result[0], 6);
    EXPECT_EQ(result[3], 12);
}

TEST_F(MicroEnclaveTest, NpuEnclaveEndToEnd)
{
    auto handle = makeNpuEnclave().value();

    auto alloc_buf = [&](uint64_t n) {
        auto r = system->ecall(handle, "vtaAllocBuffer",
                               NpuRuntime::encodeAllocBuffer(n));
        EXPECT_TRUE(r.isOk()) << r.status().toString();
        ByteReader reader(r.value());
        return reader.getU32().value();
    };
    uint32_t in_buf = alloc_buf(4), w_buf = alloc_buf(4),
             out_buf = alloc_buf(4);

    Bytes inp = {1, 2, 3, 4};
    Bytes wgt = {1, 1, 1, 1};
    ASSERT_TRUE(system->ecall(handle, "vtaWriteBuffer",
                              NpuRuntime::encodeWriteBuffer(
                                  in_buf, 0, inp)).isOk());
    ASSERT_TRUE(system->ecall(handle, "vtaWriteBuffer",
                              NpuRuntime::encodeWriteBuffer(
                                  w_buf, 0, wgt)).isOk());

    accel::NpuProgram prog;
    accel::NpuInsn load_in;
    load_in.op = accel::NpuOp::Load;
    load_in.buffer = in_buf;
    load_in.bank = accel::NpuBank::Input;
    load_in.length = 4;
    prog.insns.push_back(load_in);
    accel::NpuInsn load_w = load_in;
    load_w.buffer = w_buf;
    load_w.bank = accel::NpuBank::Weight;
    prog.insns.push_back(load_w);
    accel::NpuInsn gemm;
    gemm.op = accel::NpuOp::Gemm;
    gemm.rows = 1;
    gemm.cols = 1;
    gemm.inner = 4;
    gemm.resetAccum = true;
    prog.insns.push_back(gemm);
    accel::NpuInsn store;
    store.op = accel::NpuOp::Store;
    store.buffer = out_buf;
    store.length = 1;
    prog.insns.push_back(store);

    ASSERT_TRUE(system->ecall(handle, "vtaRun",
                              NpuRuntime::encodeRun(prog)).isOk());
    auto out = system->ecall(handle, "vtaReadBuffer",
                             NpuRuntime::encodeReadBuffer(out_buf, 0,
                                                          1));
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(static_cast<int8_t>(out.value()[0]), 10);
}

} // namespace
} // namespace cronus::core
