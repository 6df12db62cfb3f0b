/** End-to-end tests: the Fig. 2 application workflow and the
 *  automatic partitioner. */

#include "test_fixtures.hh"

namespace cronus::core
{
namespace
{

using testing::CronusTest;

class SystemTest : public CronusTest
{
};

TEST_F(SystemTest, PartitionsPerDevice)
{
    /* Default config: cpu0, gpu0, npu0 -> 3 partitions. */
    EXPECT_EQ(system->spm().partitionCount(), 3u);
    EXPECT_TRUE(system->mosForDevice("cpu0").isOk());
    EXPECT_TRUE(system->mosForDevice("gpu0").isOk());
    EXPECT_TRUE(system->mosForDevice("npu0").isOk());
    EXPECT_FALSE(system->mosForDevice("gpu7").isOk());
}

TEST_F(SystemTest, Figure2ApplicationWorkflow)
{
    /* 1. The user submits App-1 with a manifest; the app creates a
     * CPU mEnclave (mEnclave A). */
    auto enclave_a = makeCpuEnclave();
    ASSERT_TRUE(enclave_a.isOk());

    /* 2. Remote attestation of mEnclave A. */
    Bytes challenge = toBytes("user-nonce");
    auto report = system->attest(enclave_a.value(), challenge);
    ASSERT_TRUE(report.isOk());
    auto expect = system->expectationFor(enclave_a.value());
    expect.challenge = challenge;
    ASSERT_TRUE(verifyAttestation(report.value(), expect).isOk());

    /* 3. The user provides encrypted data; mEnclave A processes it
     * (modeled by an authenticated mECall). */
    Bytes sensitive = toBytes("user-training-data");
    auto processed = system->ecall(enclave_a.value(), "echo",
                                   sensitive);
    ASSERT_TRUE(processed.isOk());

    /* 4. During execution, a CUDA mEnclave (mEnclave C) is created
     * in the GPU partition and connected via sRPC. */
    auto enclave_c = makeGpuEnclave();
    ASSERT_TRUE(enclave_c.isOk());
    auto channel = system->connect(enclave_a.value(),
                                   enclave_c.value());
    ASSERT_TRUE(channel.isOk());

    /* 5. Heterogeneous computation streams over the channel. */
    auto va = channel.value()->callSync(
        "cuMemAlloc", CudaRuntime::encodeMemAlloc(16));
    ASSERT_TRUE(va.isOk());
    ASSERT_TRUE(channel.value()->close().isOk());
}

TEST_F(SystemTest, SpatialSharingTwoEnclavesOneGpu)
{
    /* R2: two mEnclaves share gpu0 concurrently. */
    auto e1 = makeGpuEnclave().value();
    auto e2 = makeGpuEnclave().value();
    EXPECT_EQ(e1.host, e2.host);

    auto r1 = system->ecall(e1, "cuMemAlloc",
                            CudaRuntime::encodeMemAlloc(1 << 20));
    auto r2 = system->ecall(e2, "cuMemAlloc",
                            CudaRuntime::encodeMemAlloc(1 << 20));
    ASSERT_TRUE(r1.isOk());
    ASSERT_TRUE(r2.isOk());

    auto gpu_os = system->mosForDevice("gpu0").value();
    auto &hal = static_cast<mos::GpuHal &>(gpu_os->hal());
    EXPECT_EQ(hal.rawDevice().contextCount(), 2u);
}

TEST_F(SystemTest, FaultIsolationAcrossAccelerators)
{
    /* R3.1: killing the GPU partition leaves NPU + CPU running. */
    auto cpu = makeCpuEnclave().value();
    auto npu = makeNpuEnclave().value();
    ASSERT_TRUE(system->injectPanic("gpu0").isOk());

    EXPECT_TRUE(system->ecall(cpu, "echo", toBytes("x")).isOk());
    auto buf = system->ecall(npu, "vtaAllocBuffer",
                             NpuRuntime::encodeAllocBuffer(64));
    EXPECT_TRUE(buf.isOk());

    /* GPU enclave creation fails while the partition is down. */
    EXPECT_FALSE(makeGpuEnclave().isOk());
    ASSERT_TRUE(system->recover("gpu0").isOk());
    EXPECT_TRUE(makeGpuEnclave().isOk());
}

TEST_F(SystemTest, MultiGpuConfig)
{
    CronusConfig cfg;
    cfg.numGpus = 4;
    CronusSystem multi(cfg);
    EXPECT_EQ(multi.spm().partitionCount(), 6u);  /* cpu + 4 gpu + npu */
    auto h0 = multi.createEnclave(testing::gpuManifest(),
                                  "test.cubin",
                                  testing::gpuImageBytes(), "gpu0");
    auto h3 = multi.createEnclave(testing::gpuManifest(),
                                  "test.cubin",
                                  testing::gpuImageBytes(), "gpu3");
    ASSERT_TRUE(h0.isOk());
    ASSERT_TRUE(h3.isOk());
    EXPECT_NE(h0.value().host, h3.value().host);
}

TEST_F(SystemTest, AutoPartitionerGeneratesPlan)
{
    MonolithicProgram prog;
    prog.name = "mat";
    prog.cpuImage.exports = {"echo"};
    prog.gpuImage = accel::GpuModuleImage{
        "mat.cubin", {"matmul_f32"}};
    prog.ops.push_back({MonoOp::Kind::Cpu, "echo", toBytes("hi")});
    prog.ops.push_back({MonoOp::Kind::Cuda, "cuMemAlloc",
                        CudaRuntime::encodeMemAlloc(64)});
    prog.ops.push_back({MonoOp::Kind::Cuda, "cuCtxSynchronize",
                        Bytes{}});

    auto plan = AutoPartitioner::partition(prog);
    ASSERT_TRUE(plan.isOk());
    EXPECT_TRUE(plan.value().needsCpu);
    EXPECT_TRUE(plan.value().needsGpu);
    EXPECT_FALSE(plan.value().needsNpu);

    auto gpu_manifest =
        Manifest::fromJson(plan.value().gpuManifest).value();
    EXPECT_TRUE(gpu_manifest.declaresCall("cuMemAlloc"));
    EXPECT_FALSE(gpu_manifest.declaresCall("cuMemcpyDtoH"));
    /* Async flags assigned by call semantics. */
    EXPECT_FALSE(gpu_manifest.isAsync("cuMemAlloc"));
    auto cpu_manifest =
        Manifest::fromJson(plan.value().cpuManifest).value();
    EXPECT_TRUE(cpu_manifest.declaresCall("echo"));
}

TEST_F(SystemTest, AutoPartitionerRunsMonolithicProgram)
{
    /* A monolithic "vector add on GPU + CPU post-processing"
     * program, converted automatically to mEnclaves + sRPC. */
    MonolithicProgram prog;
    prog.name = "vadd";
    prog.cpuImage.exports = {"echo"};
    prog.gpuImage = accel::GpuModuleImage{
        "vadd.cubin", {"fill_f32", "vec_add_f32"}};

    prog.ops.push_back({MonoOp::Kind::Cuda, "cuMemAlloc",
                        CudaRuntime::encodeMemAlloc(1024)});
    /* The partitioner's runner feeds results forward only through
     * explicit args, so use fixed VAs: the first allocation in a
     * fresh context is deterministic (0x10000000). */
    uint64_t va = 0x10000000;
    uint32_t bits;
    float two = 2.0f;
    std::memcpy(&bits, &two, 4);
    prog.ops.push_back({MonoOp::Kind::Cuda, "cuLaunchKernel",
                        CudaRuntime::encodeLaunchKernel(
                            "fill_f32", {va, 256, bits}, 256)});
    prog.ops.push_back({MonoOp::Kind::Cuda, "cuMemcpyDtoH",
                        CudaRuntime::encodeMemcpyDtoH(va, 16)});
    prog.ops.push_back({MonoOp::Kind::Cpu, "echo",
                        toBytes("post-process")});

    auto result = AutoPartitioner::run(*system, prog);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    ASSERT_EQ(result.value().outputs.size(), 4u);
    const float *filled = reinterpret_cast<const float *>(
        result.value().outputs[2].data());
    EXPECT_EQ(filled[0], 2.0f);
    EXPECT_EQ(filled[3], 2.0f);
    EXPECT_EQ(result.value().outputs[3], toBytes("post-process"));
    /* Device calls streamed through sRPC. */
    EXPECT_GE(result.value().gpuStats.executed, 3u);
}

TEST_F(SystemTest, DispatcherBalancesAcrossIdenticalGpus)
{
    CronusConfig cfg;
    cfg.numGpus = 2;
    cfg.withNpu = false;
    CronusSystem multi(cfg);
    auto h1 = multi.createEnclave(testing::gpuManifest(),
                                  "test.cubin",
                                  testing::gpuImageBytes());
    auto h2 = multi.createEnclave(testing::gpuManifest(),
                                  "test.cubin",
                                  testing::gpuImageBytes());
    ASSERT_TRUE(h1.isOk());
    ASSERT_TRUE(h2.isOk());
    /* Least-loaded placement spreads the two enclaves. */
    EXPECT_NE(h1.value().host, h2.value().host);
}

TEST_F(SystemTest, StatsReportCoversTheSystem)
{
    auto cpu = makeCpuEnclave().value();
    ASSERT_TRUE(system->ecall(cpu, "echo", toBytes("x")).isOk());

    /* A GPU call over sRPC creates the ring grant and moves bytes
     * through the SMMU. */
    auto gpu = makeGpuEnclave().value();
    auto ch = system->connect(cpu, gpu);
    ASSERT_TRUE(ch.isOk());
    SrpcChannel &channel = *ch.value();
    auto va = channel.callSync("cuMemAlloc",
                               CudaRuntime::encodeMemAlloc(64));
    ASSERT_TRUE(va.isOk());
    uint64_t dev_va = CudaRuntime::decodeU64Result(va.value()).value();
    ASSERT_TRUE(channel
                    .callSync("cuMemcpyHtoD",
                              CudaRuntime::encodeMemcpyHtoD(
                                  dev_va, Bytes(64, 7)))
                    .isOk());

    /* Panic + recover, then the survivor touches the stale grant
     * and takes the share trap. */
    ASSERT_TRUE(system->injectPanic("gpu0").isOk());
    ASSERT_TRUE(system->recover("gpu0").isOk());
    auto trapped = channel.callSync("cuMemAlloc",
                                    CudaRuntime::encodeMemAlloc(64));
    EXPECT_EQ(trapped.code(), ErrorCode::PeerFailed);

    JsonValue snap = system->metrics().snapshot();
    const JsonValue &src = snap["sources"];

    /* Every (source, counter) pair the host-time benchmark reads:
     * a renamed key would silently read as 0 there. */
    const std::pair<const char *, const char *> benchmark_pairs[] = {
        {"tlb", "hits"},
        {"tlb", "misses"},
        {"smmu", "hits"},
        {"smmu", "misses"},
        {"platform", "bus_bytes_copied"},
        {"monitor", "world_switches"},
        {"spm", "grants_created"},
        {"spm", "share_traps"},
        {"spm", "partitions_recovered"},
    };
    for (const auto &[source, counter] : benchmark_pairs) {
        ASSERT_TRUE(src.has(source)) << source;
        EXPECT_TRUE(src[source].has(counter)) << source << "." << counter;
        EXPECT_TRUE(src[source][counter].isNumber())
            << source << "." << counter;
    }
    EXPECT_GT(src["tlb"]["hits"].asInt(), 0);
    EXPECT_GT(src["smmu"]["hits"].asInt() +
                  src["smmu"]["misses"].asInt(),
              0);
    EXPECT_GT(src["platform"]["bus_bytes_copied"].asInt(), 0);
    EXPECT_GT(src["spm"]["grants_created"].asInt(), 0);
    EXPECT_EQ(src["spm"]["share_traps"].asInt(), 1);
    EXPECT_EQ(src["spm"]["trap_signals"].asInt(), 1);

    EXPECT_GT(src["platform"]["virtual_time_ns"].asInt(), 0);
    EXPECT_GT(src["monitor"]["world_switches"].asInt(), 0);
    EXPECT_EQ(src["spm"]["partitions_failed"].asInt(), 1);
    EXPECT_EQ(src["spm"]["partitions_recovered"].asInt(), 1);
    EXPECT_EQ(src["spm"]["partitions_created"].asInt(), 3);

    ASSERT_TRUE(src.has("partitions"));
    ASSERT_EQ(src["partitions"].asObject().size(), 3u);
    bool found_cpu = false;
    for (const auto &[key, entry] : src["partitions"].asObject()) {
        for (const char *field :
             {"enclaves", "memory_in_use", "incarnation"})
            EXPECT_TRUE(entry[field].isNumber()) << key << "." << field;
        if (entry["device"].asString() == "cpu0") {
            found_cpu = true;
            EXPECT_EQ(entry["enclaves"].asInt(), 1);
            EXPECT_GT(entry["memory_in_use"].asInt(), 0);
        }
        if (entry["device"].asString() == "gpu0") {
            EXPECT_EQ(entry["incarnation"].asInt(), 2);
        }
    }
    EXPECT_TRUE(found_cpu);
    /* The report is valid JSON end to end. */
    EXPECT_TRUE(parseJson(snap.dump()).isOk());
}

TEST_F(SystemTest, TimeAdvancesWithWork)
{
    auto handle = makeCpuEnclave().value();
    SimTime before = system->platform().clock().now();
    ASSERT_TRUE(system->ecall(handle, "echo", Bytes(1024, 1)).isOk());
    EXPECT_GT(system->platform().clock().now(), before);
}

} // namespace
} // namespace cronus::core
