/**
 * @file
 * Quickstart: boot a CRONUS machine, attest a CPU mEnclave, create
 * a CUDA mEnclave and stream GPU work to it over sRPC.
 *
 * This walks the paper's Fig. 2 application lifecycle end to end.
 */

#include <cstdio>

#include "accel/builtin_kernels.hh"
#include "core/system.hh"

using namespace cronus;
using namespace cronus::core;

namespace
{

Bytes
cpuImage()
{
    CpuFunctionRegistry::instance().registerFunction(
        "process", [](CpuCallContext &ctx) {
            ctx.charge(100);
            Bytes out = ctx.args;
            for (auto &b : out)
                b ^= 0x42;  /* stand-in for data processing */
            return Result<Bytes>(out);
        });
    CpuImage image;
    image.exports = {"process"};
    return image.serialize();
}

} // namespace

int
main()
{
    Logger::instance().setQuiet(true);
    accel::registerBuiltinKernels();

    /* 1. Boot a machine: CPU + GPU + NPU, one partition each. */
    CronusSystem system;
    std::printf("booted: %zu partitions (one per device)\n",
                system.spm().partitionCount());

    /* 2. The application creates its CPU mEnclave (mEnclave A). */
    Bytes cpu_image = cpuImage();
    auto enclave_a = system.createEnclave(
        Manifest::build("cpu", "app.so", cpu_image,
                        {{"process", false}}, 4ull << 20),
        "app.so", cpu_image);
    if (!enclave_a.isOk()) {
        std::printf("create failed: %s\n",
                    enclave_a.status().toString().c_str());
        return 1;
    }

    /* 3. The user remote-attests mEnclave A before sending data. */
    Bytes challenge = toBytes("user-nonce-1");
    auto report = system.attest(enclave_a.value(), challenge);
    auto expect = system.expectationFor(enclave_a.value());
    expect.challenge = challenge;
    Status verdict = verifyAttestation(report.value(), expect);
    std::printf("remote attestation: %s\n",
                verdict.isOk() ? "VERIFIED" : "REJECTED");

    /* 4. Sensitive data is processed inside the enclave. */
    auto processed = system.ecall(enclave_a.value(), "process",
                                  toBytes("sensitive-user-data"));
    std::printf("mECall returned %zu bytes\n",
                processed.value().size());

    /* 5. mEnclave A creates a CUDA mEnclave (mEnclave C) and
     * connects via streaming RPC. */
    accel::GpuModuleImage module{"app.cubin", {"vec_add_f32"}};
    Bytes gpu_image = module.serialize();
    auto enclave_c = system.createEnclave(
        Manifest::build("gpu", "app.cubin", gpu_image,
                        CudaRuntime::manifestCalls(), 4ull << 20),
        "app.cubin", gpu_image);
    auto channel =
        system.connect(enclave_a.value(), enclave_c.value());
    std::printf("sRPC channel up (grant %llu)\n",
                static_cast<unsigned long long>(
                    channel.value()->grantId()));

    /* 6. Stream a GPU computation: c = a + b. */
    auto alloc = [&](uint64_t n) {
        auto r = channel.value()->callSync(
            "cuMemAlloc", CudaRuntime::encodeMemAlloc(n));
        return CudaRuntime::decodeU64Result(r.value()).value();
    };
    uint64_t va_a = alloc(16), va_b = alloc(16), va_c = alloc(16);

    std::vector<float> a = {1, 2, 3, 4}, b = {10, 20, 30, 40};
    Bytes a_bytes(reinterpret_cast<uint8_t *>(a.data()),
                  reinterpret_cast<uint8_t *>(a.data()) + 16);
    Bytes b_bytes(reinterpret_cast<uint8_t *>(b.data()),
                  reinterpret_cast<uint8_t *>(b.data()) + 16);
    channel.value()->call("cuMemcpyHtoD",
                          CudaRuntime::encodeMemcpyHtoD(va_a,
                                                        a_bytes));
    channel.value()->call("cuMemcpyHtoD",
                          CudaRuntime::encodeMemcpyHtoD(va_b,
                                                        b_bytes));
    channel.value()->call(
        "cuLaunchKernel",
        CudaRuntime::encodeLaunchKernel("vec_add_f32",
                                        {va_a, va_b, va_c, 4}, 4));
    auto out = channel.value()->call(
        "cuMemcpyDtoH", CudaRuntime::encodeMemcpyDtoH(va_c, 16));

    const float *c =
        reinterpret_cast<const float *>(out.value().data());
    std::printf("gpu result: [%.0f %.0f %.0f %.0f]\n", c[0], c[1],
                c[2], c[3]);
    std::printf("world switches for %llu streamed RPCs: %llu "
                "(setup only)\n",
                static_cast<unsigned long long>(
                    channel.value()->stats().executed),
                static_cast<unsigned long long>(
                    channel.value()->stats().setupWorldSwitches));
    channel.value()->close();

    std::printf("quickstart OK\n");
    return 0;
}
