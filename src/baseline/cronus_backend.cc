#include "cronus_backend.hh"

#include "accel/builtin_kernels.hh"
#include "base/logging.hh"

namespace cronus::baseline
{

using core::CudaRuntime;
using core::NpuRuntime;

namespace
{

std::string
gpuManifestFor(const Bytes &image_bytes)
{
    return core::Manifest::build("gpu", "app.cubin", image_bytes,
                                 CudaRuntime::manifestCalls(),
                                 8ull << 20);
}

std::string
npuManifestBasic()
{
    return core::Manifest::build("npu", "", {},
                                 NpuRuntime::manifestCalls(),
                                 4ull << 20);
}

/** Room each ring slot keeps for a copy call's own encoding. */
constexpr uint64_t kCallHeaderBytes = 64;

/**
 * Send @p data as @p fn calls that each fit one request slot of
 * @p ring, in order; @p encode(offset, piece) builds one call's
 * arguments. Empty data sends one empty call when @p send_empty,
 * else nothing.
 */
template <typename Encode>
Status
sendChunked(core::SrpcChannel &channel, const core::SrpcConfig &ring,
            const std::string &fn, const Bytes &data, bool send_empty,
            Encode encode)
{
    const uint64_t chunk = ring.requestBytes() - kCallHeaderBytes;
    if (data.empty() && !send_empty)
        return Status::ok();
    uint64_t off = 0;
    do {
        uint64_t len = std::min<uint64_t>(chunk, data.size() - off);
        Bytes piece(data.begin() + off, data.begin() + off + len);
        auto r = channel.call(fn, encode(off, piece));
        if (!r.isOk())
            return r.status();
        off += len;
    } while (off < data.size());
    return Status::ok();
}

/**
 * Fetch @p len bytes as @p fn calls whose results each fit one
 * response slot of @p ring, concatenated in order; @p encode(offset,
 * n) builds one call's arguments. An empty fetch sends one empty
 * call when @p fetch_empty, else nothing.
 */
template <typename Encode>
Result<Bytes>
fetchChunked(core::SrpcChannel &channel, const core::SrpcConfig &ring,
             const std::string &fn, uint64_t len, bool fetch_empty,
             Encode encode)
{
    const uint64_t chunk = ring.responseBytes() - kCallHeaderBytes;
    Bytes out;
    if (len == 0 && !fetch_empty)
        return out;
    out.reserve(len);
    uint64_t off = 0;
    do {
        uint64_t n = std::min<uint64_t>(chunk, len - off);
        auto r = channel.call(fn, encode(off, n));
        if (!r.isOk())
            return r.status();
        out.insert(out.end(), r.value().begin(), r.value().end());
        off += n;
    } while (off < len);
    return out;
}

} // namespace

CronusBackend::CronusBackend(const CronusBackendConfig &config)
    : cfg(config)
{
    accel::registerBuiltinKernels();
    core::CpuFunctionRegistry::instance().registerFunction(
        "noop", [](core::CpuCallContext &ctx) {
            ctx.charge(1);
            return Result<Bytes>(Bytes{});
        });

    core::CronusConfig sc;
    sc.withNpu = cfg.withNpu;
    sys = std::make_unique<core::CronusSystem>(sc);

    /* CPU mEnclave (the application's trusted part). */
    core::CpuImage cpu_image;
    cpu_image.exports = {"noop"};
    Bytes cpu_bytes = cpu_image.serialize();
    auto cpu = sys->createEnclave(
        core::Manifest::build("cpu", "app.so", cpu_bytes,
                              {{"noop", false}}, 4ull << 20),
        "app.so", cpu_bytes);
    CRONUS_ASSERT(cpu.isOk(),
                  "cpu enclave: " + cpu.status().toString());
    cpuEnclave = cpu.value();
}

Status
CronusBackend::ensureGpuChannel()
{
    if (gpuUp)
        return Status::ok();
    accel::GpuModuleImage image{"app.cubin", cfg.gpuKernels};
    Bytes image_bytes = image.serialize();
    auto gpu = sys->createEnclave(gpuManifestFor(image_bytes),
                                  "app.cubin", image_bytes);
    if (!gpu.isOk())
        return gpu.status();
    gpuEnclave = gpu.value();
    auto channel = sys->connect(cpuEnclave, gpuEnclave, srpcConfig);
    if (!channel.isOk())
        return channel.status();
    gpuChannel = std::move(channel.value());
    gpuUp = true;
    return Status::ok();
}

Status
CronusBackend::ensureNpuChannel()
{
    if (npuUp)
        return Status::ok();
    if (!cfg.withNpu)
        return Status(ErrorCode::Unsupported, "NPU disabled");
    auto npu = sys->createEnclave(npuManifestBasic(), "", Bytes{});
    if (!npu.isOk())
        return npu.status();
    npuEnclave = npu.value();
    auto channel = sys->connect(cpuEnclave, npuEnclave, srpcConfig);
    if (!channel.isOk())
        return channel.status();
    npuChannel = std::move(channel.value());
    npuUp = true;
    return Status::ok();
}

Result<uint64_t>
CronusBackend::gpuAlloc(uint64_t bytes)
{
    CRONUS_RETURN_IF_ERROR(ensureGpuChannel());
    auto r = gpuChannel->callSync("cuMemAlloc",
                                  CudaRuntime::encodeMemAlloc(bytes));
    if (!r.isOk())
        return r.status();
    return CudaRuntime::decodeU64Result(r.value());
}

Status
CronusBackend::gpuFree(uint64_t va)
{
    CRONUS_RETURN_IF_ERROR(ensureGpuChannel());
    auto r = gpuChannel->call("cuMemFree",
                              CudaRuntime::encodeMemFree(va));
    return r.isOk() ? Status::ok() : r.status();
}

Status
CronusBackend::copyToGpu(uint64_t va, const Bytes &data)
{
    CRONUS_RETURN_IF_ERROR(ensureGpuChannel());
    return sendChunked(
        *gpuChannel, srpcConfig, "cuMemcpyHtoD", data, true,
        [va](uint64_t off, const Bytes &piece) {
            return CudaRuntime::encodeMemcpyHtoD(va + off, piece);
        });
}

Result<Bytes>
CronusBackend::copyFromGpu(uint64_t va, uint64_t len)
{
    CRONUS_RETURN_IF_ERROR(ensureGpuChannel());
    return fetchChunked(
        *gpuChannel, srpcConfig, "cuMemcpyDtoH", len, true,
        [va](uint64_t off, uint64_t n) {
            return CudaRuntime::encodeMemcpyDtoH(va + off, n);
        });
}

Status
CronusBackend::launchKernel(const std::string &kernel,
                            const std::vector<uint64_t> &args,
                            uint64_t work_items)
{
    CRONUS_RETURN_IF_ERROR(ensureGpuChannel());
    auto r = gpuChannel->call(
        "cuLaunchKernel",
        CudaRuntime::encodeLaunchKernel(kernel, args, work_items));
    return r.isOk() ? Status::ok() : r.status();
}

Status
CronusBackend::gpuSynchronize()
{
    CRONUS_RETURN_IF_ERROR(ensureGpuChannel());
    auto r = gpuChannel->call("cuCtxSynchronize", Bytes{});
    if (!r.isOk())
        return r.status();
    /* The synchronize ran every call queued before it: report the
     * first async copy or launch that failed, as CUDA's synchronize
     * reports an earlier asynchronous error. */
    return gpuChannel->takeFailure();
}

Result<uint32_t>
CronusBackend::npuAllocBuffer(uint64_t bytes)
{
    CRONUS_RETURN_IF_ERROR(ensureNpuChannel());
    auto r = npuChannel->callSync(
        "vtaAllocBuffer", NpuRuntime::encodeAllocBuffer(bytes));
    if (!r.isOk())
        return r.status();
    ByteReader reader(r.value());
    return reader.getU32();
}

Status
CronusBackend::npuWriteBuffer(uint32_t buffer, uint64_t offset,
                              const Bytes &data)
{
    CRONUS_RETURN_IF_ERROR(ensureNpuChannel());
    return sendChunked(
        *npuChannel, srpcConfig, "vtaWriteBuffer", data, false,
        [buffer, offset](uint64_t off, const Bytes &piece) {
            return NpuRuntime::encodeWriteBuffer(buffer, offset + off,
                                                 piece);
        });
}

Result<Bytes>
CronusBackend::npuReadBuffer(uint32_t buffer, uint64_t offset,
                             uint64_t len)
{
    CRONUS_RETURN_IF_ERROR(ensureNpuChannel());
    return fetchChunked(
        *npuChannel, srpcConfig, "vtaReadBuffer", len, false,
        [buffer, offset](uint64_t off, uint64_t n) {
            return NpuRuntime::encodeReadBuffer(buffer, offset + off, n);
        });
}

Status
CronusBackend::npuRun(const accel::NpuProgram &program)
{
    CRONUS_RETURN_IF_ERROR(ensureNpuChannel());
    auto r = npuChannel->call("vtaRun",
                              NpuRuntime::encodeRun(program));
    return r.isOk() ? Status::ok() : r.status();
}

Status
CronusBackend::cpuWork(uint64_t work_units)
{
    sys->platform().clock().advance(work_units);
    return Status::ok();
}

SimTime
CronusBackend::now() const
{
    return const_cast<CronusBackend *>(this)
        ->sys->platform().clock().now();
}

Status
CronusBackend::injectGpuFault()
{
    return sys->injectPanic("gpu0");
}

Result<SimTime>
CronusBackend::recoverGpu()
{
    SimTime before = sys->platform().clock().now();
    CRONUS_RETURN_IF_ERROR(sys->recover("gpu0"));
    /* The old enclave/channel died with the partition; rebuild on
     * next use. */
    gpuChannel.reset();
    gpuUp = false;
    return sys->platform().clock().now() - before;
}

bool
CronusBackend::othersAlive()
{
    /* NPU and CPU partitions are unaffected by the GPU fault. */
    if (!cfg.withNpu)
        return true;
    Status alive = ensureNpuChannel();
    if (!alive.isOk())
        return false;
    auto r = npuChannel->callSync(
        "vtaAllocBuffer", NpuRuntime::encodeAllocBuffer(64));
    return r.isOk();
}

} // namespace cronus::baseline
