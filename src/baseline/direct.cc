#include "direct.hh"

#include "accel/builtin_kernels.hh"
#include "base/logging.hh"

namespace cronus::baseline
{

DirectBackend::DirectBackend(Kind backend_kind,
                             std::vector<std::string> gpu_kernels)
    : kind(backend_kind), kernels(std::move(gpu_kernels))
{
    plat = std::make_unique<hw::Platform>();
    accel::registerBuiltinKernels();

    gpu = static_cast<accel::GpuDevice *>(plat->registerDevice(
        std::make_unique<accel::GpuDevice>(), 40));
    npu = static_cast<accel::NpuDevice *>(plat->registerDevice(
        std::make_unique<accel::NpuDevice>(), 60));

    if (kind == Kind::TrustZone) {
        monitor = std::make_unique<tee::SecureMonitor>(*plat);
        Status booted = monitor->bootAllSecure();
        CRONUS_ASSERT(booted.isOk(), "monolithic boot failed");
    }

    Status s = openContexts();
    CRONUS_ASSERT(s.isOk(), "direct module load: " + s.toString());
}

Status
DirectBackend::openContexts()
{
    gpuCtx = gpu->createContext().value();
    npuCtx = npu->createContext().value();
    return gpu->loadModule(gpuCtx, {"direct.cubin", kernels});
}

Status
DirectBackend::ensureAlive() const
{
    if (!down)
        return Status::ok();
    return Status(ErrorCode::PeerFailed,
                  kind == Kind::Linux
                      ? "machine down"
                      : "secure world crashed (monolithic)");
}

Result<uint64_t>
DirectBackend::gpuAlloc(uint64_t bytes)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    auto va = gpu->malloc(gpuCtx, bytes);
    if (!va.isOk())
        return va.status();
    return uint64_t(va.value());
}

Status
DirectBackend::gpuFree(uint64_t va)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    return gpu->free(gpuCtx, va);
}

Status
DirectBackend::copyToGpu(uint64_t va, const Bytes &data)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    plat->clock().advance(plat->costs().gpuCopyCmdNs);
    /* An empty copy is one charged command that moves nothing. */
    if (data.empty())
        return Status::ok();
    /* Pageable host memory: the driver stages through a CPU copy
     * before the DMA (as cudaMemcpy does). */
    plat->chargeMemcpy(data.size());
    plat->chargeDma(data.size());
    return gpu->write(gpuCtx, va, data.data(), data.size());
}

Result<Bytes>
DirectBackend::copyFromGpu(uint64_t va, uint64_t len)
{
    CRONUS_RETURN_IF_ERROR(gpuSynchronize());
    plat->clock().advance(plat->costs().gpuCopyCmdNs);
    if (len == 0)
        return Bytes{};
    plat->chargeMemcpy(len);
    plat->chargeDma(len);
    Bytes out(len);
    Status s = gpu->read(gpuCtx, va, out.data(), len);
    if (!s.isOk())
        return s;
    return out;
}

Status
DirectBackend::launchKernel(const std::string &kernel,
                            const std::vector<uint64_t> &args,
                            uint64_t work_items)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    plat->clock().advance(plat->costs().gpuSubmitNs);
    auto done = gpu->launch(gpuCtx, kernel, args,
                            accel::LaunchDims{work_items},
                            plat->clock().now());
    if (!done.isOk())
        return done.status();
    return Status::ok();
}

Status
DirectBackend::gpuSynchronize()
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    plat->clock().advanceTo(gpu->streamBusyUntil(gpuCtx));
    return Status::ok();
}

Result<uint32_t>
DirectBackend::npuAllocBuffer(uint64_t bytes)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    return npu->allocBuffer(npuCtx, bytes);
}

Status
DirectBackend::npuWriteBuffer(uint32_t buffer, uint64_t offset,
                              const Bytes &data)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    plat->chargeDma(data.size());
    return npu->writeBuffer(npuCtx, buffer, offset, data.data(),
                            data.size());
}

Result<Bytes>
DirectBackend::npuReadBuffer(uint32_t buffer, uint64_t offset,
                             uint64_t len)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    plat->chargeDma(len);
    Bytes out(len);
    Status s = npu->readBuffer(npuCtx, buffer, offset, out.data(),
                               len);
    if (!s.isOk())
        return s;
    return out;
}

Status
DirectBackend::npuRun(const accel::NpuProgram &program)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    plat->clock().advance(plat->costs().npuSubmitNs);
    auto done = npu->run(npuCtx, program, plat->clock().now());
    if (!done.isOk())
        return done.status();
    plat->clock().advanceTo(done.value());
    return Status::ok();
}

Status
DirectBackend::cpuWork(uint64_t work_units)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    plat->clock().advance(work_units);
    return Status::ok();
}

SimTime
DirectBackend::now() const
{
    return plat->clock().now();
}

Status
DirectBackend::injectGpuFault()
{
    /* The GPU driver shares the kernel (Linux) or the trusted OS
     * (TrustZone) with everything else: the whole machine or secure
     * world goes down (R3.1 violation). */
    down = true;
    return Status::ok();
}

Result<SimTime>
DirectBackend::recoverGpu()
{
    if (!down)
        return Status(ErrorCode::InvalidState, "no fault injected");
    /* Clearing accelerator state needs a cold machine reboot. */
    SimTime cost = plat->costs().machineRebootNs;
    plat->clock().advance(cost);
    gpu->reset(true);
    npu->reset(true);
    CRONUS_RETURN_IF_ERROR(openContexts());
    down = false;
    return cost;
}

bool
DirectBackend::othersAlive()
{
    /* NPU computation dies with the machine / secure world. */
    return !down;
}

Result<Bytes>
DirectBackend::maliciousDriverReadsGpu(uint64_t va, uint64_t len)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    /* The NPU driver runs in the same address space and trust domain
     * as the GPU driver: nothing stops it from reading GPU state of
     * other tenants. */
    Bytes out(len);
    Status s = gpu->read(gpuCtx, va, out.data(), len);
    if (!s.isOk())
        return s;
    return out;
}

} // namespace cronus::baseline
