#include "gpu_hal.hh"

namespace cronus::mos
{

Status
GpuHal::loadModule(uint64_t ctx, const accel::GpuModuleImage &image)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    shim.heartbeat();
    return dev->loadModule(id(ctx), image);
}

Result<accel::GpuVa>
GpuHal::memAlloc(uint64_t ctx, uint64_t bytes)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    return dev->malloc(id(ctx), bytes);
}

Status
GpuHal::memFree(uint64_t ctx, accel::GpuVa va)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    return dev->free(id(ctx), va);
}

Status
GpuHal::memcpyHtoD(uint64_t ctx, accel::GpuVa dst, const Bytes &src)
{
    CRONUS_RETURN_IF_ERROR(ensureBounce());
    shim.heartbeat();
    hw::Platform &plat = shim.platform();
    plat.clock().advance(plat.costs().gpuCopyCmdNs);
    CRONUS_RETURN_IF_ERROR(stageToDevice(
        src, [&](uint64_t off, const uint8_t *data, uint64_t len) {
            return dev->write(id(ctx), dst + off, data, len);
        }));
    if (src.empty())
        return dev->write(id(ctx), dst, src.data(), 0);
    return Status::ok();
}

Result<Bytes>
GpuHal::memcpyDtoH(uint64_t ctx, accel::GpuVa src, uint64_t len)
{
    CRONUS_RETURN_IF_ERROR(ensureBounce());
    /* DtoH is synchronous in the CUDA model. */
    CRONUS_RETURN_IF_ERROR(synchronize(ctx));
    hw::Platform &plat = shim.platform();
    plat.clock().advance(plat.costs().gpuCopyCmdNs);
    return stageFromDevice(
        len, [&](uint64_t off, uint8_t *out, uint64_t n) {
            return dev->read(id(ctx), src + off, out, n);
        });
}

Status
GpuHal::launchKernel(uint64_t ctx, const std::string &kernel,
                     const std::vector<uint64_t> &args,
                     uint64_t work_items)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    shim.heartbeat();
    hw::Platform &plat = shim.platform();
    plat.clock().advance(plat.costs().gpuSubmitNs);
    auto done = dev->launch(id(ctx), kernel, args,
                            accel::LaunchDims{work_items},
                            plat.clock().now());
    if (!done.isOk())
        return done.status();
    /* Asynchronous: the CPU does not wait for completion. */
    return Status::ok();
}

Status
GpuHal::synchronize(uint64_t ctx)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    shim.platform().clock().advanceTo(dev->streamBusyUntil(id(ctx)));
    return Status::ok();
}

Result<Bytes>
GpuHal::snapshotContext(uint64_t ctx)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    /* A snapshot captures quiesced state. */
    CRONUS_RETURN_IF_ERROR(synchronize(ctx));
    return dev->snapshotContext(id(ctx));
}

Status
GpuHal::restoreContext(uint64_t ctx, const Bytes &snapshot)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    shim.heartbeat();
    return dev->restoreContext(id(ctx), snapshot);
}

} // namespace cronus::mos
