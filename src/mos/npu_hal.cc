#include "npu_hal.hh"

namespace cronus::mos
{

Result<uint32_t>
NpuHal::allocBuffer(uint64_t ctx, uint64_t bytes)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    return dev->allocBuffer(id(ctx), bytes);
}

Status
NpuHal::writeBuffer(uint64_t ctx, uint32_t buffer, uint64_t offset,
                    const Bytes &data)
{
    CRONUS_RETURN_IF_ERROR(ensureBounce());
    shim.heartbeat();
    return stageToDevice(
        data, [&](uint64_t off, const uint8_t *staged, uint64_t len) {
            return dev->writeBuffer(id(ctx), buffer, offset + off,
                                    staged, len);
        });
}

Result<Bytes>
NpuHal::readBuffer(uint64_t ctx, uint32_t buffer, uint64_t offset,
                   uint64_t len)
{
    CRONUS_RETURN_IF_ERROR(ensureBounce());
    return stageFromDevice(
        len, [&](uint64_t off, uint8_t *out, uint64_t n) {
            return dev->readBuffer(id(ctx), buffer, offset + off, out,
                                   n);
        });
}

Status
NpuHal::runProgram(uint64_t ctx, const accel::NpuProgram &program)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    shim.heartbeat();
    hw::Platform &plat = shim.platform();
    plat.clock().advance(plat.costs().npuSubmitNs);
    auto done = dev->run(id(ctx), program, plat.clock().now());
    if (!done.isOk())
        return done.status();
    plat.clock().advanceTo(done.value());
    return Status::ok();
}

} // namespace cronus::mos
