#include "npu_hal.hh"

#include "base/logging.hh"

namespace cronus::mos
{

VtaDriver::VtaDriver(ShimKernel &shim_kernel,
                     const std::string &device_name)
    : shim(shim_kernel), devName(device_name)
{
}

Status
VtaDriver::probe()
{
    auto dev = shim.ioremap(devName);
    if (!dev.isOk())
        return dev.status();
    auto *as_npu = dynamic_cast<accel::NpuDevice *>(dev.value());
    if (as_npu == nullptr)
        return Status(ErrorCode::InvalidArgument,
                      "'" + devName + "' is not an NPU");
    auto magic = as_npu->mmioRead(0x0);
    if (!magic.isOk() || magic.value() != 0x56544121)
        return Status(ErrorCode::InvalidState,
                      "NPU magic register mismatch");
    npu = as_npu;
    return Status::ok();
}

accel::NpuDevice &
VtaDriver::device()
{
    CRONUS_ASSERT(npu != nullptr, "driver not probed");
    return *npu;
}

NpuHal::NpuHal(ShimKernel &shim_kernel, const std::string &device_name)
    : Hal(shim_kernel), driver(shim_kernel, device_name)
{
}

Status
NpuHal::ensureProbed()
{
    if (driver.probed())
        return Status::ok();
    return driver.probe();
}

Status
NpuHal::ensureBounce()
{
    if (bounce != 0)
        return Status::ok();
    auto region = shim.allocPages(kBouncePages);
    if (!region.isOk())
        return region.status();
    bounce = region.value();
    return shim.dmaMap(driver.device().streamId(), bounce, bounce,
                       kBouncePages);
}

Result<uint64_t>
NpuHal::createDeviceContext()
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    CRONUS_RETURN_IF_ERROR(ensureBounce());
    shim.heartbeat();
    auto ctx = driver.device().createContext();
    if (!ctx.isOk())
        return ctx.status();
    return uint64_t(ctx.value());
}

Status
NpuHal::destroyDeviceContext(uint64_t ctx, bool scrub)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    return driver.device().destroyContext(
        static_cast<accel::NpuContextId>(ctx), scrub);
}

Result<DeviceAttestation>
NpuHal::attestDevice(const Bytes &challenge)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    accel::NpuDevice &npu = driver.device();
    DeviceAttestation att;
    att.challenge = challenge;
    att.devicePublicKey = npu.devicePublicKey();
    att.configSignature = npu.attestConfig(challenge);

    ByteWriter w;
    w.putString(npu.config().name);
    w.putString(npu.compatible());
    w.putU64(accel::NpuDevice::kSramBytes);
    w.putBytes(challenge);
    if (!crypto::verify(att.devicePublicKey, w.take(),
                        att.configSignature))
        return Status(ErrorCode::AuthFailed,
                      "NPU failed hardware authenticity check");
    return att;
}

Result<uint32_t>
NpuHal::allocBuffer(uint64_t ctx, uint64_t bytes)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    return driver.device().allocBuffer(
        static_cast<accel::NpuContextId>(ctx), bytes);
}

Status
NpuHal::writeBuffer(uint64_t ctx, uint32_t buffer, uint64_t offset,
                    const Bytes &data)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    CRONUS_RETURN_IF_ERROR(ensureBounce());
    shim.heartbeat();
    hw::Platform &plat = shim.platform();
    accel::NpuDevice &npu = driver.device();
    /* Stage through the SMMU-mapped bounce buffer, as the GPU HAL
     * does: the device DMA-reads host memory under full checking. */
    uint64_t window = kBouncePages * hw::kPageSize;
    for (uint64_t off = 0; off < data.size(); off += window) {
        uint64_t len = std::min<uint64_t>(window, data.size() - off);
        CRONUS_RETURN_IF_ERROR(
            shim.write(bounce, data.data() + off, len));
        Bytes staged(len);
        CRONUS_RETURN_IF_ERROR(
            plat.dmaRead(npu, bounce, staged.data(), len));
        CRONUS_RETURN_IF_ERROR(npu.writeBuffer(
            static_cast<accel::NpuContextId>(ctx), buffer,
            offset + off, staged.data(), len));
    }
    return Status::ok();
}

Result<Bytes>
NpuHal::readBuffer(uint64_t ctx, uint32_t buffer, uint64_t offset,
                   uint64_t len)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    CRONUS_RETURN_IF_ERROR(ensureBounce());
    hw::Platform &plat = shim.platform();
    accel::NpuDevice &npu = driver.device();
    uint64_t window = kBouncePages * hw::kPageSize;
    Bytes out(len);
    for (uint64_t off = 0; off < len; off += window) {
        uint64_t n = std::min<uint64_t>(window, len - off);
        Bytes staged(n);
        Status s = npu.readBuffer(
            static_cast<accel::NpuContextId>(ctx), buffer,
            offset + off, staged.data(), n);
        if (!s.isOk())
            return s;
        CRONUS_RETURN_IF_ERROR(
            plat.dmaWrite(npu, bounce, staged.data(), n));
        /* Read the bounce window straight into the result buffer. */
        CRONUS_RETURN_IF_ERROR(
            shim.readInto(bounce, out.data() + off, n));
    }
    return out;
}

Status
NpuHal::runProgram(uint64_t ctx, const accel::NpuProgram &program)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    shim.heartbeat();
    hw::Platform &plat = shim.platform();
    plat.clock().advance(plat.costs().npuSubmitNs);
    auto done = driver.device().run(
        static_cast<accel::NpuContextId>(ctx), program,
        plat.clock().now());
    if (!done.isOk())
        return done.status();
    plat.clock().advanceTo(done.value());
    return Status::ok();
}

} // namespace cronus::mos
