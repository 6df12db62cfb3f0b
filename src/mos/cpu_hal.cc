#include "cpu_hal.hh"

#include "base/logging.hh"

namespace cronus::mos
{

CpuHal::CpuHal(ShimKernel &shim_kernel, const std::string &device_name)
    : Hal(shim_kernel), devName(device_name)
{
}

Status
CpuHal::ensureProbed()
{
    if (cpu != nullptr)
        return Status::ok();
    auto dev = shim.ioremap(devName);
    if (!dev.isOk())
        return dev.status();
    auto *as_cpu = dynamic_cast<accel::CpuDevice *>(dev.value());
    if (as_cpu == nullptr)
        return Status(ErrorCode::InvalidArgument,
                      "'" + devName + "' is not a CPU");
    cpu = as_cpu;
    return Status::ok();
}

accel::CpuDevice &
CpuHal::rawDevice()
{
    CRONUS_ASSERT(cpu != nullptr, "CPU HAL not probed");
    return *cpu;
}

Result<uint64_t>
CpuHal::createDeviceContext()
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    shim.heartbeat();
    auto ctx = cpu->createContext();
    if (!ctx.isOk())
        return ctx.status();
    return uint64_t(ctx.value());
}

Status
CpuHal::destroyDeviceContext(uint64_t ctx, bool scrub)
{
    (void)scrub;
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    return cpu->destroyContext(static_cast<accel::CpuContextId>(ctx));
}

Result<DeviceAttestation>
CpuHal::attestDevice(const Bytes &challenge)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    DeviceAttestation att;
    att.challenge = challenge;
    att.devicePublicKey = cpu->devicePublicKey();
    att.configSignature = cpu->attestConfig(challenge);

    ByteWriter w;
    w.putString(cpu->config().name);
    w.putString(cpu->compatible());
    w.putU64(accel::CpuDevice::kCores);
    w.putBytes(challenge);
    if (!crypto::verify(att.devicePublicKey, w.take(),
                        att.configSignature))
        return Status(ErrorCode::AuthFailed,
                      "CPU failed hardware authenticity check");
    return att;
}

Status
CpuHal::execute(uint64_t ctx, uint64_t work_units,
                const std::function<Status()> &fn)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    shim.heartbeat();
    auto cost = cpu->execute(static_cast<accel::CpuContextId>(ctx),
                             work_units, fn);
    if (!cost.isOk())
        return cost.status();
    shim.platform().clock().advance(cost.value());
    return Status::ok();
}

} // namespace cronus::mos
