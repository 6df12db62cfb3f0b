#include "cpu.hh"

namespace cronus::accel
{

CpuDevice::CpuDevice(const CpuConfig &config)
    : AttestedDevice(config.name, "arm,cortex-a53-sim", 0x100,
                     config.rotSeed),
      cfg(config)
{
}

Result<uint64_t>
CpuDevice::mmioRead(uint64_t offset)
{
    switch (offset) {
      case 0x0: return kMagic;
      case 0x8: return uint64_t(kCores);
      default:
        return Status(ErrorCode::AccessFault, "cpu mmio oob read");
    }
}

Status
CpuDevice::mmioWrite(uint64_t offset, uint64_t value)
{
    (void)value;
    if (offset >= mmioSize())
        return Status(ErrorCode::AccessFault, "cpu mmio oob write");
    return Status::ok();
}

void
CpuDevice::reset(bool clear_memory)
{
    (void)clear_memory;
    contexts.clear();
}

Result<CpuContextId>
CpuDevice::createContext()
{
    CpuContextId id = nextCtx++;
    contexts[id] = 0;
    return id;
}

Status
CpuDevice::destroyContext(CpuContextId ctx, bool scrub)
{
    (void)scrub;
    if (contexts.erase(ctx) == 0)
        return Status(ErrorCode::NotFound, "no such CPU context");
    return Status::ok();
}

Result<SimTime>
CpuDevice::execute(CpuContextId ctx, uint64_t work_units,
                   const std::function<Status()> &fn)
{
    auto it = contexts.find(ctx);
    if (it == contexts.end())
        return Status(ErrorCode::NotFound, "no such CPU context");
    if (fn) {
        Status s = fn();
        if (!s.isOk())
            return s;
    }
    it->second += work_units;
    return static_cast<SimTime>(work_units * kNsPerWorkUnit);
}

} // namespace cronus::accel
