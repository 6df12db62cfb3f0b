#include "cpu.hh"

namespace cronus::accel
{

CpuDevice::CpuDevice(const CpuConfig &config)
    : hw::Device(config.name, "arm,cortex-a53-sim", 0x100),
      cfg(config), rotKeys(crypto::deriveKeyPair(config.rotSeed))
{
}

Result<uint64_t>
CpuDevice::mmioRead(uint64_t offset)
{
    switch (offset) {
      case 0x0: return uint64_t(0x43505553);  /* 'CPUS' */
      case 0x8: return uint64_t(cfg.cores);
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
CpuDevice::destroyContext(CpuContextId ctx)
{
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
    return static_cast<SimTime>(work_units * cfg.nsPerWorkUnit);
}

crypto::Signature
CpuDevice::attestConfig(const Bytes &challenge) const
{
    ByteWriter w;
    w.putString(cfg.name);
    w.putString(devCompatible);
    w.putU64(cfg.cores);
    w.putBytes(challenge);
    return crypto::sign(rotKeys, w.take());
}

} // namespace cronus::accel
