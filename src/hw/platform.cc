#include "platform.hh"

#include "base/logging.hh"
#include "obs/trace.hh"

namespace cronus::hw
{

Platform::Platform(const PlatformConfig &config)
    : cfg(config),
      memory(config.normalMemBytes + config.secureMemBytes),
      rot(config.rotSeed)
{
    Status s = addressController.addRegion(
        MemRegion{"normal-dram", normalBase(), normalSize(),
                  World::Normal},
        World::Secure);
    CRONUS_ASSERT(s.isOk(), "normal region setup: " + s.toString());
    s = addressController.addRegion(
        MemRegion{"secure-dram", secureBase(), secureSize(),
                  World::Secure},
        World::Secure);
    CRONUS_ASSERT(s.isOk(), "secure region setup: " + s.toString());
    bytesCopied = &statGroup.counter("bus_bytes_copied");
    /* Register the virtual clock so the tracer can stamp events in
     * virtual time (it only reads the clock -- zero cost charged).
     * With an external (fleet-shared) clock configured, that is the
     * clock events must be stamped from. */
    obs::Tracer::instance().attachClock(&clock());
}

Platform::~Platform()
{
    obs::Tracer::instance().detachClock(&clock());
}

Status
Platform::busRead(World from, PhysAddr addr, uint8_t *out,
                  uint64_t len)
{
    Status s = classifyAccess(from, addr, len, false);
    if (!s.isOk())
        return s;
    bytesCopied->inc(len);
    return memory.read(addr, out, len);
}

Status
Platform::busWrite(World from, PhysAddr addr, const uint8_t *data,
                   uint64_t len)
{
    Status s = classifyAccess(from, addr, len, true);
    if (!s.isOk())
        return s;
    bytesCopied->inc(len);
    return memory.write(addr, data, len);
}

Result<Bytes>
Platform::busRead(World from, PhysAddr addr, uint64_t len)
{
    Bytes out(len);
    Status s = busRead(from, addr, out.data(), len);
    if (!s.isOk())
        return s;
    return out;
}

Status
Platform::busWrite(World from, PhysAddr addr, const Bytes &data)
{
    return busWrite(from, addr, data.data(), data.size());
}

Result<Device *>
Platform::accessDevice(const std::string &name, World from)
{
    auto it = devices.find(name);
    if (it == devices.end())
        return Status(ErrorCode::NotFound,
                      "no device '" + name + "'");
    Status s = protectionController.checkAccess(name, from);
    if (!s.isOk()) {
        statGroup.counter("tzpc_faults").inc();
        return s;
    }
    return it->second.get();
}

Status
Platform::dmaRead(const Device &dev, PhysAddr addr, uint8_t *out,
                  uint64_t len)
{
    World dev_world = protectionController.deviceWorld(dev.name());
    if (systemMmu.hasStream(dev.streamId())) {
        Translation t = systemMmu.translate(dev.streamId(), addr, len,
                                            false);
        if (!t.ok()) {
            statGroup.counter("smmu_faults").inc();
            return Status(ErrorCode::AccessFault,
                          "SMMU fault on DMA read");
        }
        addr = t.phys;
    }
    if (dev_world == World::Secure &&
        !addressController.isSecure(addr, len)) {
        statGroup.counter("dma_confinement_faults").inc();
        return Status(ErrorCode::AccessFault,
                      "secure-bus DMA outside secure memory");
    }
    Status s = classifyAccess(dev_world, addr, len, false);
    if (!s.isOk())
        return s;
    chargeDma(len);
    return memory.read(addr, out, len);
}

Status
Platform::dmaWrite(const Device &dev, PhysAddr addr,
                   const uint8_t *data, uint64_t len)
{
    World dev_world = protectionController.deviceWorld(dev.name());
    if (systemMmu.hasStream(dev.streamId())) {
        Translation t = systemMmu.translate(dev.streamId(), addr, len,
                                            true);
        if (!t.ok()) {
            statGroup.counter("smmu_faults").inc();
            return Status(ErrorCode::AccessFault,
                          "SMMU fault on DMA write");
        }
        addr = t.phys;
    }
    if (dev_world == World::Secure &&
        !addressController.isSecure(addr, len)) {
        statGroup.counter("dma_confinement_faults").inc();
        return Status(ErrorCode::AccessFault,
                      "secure-bus DMA outside secure memory");
    }
    Status s = classifyAccess(dev_world, addr, len, true);
    if (!s.isOk())
        return s;
    chargeDma(len);
    return memory.write(addr, data, len);
}

Device *
Platform::registerDevice(std::unique_ptr<Device> dev, uint32_t irq)
{
    CRONUS_ASSERT(devices.count(dev->name()) == 0,
                  "duplicate device '" + dev->name() + "'");
    dev->stream = nextStream++;
    dev->irqLine = irq;
    dev->platform = this;
    mmioBases[dev->name()] = nextMmioBase;
    nextMmioBase += pageAlignUp(dev->mmioSize());
    Device *raw = dev.get();
    devices.emplace(raw->name(), std::move(dev));
    return raw;
}

Device *
Platform::findDevice(const std::string &name)
{
    auto it = devices.find(name);
    return it == devices.end() ? nullptr : it->second.get();
}

const Device *
Platform::findDevice(const std::string &name) const
{
    auto it = devices.find(name);
    return it == devices.end() ? nullptr : it->second.get();
}

DeviceTree
Platform::buildDeviceTree() const
{
    DeviceTree dt;
    for (const auto &[name, dev] : devices) {
        DtNode node;
        node.name = name;
        node.compatible = dev->compatible();
        node.mmioBase = mmioBases.at(name);
        node.mmioSize = dev->mmioSize();
        node.irq = dev->irq();
        node.world = protectionController.deviceWorld(name);
        node.memBytes = dev->memoryBytes();
        dt.addNode(node);
    }
    return dt;
}

void
Platform::lockDown()
{
    addressController.lockDown();
    protectionController.lockDown();
}

void
Platform::chargeMemcpy(uint64_t bytes)
{
    clock().advance(
        static_cast<SimTime>(bytes * costModel.memcpyNsPerByte));
}

void
Platform::chargeDma(uint64_t bytes)
{
    clock().advance(
        static_cast<SimTime>(bytes * costModel.dmaNsPerByte));
}

} // namespace cronus::hw
