/**
 * @file
 * The simulated machine: DRAM + TZASC/TZPC + SMMU + secure PCIe bus
 * + devices + root of trust, with a shared virtual clock.
 *
 * Stands in for the paper's QEMU AArch64 machine (Table II): separate
 * MemRegions for the normal and secure world, an emulated TZC-400,
 * and a "secure" PCIe bus whose devices may DMA only into secure
 * memory.
 */

#ifndef CRONUS_HW_PLATFORM_HH
#define CRONUS_HW_PLATFORM_HH

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "base/sim_clock.hh"
#include "base/stats.hh"
#include "device.hh"
#include "device_tree.hh"
#include "phys_memory.hh"
#include "root_of_trust.hh"
#include "smmu.hh"
#include "tzasc.hh"

namespace cronus::hw
{

/** Static machine configuration. */
struct PlatformConfig
{
    uint64_t normalMemBytes = 256ull << 20;
    uint64_t secureMemBytes = 128ull << 20;
    Bytes rotSeed = {'p', 'l', 'a', 't', 'f', 'o', 'r', 'm'};
    /**
     * When set, this platform charges virtual time against the given
     * clock instead of its own member clock. A multi-SoC Cluster
     * points every node at one fleet clock so cross-node timelines
     * stay totally ordered; single-node users leave it null and the
     * platform behaves exactly as before (the member clock is then
     * the effective clock). The pointee must outlive the Platform.
     */
    SimClock *externalClock = nullptr;
};

class Platform
{
  public:
    explicit Platform(const PlatformConfig &config = PlatformConfig());
    ~Platform();
    Platform(const Platform &) = delete;
    Platform &operator=(const Platform &) = delete;

    /* --- memory map --- */
    PhysAddr normalBase() const { return 0; }
    uint64_t normalSize() const { return cfg.normalMemBytes; }
    PhysAddr secureBase() const { return cfg.normalMemBytes; }
    uint64_t secureSize() const { return cfg.secureMemBytes; }

    /* --- checked DRAM access (applies TZASC filtering) --- */
    Status busRead(World from, PhysAddr addr, uint8_t *out,
                   uint64_t len);
    Status busWrite(World from, PhysAddr addr, const uint8_t *data,
                    uint64_t len);
    Result<Bytes> busRead(World from, PhysAddr addr, uint64_t len);
    Status busWrite(World from, PhysAddr addr, const Bytes &data);

    /**
     * Bookkeeping for a software-TLB fast-path access: bumps the
     * byte counter exactly as busRead/busWrite would. The SPM uses
     * this when a TLB hit with an annotated host page lets it copy
     * directly; the TZASC check is elided because it is
     * unconditional for secure-world accesses, the only traffic the
     * fast path carries.
     */
    void noteFastPathAccess(uint64_t len) { bytesCopied->inc(len); }

    /* --- checked device access (applies TZPC gating) --- */
    Result<Device *> accessDevice(const std::string &name, World from);

    /**
     * Device DMA to/from DRAM: translated by the SMMU when a stream
     * table exists, then TZASC-checked with the device's assigned
     * world. Secure-bus devices are additionally confined to secure
     * memory (the paper's QEMU PCIe modification).
     */
    Status dmaRead(const Device &dev, PhysAddr addr, uint8_t *out,
                   uint64_t len);
    Status dmaWrite(const Device &dev, PhysAddr addr,
                    const uint8_t *data, uint64_t len);

    /* --- construction --- */
    Device *registerDevice(std::unique_ptr<Device> dev, uint32_t irq);
    Device *findDevice(const std::string &name);
    const Device *findDevice(const std::string &name) const;

    /** Build a DT describing the registered devices. */
    DeviceTree buildDeviceTree() const;

    /** Finish secure boot: lock TZASC/TZPC configuration. */
    void lockDown();

    /* --- unchecked accessors (secure monitor / test introspection) */
    PhysicalMemory &dram() { return memory; }
    Tzasc &tzasc() { return addressController; }
    Tzpc &tzpc() { return protectionController; }
    Smmu &smmu() { return systemMmu; }
    RootOfTrust &rootOfTrust() { return rot; }

    SimClock &clock() { return cfg.externalClock ? *cfg.externalClock
                                                 : simClock; }
    const CostModel &costs() const { return costModel; }
    /** Mutable cost model for what-if experiments (e.g. the §VII-B
     *  hardware-assisted trusted-shared-memory ablation). */
    CostModel &mutableCosts() { return costModel; }
    StatGroup &stats() { return statGroup; }

    /** Charge virtual time for a CPU memcpy of @p bytes. */
    void chargeMemcpy(uint64_t bytes);
    /** Charge virtual time for a DMA of @p bytes. */
    void chargeDma(uint64_t bytes);

    /**
     * Replace the TZASC as the bus access classifier. Installed by
     * isolation backends whose substrate has no TZASC (the RISC-V
     * PMP backend classifies untrusted traffic with a locked
     * machine-level PMP instead); when unset, the TZASC decides --
     * the default TrustZone path is untouched. Denials are counted
     * by the filter's owner, not by `tzasc_faults`.
     */
    using BusFilter = std::function<Status(
        World from, PhysAddr addr, uint64_t len, bool is_write)>;
    void setBusFilter(BusFilter filter)
    {
        busFilter = std::move(filter);
    }
    void clearBusFilter() { busFilter = nullptr; }

  private:
    /** TZASC check, or the installed backend filter. */
    Status
    classifyAccess(World from, PhysAddr addr, uint64_t len,
                   bool is_write)
    {
        if (busFilter)
            return busFilter(from, addr, len, is_write);
        Status s = addressController.checkAccess(addr, len, from);
        if (!s.isOk())
            statGroup.counter("tzasc_faults").inc();
        return s;
    }

    PlatformConfig cfg;
    PhysicalMemory memory;
    Tzasc addressController;
    Tzpc protectionController;
    Smmu systemMmu;
    RootOfTrust rot;
    SimClock simClock;
    CostModel costModel;
    StatGroup statGroup;

    BusFilter busFilter;
    /* Cached so the hot path skips the StatGroup map lookup. */
    Counter *bytesCopied = nullptr;
    std::map<std::string, std::unique_ptr<Device>> devices;
    std::map<std::string, PhysAddr> mmioBases;
    PhysAddr nextMmioBase = 1ull << 40;
    StreamId nextStream = 1;
};

} // namespace cronus::hw

#endif // CRONUS_HW_PLATFORM_HH
