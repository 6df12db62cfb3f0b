/**
 * @file
 * Simulated CPU "device".
 *
 * CPU mEnclaves execute directly on cores; for symmetry with
 * accelerator partitions the CPU is modeled as a device with
 * contexts so the same mOS/HAL machinery manages all three kinds of
 * computation (§V-B).
 */

#ifndef CRONUS_ACCEL_CPU_HH
#define CRONUS_ACCEL_CPU_HH

#include <functional>
#include <map>

#include "attested_device.hh"
#include "base/sim_clock.hh"
#include "base/status.hh"

namespace cronus::accel
{

using CpuContextId = uint32_t;

struct CpuConfig
{
    std::string name = "cpu0";
    Bytes rotSeed = {'c', 'p', 'u', '-', 'r', 'o', 't'};
};

class CpuDevice : public AttestedDevice
{
  public:
    explicit CpuDevice(const CpuConfig &config = CpuConfig());

    static constexpr uint64_t kMagic = 0x43505553; ///< 'CPUS'
    static constexpr uint32_t kCores = 4;
    /** Virtual ns charged per abstract work unit. */
    static constexpr double kNsPerWorkUnit = 1.0;

    Result<uint64_t> mmioRead(uint64_t offset) override;
    Status mmioWrite(uint64_t offset, uint64_t value) override;
    void reset(bool clear_memory) override;

    Result<CpuContextId> createContext();
    /** A CPU context owns no device memory: nothing to scrub. */
    Status destroyContext(CpuContextId ctx, bool scrub);
    size_t contextCount() const { return contexts.size(); }

    /**
     * Execute @p work_units of computation in @p ctx; the functional
     * body @p fn runs immediately, cost is returned in virtual ns.
     */
    Result<SimTime> execute(CpuContextId ctx, uint64_t work_units,
                            const std::function<Status()> &fn);

    uint64_t configWord() const override { return kCores; }

    const CpuConfig &config() const { return cfg; }

  private:
    CpuConfig cfg;
    std::map<CpuContextId, uint64_t> contexts; ///< ctx -> work done
    CpuContextId nextCtx = 1;
};

} // namespace cronus::accel

#endif // CRONUS_ACCEL_CPU_HH
