/**
 * @file
 * CPU HAL: OPTEE-style HAL for CPU mEnclaves (§V-B).
 */

#ifndef CRONUS_MOS_CPU_HAL_HH
#define CRONUS_MOS_CPU_HAL_HH

#include <functional>

#include "accel/cpu.hh"
#include "hal.hh"

namespace cronus::mos
{

class CpuHal : public DeviceHal<accel::CpuDevice>
{
  public:
    using DeviceHal::DeviceHal;

    std::string deviceType() const override { return "cpu"; }

    /** Run a function charging @p work_units of CPU time. */
    Status execute(uint64_t ctx, uint64_t work_units,
                   const std::function<Status()> &fn);
};

} // namespace cronus::mos

#endif // CRONUS_MOS_CPU_HAL_HH
