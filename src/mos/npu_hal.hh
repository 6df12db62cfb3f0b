/**
 * @file
 * NPU HAL (VTA fsim style driver, §V-B).
 */

#ifndef CRONUS_MOS_NPU_HAL_HH
#define CRONUS_MOS_NPU_HAL_HH

#include "accel/npu.hh"
#include "hal.hh"

namespace cronus::mos
{

class NpuHal : public DeviceHal<accel::NpuDevice>
{
  public:
    using DeviceHal::DeviceHal;

    std::string deviceType() const override { return "npu"; }

    /* --- VTA-facing operations --- */
    Result<uint32_t> allocBuffer(uint64_t ctx, uint64_t bytes);
    Status writeBuffer(uint64_t ctx, uint32_t buffer, uint64_t offset,
                       const Bytes &data);
    Result<Bytes> readBuffer(uint64_t ctx, uint32_t buffer,
                             uint64_t offset, uint64_t len);
    /** Run a program; blocks (advances the clock) to completion. */
    Status runProgram(uint64_t ctx, const accel::NpuProgram &program);
};

} // namespace cronus::mos

#endif // CRONUS_MOS_NPU_HAL_HH
