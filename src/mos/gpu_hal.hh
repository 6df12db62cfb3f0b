/**
 * @file
 * GPU HAL (simulated nouveau driver).
 *
 * The paper builds the GPU HAL from the open-source nouveau driver
 * plus gdev/ocelot for the CUDA runtime (§V-B). GpuHal adds to the
 * shared DeviceHal skeleton the CUDA-ish operations the CUDA
 * mEnclave runtime needs (malloc/memcpy/launch/synchronize/module
 * loading/checkpointing).
 */

#ifndef CRONUS_MOS_GPU_HAL_HH
#define CRONUS_MOS_GPU_HAL_HH

#include "accel/gpu.hh"
#include "hal.hh"

namespace cronus::mos
{

class GpuHal : public DeviceHal<accel::GpuDevice>
{
  public:
    using DeviceHal::DeviceHal;

    std::string deviceType() const override { return "gpu"; }

    /* --- CUDA-facing operations (used by the CUDA runtime) --- */
    Status loadModule(uint64_t ctx, const accel::GpuModuleImage &image);
    Result<accel::GpuVa> memAlloc(uint64_t ctx, uint64_t bytes);
    Status memFree(uint64_t ctx, accel::GpuVa va);
    /** Host-to-device copy: DMA cost charged on the platform. */
    Status memcpyHtoD(uint64_t ctx, accel::GpuVa dst,
                      const Bytes &src);
    /** Device-to-host copy: synchronizes the stream first. */
    Result<Bytes> memcpyDtoH(uint64_t ctx, accel::GpuVa src,
                             uint64_t len);
    /** Asynchronous kernel launch. */
    Status launchKernel(uint64_t ctx, const std::string &kernel,
                        const std::vector<uint64_t> &args,
                        uint64_t work_items);
    /** Block (advance the clock) until the context stream drains. */
    Status synchronize(uint64_t ctx);

    /** Serialize the context's device memory (checkpointing). */
    Result<Bytes> snapshotContext(uint64_t ctx);
    /** Rebuild a fresh context's device memory from a snapshot. */
    Status restoreContext(uint64_t ctx, const Bytes &snapshot);
};

} // namespace cronus::mos

#endif // CRONUS_MOS_GPU_HAL_HH
