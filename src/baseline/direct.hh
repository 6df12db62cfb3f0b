/**
 * @file
 * Direct-driver baselines (§VI-A "Linux" and "TrustZone").
 *
 * Both drive the GPU and NPU drivers directly with identical
 * per-operation charges; they differ only in where the drivers run.
 *
 *   - Linux: native, unprotected. No TEE, no world switches, no
 *     authentication.
 *   - TrustZone: all device drivers live in one monolithic trusted
 *     OS in the secure world (the SecureMonitor boots over an
 *     all-secure device tree). The training/compute loops run
 *     entirely inside the TEE, so GPU/NPU calls are local function
 *     calls over trusted memory -- fast, and spatial sharing works
 *     (R1, R2). The price is isolation: a fault in ANY driver
 *     crashes the whole secure world (all enclaves, all
 *     accelerators), and recovery means rebooting the machine
 *     (violating R3.1); every enclave must trust every driver
 *     (violating R3.2).
 *
 * On either kind a GPU driver fault takes everything down with it.
 */

#ifndef CRONUS_BASELINE_DIRECT_HH
#define CRONUS_BASELINE_DIRECT_HH

#include "accel/gpu.hh"
#include "compute_backend.hh"
#include "hw/platform.hh"
#include "tee/secure_monitor.hh"

namespace cronus::baseline
{

class DirectBackend : public ComputeBackend
{
  public:
    enum class Kind
    {
        Linux,
        TrustZone,
    };

    /** @p gpu_kernels is the module loaded into the one context. */
    DirectBackend(Kind backend_kind,
                  std::vector<std::string> gpu_kernels);

    std::string name() const override
    {
        return kind == Kind::Linux ? "Linux" : "TrustZone";
    }
    bool isProtected() const override
    {
        return kind == Kind::TrustZone;
    }

    Result<uint64_t> gpuAlloc(uint64_t bytes) override;
    Status gpuFree(uint64_t va) override;
    Status copyToGpu(uint64_t va, const Bytes &data) override;
    Result<Bytes> copyFromGpu(uint64_t va, uint64_t len) override;
    Status launchKernel(const std::string &kernel,
                        const std::vector<uint64_t> &args,
                        uint64_t work_items) override;
    Status gpuSynchronize() override;

    Result<uint32_t> npuAllocBuffer(uint64_t bytes) override;
    Status npuWriteBuffer(uint32_t buffer, uint64_t offset,
                          const Bytes &data) override;
    Result<Bytes> npuReadBuffer(uint32_t buffer, uint64_t offset,
                                uint64_t len) override;
    Status npuRun(const accel::NpuProgram &program) override;

    Status cpuWork(uint64_t work_units) override;
    SimTime now() const override;

    Status injectGpuFault() override;
    Result<SimTime> recoverGpu() override;
    bool othersAlive() override;

    /**
     * Monolithic-design probe: the (possibly malicious) NPU driver,
     * living in the same trusted OS, reads another enclave's GPU
     * data. Succeeds on TrustZone -- demonstrating the R3.2
     * violation the attack suite checks.
     */
    Result<Bytes> maliciousDriverReadsGpu(uint64_t va, uint64_t len);

    hw::Platform &platform() { return *plat; }

  private:
    Status ensureAlive() const;
    /** Fresh contexts with the GPU module loaded (boot, reboot). */
    Status openContexts();

    Kind kind;
    std::vector<std::string> kernels;
    std::unique_ptr<hw::Platform> plat;
    /** TrustZone only: the monitor of the monolithic secure OS. */
    std::unique_ptr<tee::SecureMonitor> monitor;
    accel::GpuDevice *gpu = nullptr;
    accel::NpuDevice *npu = nullptr;
    accel::GpuContextId gpuCtx = 0;
    accel::NpuContextId npuCtx = 0;
    bool down = false;
};

} // namespace cronus::baseline

#endif // CRONUS_BASELINE_DIRECT_HH
