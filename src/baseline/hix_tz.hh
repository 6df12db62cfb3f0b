/**
 * @file
 * HIX-TrustZone baseline (§VI-A).
 *
 * Emulates HIX on TrustZone the way the paper does: the GPU driver
 * runs inside a dedicated GPU enclave with exclusive device access,
 * and the application enclave talks to it with *encrypted,
 * acknowledged, lock-step RPC over untrusted memory*. Every
 * hardware control message is its own round trip: AES-CTR + HMAC
 * seal, copy into normal-world memory, world switches in and out,
 * unseal, execute, sealed ack back. Large copies are chunked at the
 * control-message payload size, which is why HIX trails CRONUS on
 * memcpy-heavy workloads (Fig. 7/8).
 *
 * The normal world genuinely carries the ciphertext: the attack
 * suite can observe (but not decrypt) RPC traffic and its timing.
 */

#ifndef CRONUS_BASELINE_HIX_TZ_HH
#define CRONUS_BASELINE_HIX_TZ_HH

#include "accel/gpu.hh"
#include "compute_backend.hh"
#include "crypto/aes.hh"
#include "hw/platform.hh"
#include "tee/secure_monitor.hh"

namespace cronus::baseline
{

/** One observed (encrypted) RPC message, as the normal OS sees it. */
struct ObservedMessage
{
    SimTime when = 0;
    uint64_t bytes = 0;
    Bytes ciphertext;  ///< first bytes only, for the attack tests
};

class HixTzBackend : public ComputeBackend
{
  public:
    /** @p gpu_kernels is the module loaded into the one context. */
    explicit HixTzBackend(std::vector<std::string> gpu_kernels);

    std::string name() const override { return "HIX-TrustZone"; }
    bool isProtected() const override { return true; }

    Result<uint64_t> gpuAlloc(uint64_t bytes) override;
    Status gpuFree(uint64_t va) override;
    Status copyToGpu(uint64_t va, const Bytes &data) override;
    Result<Bytes> copyFromGpu(uint64_t va, uint64_t len) override;
    Status launchKernel(const std::string &kernel,
                        const std::vector<uint64_t> &args,
                        uint64_t work_items) override;
    Status gpuSynchronize() override;

    /* HIX supports only GPUs (§VI-A). */
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

    /** RPC traffic as visible to the untrusted OS. */
    const std::vector<ObservedMessage> &observedMessages() const
    {
        return observed;
    }

    hw::Platform &platform() { return *plat; }

  private:
    Status ensureAlive() const;
    /** One lock-step round trip carrying @p payload bytes. */
    Status rpcRoundTrip(const Bytes &payload);

    std::vector<std::string> kernels;
    std::unique_ptr<hw::Platform> plat;
    std::unique_ptr<tee::SecureMonitor> monitor;
    accel::GpuDevice *gpu = nullptr;
    accel::GpuContextId gpuCtx = 0;
    Bytes sessionSecret;
    uint64_t nonce = 0;
    std::vector<ObservedMessage> observed;
    hw::PhysAddr mailbox = 0;
    bool gpuEnclaveDown = false;
};

} // namespace cronus::baseline

#endif // CRONUS_BASELINE_HIX_TZ_HH
