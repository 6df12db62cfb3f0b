/**
 * @file
 * CRONUS as a ComputeBackend: a CPU mEnclave driving a CUDA
 * mEnclave and an NPU mEnclave over sRPC channels, exactly the
 * Fig. 2 deployment the evaluation measures.
 */

#ifndef CRONUS_BASELINE_CRONUS_BACKEND_HH
#define CRONUS_BASELINE_CRONUS_BACKEND_HH

#include "compute_backend.hh"
#include "core/auto_partition.hh"
#include "core/system.hh"

namespace cronus::baseline
{

struct CronusBackendConfig
{
    std::vector<std::string> gpuKernels;
    bool withNpu = true;
};

class CronusBackend : public ComputeBackend
{
  public:
    explicit CronusBackend(
        const CronusBackendConfig &config = CronusBackendConfig());

    std::string name() const override { return "CRONUS"; }
    bool isProtected() const override { return true; }

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

    core::CronusSystem &system() { return *sys; }

  private:
    Status ensureGpuChannel();
    Status ensureNpuChannel();

    CronusBackendConfig cfg;
    std::unique_ptr<core::CronusSystem> sys;
    core::AppHandle cpuEnclave;
    core::AppHandle gpuEnclave;
    core::AppHandle npuEnclave;
    std::unique_ptr<core::SrpcChannel> gpuChannel;
    std::unique_ptr<core::SrpcChannel> npuChannel;
    bool gpuUp = false;
    bool npuUp = false;
    core::SrpcConfig srpcConfig;
};

} // namespace cronus::baseline

#endif // CRONUS_BASELINE_CRONUS_BACKEND_HH
