/**
 * @file
 * Spatial sharing and multi-GPU data-parallel drivers (Fig. 11).
 *
 * Fig. 11a: N mEnclaves train LeNet concurrently on ONE GPU; MPS-
 * style packing raises aggregate throughput until the SMs saturate
 * (paper: up to 63.4% at 2 enclaves, degradation at 4).
 *
 * Fig. 11b: data-parallel LeNet across 1-4 GPUs; gradients are
 * exchanged per iteration over one of three transports -- direct
 * P2P over the (trusted) PCIe shared memory, staging through secure
 * CPU memory, or encrypted staging (the HIX/Graviton approach).
 */

#ifndef CRONUS_WORKLOADS_SHARING_HH
#define CRONUS_WORKLOADS_SHARING_HH

#include "base/sim_clock.hh"
#include "base/status.hh"

namespace cronus::workloads
{

struct SpatialConfig
{
    uint32_t enclaves = 2;
    uint32_t iterationsPerEnclave = 6;
    uint32_t batchSize = 256;
    /**
     * Temporal mode: each enclave gets dedicated, serialized access
     * to the GPU (what bus-customizing hardware TEEs provide,
     * Table I). Spatial mode (default) lets the streams overlap.
     */
    bool temporal = false;
};

struct SpatialResult
{
    uint32_t enclaves = 0;
    SimTime totalTimeNs = 0;
    double imagesPerSecond = 0.0;
};

/** Fig. 11a: N LeNet trainers spatially sharing one GPU. */
Result<SpatialResult> runSpatialSharing(const SpatialConfig &config);

enum class GradTransport
{
    P2pPcie,          ///< trusted shared GPU memory over PCIe
    SecureMemStaging, ///< bounce through secure CPU memory
    EncryptedStaging, ///< bounce + AES/HMAC both ways
};

const char *gradTransportName(GradTransport transport);

struct DistributedConfig
{
    uint32_t gpus = 2;
    GradTransport transport = GradTransport::P2pPcie;
    uint32_t iterations = 6;
};

struct DistributedResult
{
    uint32_t gpus = 0;
    GradTransport transport = GradTransport::P2pPcie;
    SimTime perIterationNs = 0;
};

/** Fig. 11b: data-parallel LeNet training across @p gpus GPUs. */
Result<DistributedResult> runDataParallel(
    const DistributedConfig &config);

} // namespace cronus::workloads

#endif // CRONUS_WORKLOADS_SHARING_HH
