/**
 * @file
 * Simulated CUDA-class GPU.
 *
 * Stands in for the paper's NVIDIA GTX 2080 driven by nouveau/gdev.
 * The device provides:
 *  - device-local VRAM with per-context virtual address spaces
 *    (GPU virtual-address isolation, the paper's spatial-sharing
 *    mechanism on GTX 2080),
 *  - module loading ("cubin" images listing kernels),
 *  - an asynchronous launch queue per context with a timing model
 *    that captures MPS-style spatial sharing: concurrent contexts
 *    pack onto the SMs until aggregate utilization exceeds 1.0,
 *    after which kernels slow down proportionally (plus a small
 *    contention penalty), reproducing Fig. 11a's shape,
 *  - a device root of trust for hardware authenticity attestation.
 *
 * Kernels execute *functionally* (real C++ bodies over VRAM) at
 * launch; their *timing* is modeled analytically on the virtual
 * clock, so results are deterministic.
 */

#ifndef CRONUS_ACCEL_GPU_HH
#define CRONUS_ACCEL_GPU_HH

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "attested_device.hh"
#include "base/sim_clock.hh"
#include "base/status.hh"
#include "hw/page_table.hh"

namespace cronus::accel
{

using GpuContextId = uint32_t;
using GpuVa = uint64_t;

class GpuDevice;

/**
 * Checked access to one context's GPU memory. Kernels receive this
 * accessor; all loads/stores are translated through the context's
 * VA space, so a kernel cannot touch another context's memory.
 */
class GpuAccessor
{
  public:
    GpuAccessor(GpuDevice &device, GpuContextId ctx)
        : dev(device), ctxId(ctx) {}

    /** Map a contiguous VA range as a typed span. */
    template <typename T>
    Result<T *>
    span(GpuVa va, size_t count)
    {
        auto raw = mapRange(va, count * sizeof(T), true);
        if (!raw.isOk())
            return raw.status();
        return reinterpret_cast<T *>(raw.value());
    }

    template <typename T>
    Result<const T *>
    constSpan(GpuVa va, size_t count)
    {
        auto raw = mapRange(va, count * sizeof(T), false);
        if (!raw.isOk())
            return raw.status();
        return reinterpret_cast<const T *>(raw.value());
    }

  private:
    Result<uint8_t *> mapRange(GpuVa va, uint64_t len, bool write);

    GpuDevice &dev;
    GpuContextId ctxId;
};

/** Launch geometry: total work items and per-item cost weight. */
struct LaunchDims
{
    uint64_t workItems = 1;
};

/** A registered GPU kernel: functional body + timing properties. */
struct GpuKernel
{
    /** Functional body; returns error on faulting access. */
    std::function<Status(GpuAccessor &, const std::vector<uint64_t> &,
                         const LaunchDims &)> body;
    /** Fraction of the SMs this kernel can keep busy (0..1]. */
    double utilization = 0.9;
    /** Virtual ns of GPU time per work item at full utilization. */
    double nsPerItem = 1.0;
    /** Fixed launch overhead on the device, ns. */
    uint64_t launchOverheadNs = 4000;
};

/**
 * Process-wide kernel registry; "cubin" module images reference
 * kernels by name.
 */
class GpuKernelRegistry
{
  public:
    static GpuKernelRegistry &instance();

    /** First registration of a name wins; re-registering is a no-op
     *  (see CpuFunctionRegistry::registerFunction). */
    void registerKernel(const std::string &name, GpuKernel kernel);
    const GpuKernel *find(const std::string &name) const;
    bool has(const std::string &name) const;

  private:
    std::map<std::string, GpuKernel> kernels;
};

/** A "cubin" image: names of kernels the module exports. */
struct GpuModuleImage
{
    std::string name;
    std::vector<std::string> kernels;

    Bytes serialize() const;
    static Result<GpuModuleImage> deserialize(const Bytes &data);
};

/** Per-device configuration. */
struct GpuConfig
{
    std::string name = "gpu0";
    uint64_t vramBytes = 64ull << 20;
    Bytes rotSeed = {'g', 'p', 'u', '-', 'r', 'o', 't'};
};

class GpuDevice : public AttestedDevice
{
  public:
    explicit GpuDevice(const GpuConfig &config = GpuConfig());

    static constexpr uint64_t kMagic = 0x47505553; ///< 'GPUS'
    /** Max contexts (channels) the device supports. */
    static constexpr uint32_t kMaxContexts = 16;

    /* --- hw::Device interface --- */
    Result<uint64_t> mmioRead(uint64_t offset) override;
    Status mmioWrite(uint64_t offset, uint64_t value) override;
    void reset(bool clear_memory) override;
    uint64_t memoryBytes() const override { return cfg.vramBytes; }

    /* --- context management (driver-facing) --- */
    Result<GpuContextId> createContext();
    Status destroyContext(GpuContextId ctx, bool scrub);
    size_t contextCount() const { return contexts.size(); }

    /* --- memory management --- */
    Result<GpuVa> malloc(GpuContextId ctx, uint64_t bytes);
    Status free(GpuContextId ctx, GpuVa va);
    Status write(GpuContextId ctx, GpuVa va, const uint8_t *data,
                 uint64_t len);
    Status read(GpuContextId ctx, GpuVa va, uint8_t *out,
                uint64_t len);
    /** Free VRAM remaining, bytes. */
    uint64_t freeVram() const;

    /* --- checkpoint / restore --- */

    /**
     * Serialize the context's allocations (VA, size, contents) into
     * an opaque blob. Allocation order is the VA-sorted map order,
     * so the blob is deterministic.
     */
    Result<Bytes> snapshotContext(GpuContextId ctx) const;

    /**
     * Rebuild a *fresh* context's memory from @p snapshot. VAs are
     * assigned sequentially by malloc, so replaying the allocations
     * in snapshot (ascending-VA) order on an empty context
     * reproduces the original addresses; a mismatch aborts.
     */
    Status restoreContext(GpuContextId ctx, const Bytes &snapshot);

    /* --- modules and kernels --- */
    Status loadModule(GpuContextId ctx, const GpuModuleImage &image);

    /**
     * Asynchronously launch a kernel: the functional body runs now,
     * the completion time is queued on the context's stream.
     * @p now is the submitting CPU's virtual time.
     */
    Result<SimTime> launch(GpuContextId ctx, const std::string &kernel,
                           const std::vector<uint64_t> &args,
                           const LaunchDims &dims, SimTime now);

    /** Virtual time at which the context's stream goes idle. */
    SimTime streamBusyUntil(GpuContextId ctx) const;

    /** Number of contexts with work in flight at time @p now. */
    uint32_t activeContexts(SimTime now) const;

    uint64_t configWord() const override { return cfg.vramBytes; }

    const GpuConfig &config() const { return cfg; }

    /** Aggregated software-TLB counters over all context VA spaces
     *  (kernel bodies translate every span through them). */
    hw::TlbCounters
    tlbCounters() const
    {
        hw::TlbCounters sum;
        for (const auto &[id, context] : contexts)
            sum.add(context.vaSpace.tlbCounters());
        return sum;
    }

  private:
    friend class GpuAccessor;

    struct Allocation
    {
        uint64_t offset; ///< VRAM offset
        uint64_t bytes;
    };

    struct Context
    {
        hw::PageTable vaSpace;
        std::map<GpuVa, Allocation> allocations;
        GpuVa nextVa = 0x10000000;
        std::set<std::string> loadedKernels;
        SimTime busyUntil = 0;
        double currentUtilization = 0.0;
    };

    Result<Context *> findContext(GpuContextId ctx);
    Result<uint8_t *> translate(GpuContextId ctx, GpuVa va,
                                uint64_t len, bool write);

    GpuConfig cfg;
    std::vector<uint8_t> vram;
    uint64_t vramNext = 0;
    std::vector<std::pair<uint64_t, uint64_t>> vramFreeList;
    std::map<GpuContextId, Context> contexts;
    GpuContextId nextCtx = 1;
};

} // namespace cronus::accel

#endif // CRONUS_ACCEL_GPU_HH
