/**
 * @file
 * mEnclave execution models (§IV-A).
 *
 * An mEnclave is a black-box executor <mECalls, state>. The
 * *execution model* defines how an image is loaded and how mECalls
 * run: a CPU mEnclave executes functions from a dynamic-library-like
 * image, a CUDA mEnclave executes a CUDA ELF through the GPU HAL,
 * an NPU mEnclave executes VTA programs through the NPU HAL.
 */

#ifndef CRONUS_CORE_ENCLAVE_RUNTIME_HH
#define CRONUS_CORE_ENCLAVE_RUNTIME_HH

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "accel/npu.hh"
#include "manifest.hh"
#include "mos/cpu_hal.hh"
#include "mos/gpu_hal.hh"
#include "mos/npu_hal.hh"

namespace cronus::core
{

/** Common interface of all execution models. */
class EnclaveRuntime
{
  public:
    explicit EnclaveRuntime(mos::Hal &hal) : deviceHal(hal) {}
    virtual ~EnclaveRuntime() = default;

    /** "cpu-libos" | "cuda" | "vta" */
    virtual std::string executionModel() const = 0;

    /**
     * Allocate the device context (me_create). The enclave is an
     * unbound shell until meBind() attaches a module: mECalls fail
     * with InvalidState. Warm pools pre-create shells so a
     * request-time instantiation is a bind, not a full create
     * (§IV-A cold-start amortization).
     */
    Status meCreate();

    /**
     * Parse and load a module image onto the created context (bind
     * or rebind). Rebind is allowed within one owner's trust domain:
     * the manager swaps the manifest at the same time, so only the
     * newly bound module's mECalls remain callable.
     */
    virtual Status meBind(const Bytes &image) = 0;

    /** Execute one mECall against internal state. */
    virtual Result<Bytes> meCall(const std::string &fn,
                                 const Bytes &args) = 0;

    /** Release the device context; @p scrub also clears device
     *  state. */
    Status meDestroy(bool scrub);

    /**
     * Serialize the executor's internal state (checkpointing
     * support, §III-B: applications may integrate data-recovery
     * techniques; the sealed form lets an owner restore state into
     * a fresh enclave after a partition failure). Unsupported by
     * default.
     */
    virtual Result<Bytes>
    meSnapshot()
    {
        return Status(ErrorCode::Unsupported,
                      "execution model has no snapshot support");
    }

    virtual Status
    meRestore(const Bytes &snapshot)
    {
        (void)snapshot;
        return Status(ErrorCode::Unsupported,
                      "execution model has no restore support");
    }

  protected:
    uint64_t deviceCtx = 0;
    bool created = false;

  private:
    mos::Hal &deviceHal;
};

/* ------------------------------------------------------------------ */
/* CPU execution model                                                 */
/* ------------------------------------------------------------------ */

/** Call context handed to CPU enclave functions. */
struct CpuCallContext
{
    const Bytes &args;
    /** Enclave-private key/value state (the executor's `state`). */
    std::map<std::string, Bytes> &store;
    /** Charge @p units of CPU work to the virtual clock. */
    std::function<Status(uint64_t)> charge;
};

using CpuFunction = std::function<Result<Bytes>(CpuCallContext &)>;

/**
 * Registry of host-compiled functions standing in for the contents
 * of CPU mEnclave dynamic libraries. An image names the functions it
 * exports (like a .so's symbol table).
 */
class CpuFunctionRegistry
{
  public:
    static CpuFunctionRegistry &instance();

    /**
     * Install a function body. First registration of a name wins;
     * re-registering is a no-op, so a pointer returned by find() is
     * never replaced under a running call.
     */
    void registerFunction(const std::string &name, CpuFunction fn);
    const CpuFunction *find(const std::string &name) const;
    bool has(const std::string &name) const;

  private:
    std::map<std::string, CpuFunction> functions;
};

/** Serialized CPU image: list of exported function names. */
struct CpuImage
{
    std::vector<std::string> exports;

    Bytes serialize() const;
    static Result<CpuImage> deserialize(const Bytes &data);
};

class CpuRuntime : public EnclaveRuntime
{
  public:
    explicit CpuRuntime(mos::CpuHal &hal)
        : EnclaveRuntime(hal), cpuHal(hal) {}

    std::string executionModel() const override { return "cpu-libos"; }
    Status meBind(const Bytes &image) override;
    Result<Bytes> meCall(const std::string &fn,
                         const Bytes &args) override;
    Result<Bytes> meSnapshot() override;
    Status meRestore(const Bytes &snapshot) override;

  private:
    mos::CpuHal &cpuHal;
    bool moduleBound = false;
    std::set<std::string> exports;
    std::map<std::string, Bytes> store;
};

/* ------------------------------------------------------------------ */
/* CUDA execution model                                                */
/* ------------------------------------------------------------------ */

/**
 * CUDA mEnclave: the image is a cubin (GpuModuleImage); mECalls are
 * the CUDA driver API surface. Argument encodings (little-endian,
 * via ByteWriter) are provided as static helpers so callers and the
 * runtime cannot drift apart.
 */
class CudaRuntime : public EnclaveRuntime
{
  public:
    explicit CudaRuntime(mos::GpuHal &hal)
        : EnclaveRuntime(hal), gpuHal(hal) {}

    std::string executionModel() const override { return "cuda"; }
    Status meBind(const Bytes &image) override;
    Result<Bytes> meCall(const std::string &fn,
                         const Bytes &args) override;
    Result<Bytes> meSnapshot() override;
    Status meRestore(const Bytes &snapshot) override;

    /* --- argument codecs --- */
    static Bytes encodeMemAlloc(uint64_t bytes);
    static Bytes encodeMemFree(uint64_t va);
    static Bytes encodeMemcpyHtoD(uint64_t va, const Bytes &data);
    static Bytes encodeMemcpyDtoH(uint64_t va, uint64_t len);
    static Bytes encodeLaunchKernel(const std::string &kernel,
                                    const std::vector<uint64_t> &args,
                                    uint64_t work_items);
    static Result<uint64_t> decodeU64Result(const Bytes &result);

    /** The set of mECalls this model understands. */
    static const std::vector<std::string> &apiSurface();

    /** apiSurface() as a manifest's mECall list, each call flagged
     *  async as AutoPartitioner::cudaCallIsAsync says. */
    static std::vector<McallDecl> manifestCalls();

  private:
    mos::GpuHal &gpuHal;
    bool moduleBound = false;
};

/* ------------------------------------------------------------------ */
/* NPU (VTA) execution model                                           */
/* ------------------------------------------------------------------ */

/** Serialize/deserialize NPU programs for vtaRun's argument. */
Bytes serializeNpuProgram(const accel::NpuProgram &program);
Result<accel::NpuProgram> deserializeNpuProgram(const Bytes &data);

class NpuRuntime : public EnclaveRuntime
{
  public:
    explicit NpuRuntime(mos::NpuHal &hal)
        : EnclaveRuntime(hal), npuHal(hal) {}

    std::string executionModel() const override { return "vta"; }
    Status meBind(const Bytes &image) override;
    Result<Bytes> meCall(const std::string &fn,
                         const Bytes &args) override;

    /* --- argument codecs --- */
    static Bytes encodeAllocBuffer(uint64_t bytes);
    static Bytes encodeWriteBuffer(uint32_t buffer, uint64_t offset,
                                   const Bytes &data);
    static Bytes encodeReadBuffer(uint32_t buffer, uint64_t offset,
                                  uint64_t len);
    static Bytes encodeRun(const accel::NpuProgram &program);

    static const std::vector<std::string> &apiSurface();

    /** apiSurface() as a manifest's mECall list (all synchronous). */
    static std::vector<McallDecl> manifestCalls();

  private:
    mos::NpuHal &npuHal;
};

} // namespace cronus::core

#endif // CRONUS_CORE_ENCLAVE_RUNTIME_HH
