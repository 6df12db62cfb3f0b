/**
 * @file
 * Simulated VTA-compatible NPU.
 *
 * Models the paper's NPU: a QEMU PCIe device running TVM VTA's fsim
 * functional simulator. The instruction set follows VTA's structure:
 * LOAD / GEMM / ALU / STORE over int8 inputs with int32 accumulators,
 * executed against per-context SRAM banks so concurrent NPU programs
 * are isolated by virtual memory (§V-B).
 */

#ifndef CRONUS_ACCEL_NPU_HH
#define CRONUS_ACCEL_NPU_HH

#include <cstdint>
#include <map>
#include <vector>

#include "attested_device.hh"
#include "base/sim_clock.hh"
#include "base/status.hh"
#include "zeroed_memory.hh"

namespace cronus::accel
{

using NpuContextId = uint32_t;

/** VTA-style opcode. */
enum class NpuOp : uint8_t
{
    /** Copy from context DRAM buffer into an SRAM bank. */
    Load,
    /** out[i,j] (acc) += sum_k inp[i,k] * wgt[j,k]  (int8 -> int32) */
    Gemm,
    /** Elementwise op on the accumulator bank. */
    Alu,
    /** Copy accumulator (clamped to int8) back to a DRAM buffer. */
    Store,
};

/** ALU sub-opcodes. */
enum class NpuAluOp : uint8_t
{
    Relu,
    AddImm,
    MulImm,
    ShrImm,
    MaxImm,
};

/** SRAM banks addressable by instructions. */
enum class NpuBank : uint8_t
{
    Input,
    Weight,
    Accum,
};

/** One NPU instruction. */
struct NpuInsn
{
    NpuOp op = NpuOp::Gemm;

    /* Load/Store: DRAM buffer id + offsets + length (bytes for
     * Input/Weight, int32 elements for Accum via Store). */
    uint32_t buffer = 0;
    uint64_t dramOffset = 0;
    uint64_t sramOffset = 0;
    uint64_t length = 0;
    NpuBank bank = NpuBank::Input;

    /* Gemm: dimensions. inp is rows x inner, wgt is cols x inner,
     * accumulates into acc[rows x cols]. */
    uint32_t rows = 0;
    uint32_t cols = 0;
    uint32_t inner = 0;
    bool resetAccum = false;

    /* Alu */
    NpuAluOp aluOp = NpuAluOp::Relu;
    int32_t imm = 0;
    uint64_t aluElems = 0;
};

/** An NPU program (what the TVM-like compiler emits). */
struct NpuProgram
{
    std::vector<NpuInsn> insns;
};

struct NpuConfig
{
    std::string name = "npu0";
    Bytes rotSeed = {'n', 'p', 'u', '-', 'r', 'o', 't'};
};

class NpuDevice : public AttestedDevice
{
  public:
    explicit NpuDevice(const NpuConfig &config = NpuConfig());

    static constexpr uint64_t kMagic = 0x56544121;      ///< 'VTA!'
    static constexpr uint64_t kSramBytes = 1 << 20;     ///< per bank
    static constexpr uint64_t kDramBytes = 16ull << 20; ///< per context

    /* --- hw::Device interface --- */
    Result<uint64_t> mmioRead(uint64_t offset) override;
    Status mmioWrite(uint64_t offset, uint64_t value) override;
    void reset(bool clear_memory) override;
    uint64_t memoryBytes() const override { return kDramBytes; }

    /* --- context management --- */
    Result<NpuContextId> createContext();
    Status destroyContext(NpuContextId ctx, bool scrub);
    size_t contextCount() const { return contexts.size(); }

    /* --- DRAM-side buffers (inputs/weights/outputs) --- */
    Result<uint32_t> allocBuffer(NpuContextId ctx, uint64_t bytes);
    Status writeBuffer(NpuContextId ctx, uint32_t buffer,
                       uint64_t offset, const uint8_t *data,
                       uint64_t len);
    Status readBuffer(NpuContextId ctx, uint32_t buffer,
                      uint64_t offset, uint8_t *out, uint64_t len);

    /**
     * Execute a program; functional semantics now, timing on the
     * virtual clock (returns completion time given start @p now).
     */
    Result<SimTime> run(NpuContextId ctx, const NpuProgram &program,
                        SimTime now);

    uint64_t configWord() const override { return kSramBytes; }

    const NpuConfig &config() const { return cfg; }

  private:
    struct Buffer
    {
        ZeroedMemory<uint8_t> data;
    };

    struct Context
    {
        std::map<uint32_t, Buffer> buffers;
        uint32_t nextBuffer = 1;
        uint64_t dramUsed = 0;
        ZeroedMemory<int8_t> inputSram;
        ZeroedMemory<int8_t> weightSram;
        ZeroedMemory<int32_t> accum;
        SimTime busy = 0;
    };

    Result<Context *> findContext(NpuContextId ctx);
    Status execute(Context &context, const NpuInsn &insn,
                   double &cost_ns);

    NpuConfig cfg;
    std::map<NpuContextId, Context> contexts;
    NpuContextId nextCtx = 1;
};

} // namespace cronus::accel

#endif // CRONUS_ACCEL_NPU_HH
