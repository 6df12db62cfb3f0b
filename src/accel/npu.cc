#include "npu.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"

namespace cronus::accel
{

NpuDevice::NpuDevice(const NpuConfig &config)
    : hw::Device(config.name, "tvm,vta-fsim", 0x1000), cfg(config),
      rotKeys(crypto::deriveKeyPair(config.rotSeed))
{
}

Result<uint64_t>
NpuDevice::mmioRead(uint64_t offset)
{
    switch (offset) {
      case 0x0: return uint64_t(0x56544121);  /* 'VTA!' magic */
      case 0x8: return uint64_t(contexts.size());
      case 0x10: return cfg.sramBytes;
      default:
        return Status(ErrorCode::AccessFault, "npu mmio oob read");
    }
}

Status
NpuDevice::mmioWrite(uint64_t offset, uint64_t value)
{
    (void)value;
    if (offset >= mmioSize())
        return Status(ErrorCode::AccessFault, "npu mmio oob write");
    return Status::ok();
}

void
NpuDevice::reset(bool clear_memory)
{
    if (clear_memory) {
        for (auto &[id, context] : contexts) {
            for (auto &[bid, buffer] : context.buffers)
                std::fill(buffer.data.begin(), buffer.data.end(), 0);
        }
    }
    contexts.clear();
}

Result<NpuDevice::Context *>
NpuDevice::findContext(NpuContextId ctx)
{
    auto it = contexts.find(ctx);
    if (it == contexts.end())
        return Status(ErrorCode::NotFound, "no such NPU context");
    return &it->second;
}

Result<NpuContextId>
NpuDevice::createContext()
{
    NpuContextId id = nextCtx++;
    Context context;
    context.inputSram.assign(cfg.sramBytes, 0);
    context.weightSram.assign(cfg.sramBytes, 0);
    context.accum.assign(cfg.accumElems, 0);
    contexts.emplace(id, std::move(context));
    return id;
}

Status
NpuDevice::destroyContext(NpuContextId ctx, bool scrub)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    if (scrub) {
        for (auto &[bid, buffer] : c.value()->buffers)
            std::fill(buffer.data.begin(), buffer.data.end(), 0);
    }
    contexts.erase(ctx);
    return Status::ok();
}

Result<uint32_t>
NpuDevice::allocBuffer(NpuContextId ctx, uint64_t bytes)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    Context &context = *c.value();
    if (bytes == 0)
        return Status(ErrorCode::InvalidArgument, "zero buffer");
    if (context.dramUsed + bytes > cfg.dramBytes)
        return Status(ErrorCode::ResourceExhausted,
                      "NPU DRAM quota exceeded");
    uint32_t id = context.nextBuffer++;
    context.buffers[id].data.assign(bytes, 0);
    context.dramUsed += bytes;
    return id;
}

Status
NpuDevice::writeBuffer(NpuContextId ctx, uint32_t buffer,
                       uint64_t offset, const uint8_t *data,
                       uint64_t len)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    auto it = c.value()->buffers.find(buffer);
    if (it == c.value()->buffers.end())
        return Status(ErrorCode::NotFound, "no such NPU buffer");
    if (offset + len > it->second.data.size())
        return Status(ErrorCode::AccessFault, "NPU buffer overflow");
    std::memcpy(it->second.data.data() + offset, data, len);
    return Status::ok();
}

Status
NpuDevice::readBuffer(NpuContextId ctx, uint32_t buffer,
                      uint64_t offset, uint8_t *out, uint64_t len)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    auto it = c.value()->buffers.find(buffer);
    if (it == c.value()->buffers.end())
        return Status(ErrorCode::NotFound, "no such NPU buffer");
    if (offset + len > it->second.data.size())
        return Status(ErrorCode::AccessFault, "NPU buffer overflow");
    std::memcpy(out, it->second.data.data() + offset, len);
    return Status::ok();
}

Status
NpuDevice::execute(Context &context, const NpuInsn &insn,
                   double &cost_ns)
{
    cost_ns = cfg.insnOverheadNs;
    switch (insn.op) {
      case NpuOp::Load: {
        auto it = context.buffers.find(insn.buffer);
        if (it == context.buffers.end())
            return Status(ErrorCode::NotFound, "LOAD: no buffer");
        const auto &src = it->second.data;
        if (insn.dramOffset + insn.length > src.size())
            return Status(ErrorCode::AccessFault,
                          "LOAD: DRAM range overflow");
        std::vector<int8_t> *bank = nullptr;
        if (insn.bank == NpuBank::Input)
            bank = &context.inputSram;
        else if (insn.bank == NpuBank::Weight)
            bank = &context.weightSram;
        else
            return Status(ErrorCode::InvalidArgument,
                          "LOAD: accumulator is not loadable");
        if (insn.sramOffset + insn.length > bank->size())
            return Status(ErrorCode::AccessFault,
                          "LOAD: SRAM range overflow");
        std::memcpy(bank->data() + insn.sramOffset,
                    src.data() + insn.dramOffset, insn.length);
        cost_ns += insn.length * cfg.nsPerByte;
        return Status::ok();
      }
      case NpuOp::Gemm: {
        uint64_t in_need = insn.sramOffset +
                           uint64_t(insn.rows) * insn.inner;
        uint64_t wgt_need = uint64_t(insn.cols) * insn.inner;
        uint64_t acc_need = uint64_t(insn.rows) * insn.cols;
        if (in_need > context.inputSram.size() ||
            wgt_need > context.weightSram.size() ||
            acc_need > context.accum.size())
            return Status(ErrorCode::AccessFault,
                          "GEMM: bank range overflow");
        if (insn.resetAccum)
            std::fill_n(context.accum.begin(), acc_need, 0);
        const int8_t *inp = context.inputSram.data() +
                            insn.sramOffset;
        const int8_t *wgt = context.weightSram.data();
        for (uint32_t i = 0; i < insn.rows; ++i) {
            for (uint32_t j = 0; j < insn.cols; ++j) {
                int32_t acc = 0;
                for (uint32_t k = 0; k < insn.inner; ++k)
                    acc += int32_t(inp[i * insn.inner + k]) *
                           int32_t(wgt[j * insn.inner + k]);
                context.accum[i * insn.cols + j] += acc;
            }
        }
        cost_ns += double(insn.rows) * insn.cols * insn.inner *
                   cfg.nsPerMac;
        return Status::ok();
      }
      case NpuOp::Alu: {
        if (insn.aluElems > context.accum.size())
            return Status(ErrorCode::AccessFault,
                          "ALU: accumulator overflow");
        for (uint64_t i = 0; i < insn.aluElems; ++i) {
            int32_t &v = context.accum[i];
            switch (insn.aluOp) {
              case NpuAluOp::Relu:   v = std::max(v, 0); break;
              case NpuAluOp::AddImm: v += insn.imm; break;
              case NpuAluOp::MulImm: v *= insn.imm; break;
              case NpuAluOp::ShrImm: v >>= insn.imm; break;
              case NpuAluOp::MaxImm: v = std::max(v, insn.imm); break;
            }
        }
        cost_ns += insn.aluElems * cfg.nsPerMac * 0.5;
        return Status::ok();
      }
      case NpuOp::Store: {
        auto it = context.buffers.find(insn.buffer);
        if (it == context.buffers.end())
            return Status(ErrorCode::NotFound, "STORE: no buffer");
        auto &dst = it->second.data;
        if (insn.sramOffset + insn.length > context.accum.size())
            return Status(ErrorCode::AccessFault,
                          "STORE: accumulator range overflow");
        if (insn.dramOffset + insn.length > dst.size())
            return Status(ErrorCode::AccessFault,
                          "STORE: DRAM range overflow");
        for (uint64_t i = 0; i < insn.length; ++i) {
            int32_t v = context.accum[insn.sramOffset + i];
            v = std::clamp(v, -128, 127);
            dst[insn.dramOffset + i] = static_cast<uint8_t>(
                static_cast<int8_t>(v));
        }
        cost_ns += insn.length * cfg.nsPerByte;
        return Status::ok();
      }
    }
    return Status(ErrorCode::InvalidArgument, "unknown NPU opcode");
}

Result<SimTime>
NpuDevice::run(NpuContextId ctx, const NpuProgram &program,
               SimTime now)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    Context &context = *c.value();
    double total_ns = 0;
    for (const auto &insn : program.insns) {
        double cost = 0;
        Status s = execute(context, insn, cost);
        if (!s.isOk())
            return s;
        total_ns += cost;
    }
    SimTime start = std::max(now, context.busy);
    context.busy = start + static_cast<SimTime>(total_ns);
    return context.busy;
}

SimTime
NpuDevice::busyUntil(NpuContextId ctx) const
{
    auto it = contexts.find(ctx);
    return it == contexts.end() ? 0 : it->second.busy;
}

crypto::Signature
NpuDevice::attestConfig(const Bytes &challenge) const
{
    ByteWriter w;
    w.putString(cfg.name);
    w.putString(devCompatible);
    w.putU64(cfg.sramBytes);
    w.putBytes(challenge);
    return crypto::sign(rotKeys, w.take());
}

} // namespace cronus::accel
