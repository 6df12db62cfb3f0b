#include "enclave_runtime.hh"

#include "base/logging.hh"

namespace cronus::core
{

/* ------------------------------------------------------------------ */
/* Device context (all execution models)                               */
/* ------------------------------------------------------------------ */

Status
EnclaveRuntime::meCreate()
{
    if (created)
        return Status(ErrorCode::InvalidState, "already created");
    auto ctx = deviceHal.createDeviceContext();
    if (!ctx.isOk())
        return ctx.status();
    deviceCtx = ctx.value();
    created = true;
    return Status::ok();
}

Status
EnclaveRuntime::meDestroy(bool scrub)
{
    if (!created)
        return Status(ErrorCode::InvalidState, "not created");
    created = false;
    return deviceHal.destroyDeviceContext(deviceCtx, scrub);
}

/* ------------------------------------------------------------------ */
/* CPU                                                                 */
/* ------------------------------------------------------------------ */

CpuFunctionRegistry &
CpuFunctionRegistry::instance()
{
    static CpuFunctionRegistry registry;
    return registry;
}

void
CpuFunctionRegistry::registerFunction(const std::string &name,
                                      CpuFunction fn)
{
    functions.emplace(name, std::move(fn));
}

const CpuFunction *
CpuFunctionRegistry::find(const std::string &name) const
{
    auto it = functions.find(name);
    return it == functions.end() ? nullptr : &it->second;
}

bool
CpuFunctionRegistry::has(const std::string &name) const
{
    return functions.count(name) > 0;
}

Bytes
CpuImage::serialize() const
{
    ByteWriter w;
    w.putU32(static_cast<uint32_t>(exports.size()));
    for (const auto &name : exports)
        w.putString(name);
    return w.take();
}

Result<CpuImage>
CpuImage::deserialize(const Bytes &data)
{
    ByteReader r(data);
    auto count = r.getU32();
    if (!count.isOk())
        return count.status();
    if (count.value() > 4096)
        return Status(ErrorCode::InvalidArgument,
                      "implausible export count");
    CpuImage image;
    for (uint32_t i = 0; i < count.value(); ++i) {
        auto name = r.getString();
        if (!name.isOk())
            return name.status();
        image.exports.push_back(name.value());
    }
    return image;
}

Status
CpuRuntime::meBind(const Bytes &image)
{
    if (!created)
        return Status(ErrorCode::InvalidState, "shell not created");
    auto parsed = CpuImage::deserialize(image);
    if (!parsed.isOk())
        return parsed.status();
    std::set<std::string> incoming;
    for (const auto &name : parsed.value().exports) {
        if (!CpuFunctionRegistry::instance().has(name))
            return Status(ErrorCode::NotFound,
                          "image exports unknown function '" + name +
                          "'");
        incoming.insert(name);
    }
    /* A (re)bound module starts from fresh state: enclave-per-
     * request semantics must not observe a previous binding's
     * key/value store. */
    exports = std::move(incoming);
    store.clear();
    moduleBound = true;
    return Status::ok();
}

Result<Bytes>
CpuRuntime::meCall(const std::string &fn, const Bytes &args)
{
    if (!created)
        return Status(ErrorCode::InvalidState, "enclave not created");
    if (!moduleBound)
        return Status(ErrorCode::InvalidState, "no module bound");
    if (!exports.count(fn))
        return Status(ErrorCode::NotFound,
                      "function '" + fn + "' not exported");
    const CpuFunction *body = CpuFunctionRegistry::instance().find(fn);
    CRONUS_ASSERT(body != nullptr, "registry lost function");

    CpuCallContext ctx{args, store, [this](uint64_t units) {
        return cpuHal.execute(deviceCtx, units, nullptr);
    }};
    return (*body)(ctx);
}

Result<Bytes>
CpuRuntime::meSnapshot()
{
    if (!created)
        return Status(ErrorCode::InvalidState, "not created");
    ByteWriter w;
    w.putU32(static_cast<uint32_t>(store.size()));
    for (const auto &[key, value] : store) {
        w.putString(key);
        w.putBytes(value);
    }
    return w.take();
}

Status
CpuRuntime::meRestore(const Bytes &snapshot)
{
    if (!created)
        return Status(ErrorCode::InvalidState, "not created");
    ByteReader r(snapshot);
    auto count = r.getU32();
    if (!count.isOk())
        return count.status();
    if (count.value() > (1u << 20))
        return Status(ErrorCode::InvalidArgument,
                      "implausible snapshot entry count");
    std::map<std::string, Bytes> restored;
    for (uint32_t i = 0; i < count.value(); ++i) {
        auto key = r.getString();
        if (!key.isOk())
            return key.status();
        auto value = r.getBytes();
        if (!value.isOk())
            return value.status();
        restored[key.value()] = value.value();
    }
    store = std::move(restored);
    return Status::ok();
}

/* ------------------------------------------------------------------ */
/* CUDA                                                                */
/* ------------------------------------------------------------------ */

const std::vector<std::string> &
CudaRuntime::apiSurface()
{
    static const std::vector<std::string> api = {
        "cuMemAlloc",   "cuMemFree",        "cuMemcpyHtoD",
        "cuMemcpyDtoH", "cuLaunchKernel",   "cuCtxSynchronize",
    };
    return api;
}

Status
CudaRuntime::meBind(const Bytes &image)
{
    if (!created)
        return Status(ErrorCode::InvalidState, "shell not created");
    auto module = accel::GpuModuleImage::deserialize(image);
    if (!module.isOk())
        return module.status();
    /* The context (bounce buffers, DMA mappings) survives the bind;
     * only the module's kernels are attached. The manager swaps the
     * manifest with the bind, so a previous binding's kernels fall
     * out of the callable surface even though the simulated context
     * keeps them loaded. */
    Status s = gpuHal.loadModule(deviceCtx, module.value());
    if (!s.isOk())
        return s;
    moduleBound = true;
    return Status::ok();
}

Bytes
CudaRuntime::encodeMemAlloc(uint64_t bytes)
{
    ByteWriter w;
    w.putU64(bytes);
    return w.take();
}

Bytes
CudaRuntime::encodeMemFree(uint64_t va)
{
    ByteWriter w;
    w.putU64(va);
    return w.take();
}

Bytes
CudaRuntime::encodeMemcpyHtoD(uint64_t va, const Bytes &data)
{
    ByteWriter w;
    w.putU64(va);
    w.putBytes(data);
    return w.take();
}

Bytes
CudaRuntime::encodeMemcpyDtoH(uint64_t va, uint64_t len)
{
    ByteWriter w;
    w.putU64(va);
    w.putU64(len);
    return w.take();
}

Bytes
CudaRuntime::encodeLaunchKernel(const std::string &kernel,
                                const std::vector<uint64_t> &args,
                                uint64_t work_items)
{
    ByteWriter w;
    w.putString(kernel);
    w.putU32(static_cast<uint32_t>(args.size()));
    for (uint64_t a : args)
        w.putU64(a);
    w.putU64(work_items);
    return w.take();
}

Result<uint64_t>
CudaRuntime::decodeU64Result(const Bytes &result)
{
    ByteReader r(result);
    return r.getU64();
}

Result<Bytes>
CudaRuntime::meCall(const std::string &fn, const Bytes &args)
{
    if (!created)
        return Status(ErrorCode::InvalidState, "enclave not created");
    if (!moduleBound)
        return Status(ErrorCode::InvalidState, "no module bound");
    ByteReader r(args);

    if (fn == "cuMemAlloc") {
        auto bytes = r.getU64();
        if (!bytes.isOk())
            return bytes.status();
        auto va = gpuHal.memAlloc(deviceCtx, bytes.value());
        if (!va.isOk())
            return va.status();
        ByteWriter w;
        w.putU64(va.value());
        return w.take();
    }
    if (fn == "cuMemFree") {
        auto va = r.getU64();
        if (!va.isOk())
            return va.status();
        CRONUS_RETURN_IF_ERROR(gpuHal.memFree(deviceCtx, va.value()));
        return Bytes{};
    }
    if (fn == "cuMemcpyHtoD") {
        auto va = r.getU64();
        if (!va.isOk())
            return va.status();
        auto data = r.getBytes();
        if (!data.isOk())
            return data.status();
        CRONUS_RETURN_IF_ERROR(
            gpuHal.memcpyHtoD(deviceCtx, va.value(), data.value()));
        return Bytes{};
    }
    if (fn == "cuMemcpyDtoH") {
        auto va = r.getU64();
        if (!va.isOk())
            return va.status();
        auto len = r.getU64();
        if (!len.isOk())
            return len.status();
        return gpuHal.memcpyDtoH(deviceCtx, va.value(), len.value());
    }
    if (fn == "cuLaunchKernel") {
        auto kernel = r.getString();
        if (!kernel.isOk())
            return kernel.status();
        auto nargs = r.getU32();
        if (!nargs.isOk())
            return nargs.status();
        if (nargs.value() > 64)
            return Status(ErrorCode::InvalidArgument,
                          "too many kernel arguments");
        std::vector<uint64_t> kargs;
        for (uint32_t i = 0; i < nargs.value(); ++i) {
            auto a = r.getU64();
            if (!a.isOk())
                return a.status();
            kargs.push_back(a.value());
        }
        auto work = r.getU64();
        if (!work.isOk())
            return work.status();
        CRONUS_RETURN_IF_ERROR(gpuHal.launchKernel(
            deviceCtx, kernel.value(), kargs, work.value()));
        return Bytes{};
    }
    if (fn == "cuCtxSynchronize") {
        CRONUS_RETURN_IF_ERROR(gpuHal.synchronize(deviceCtx));
        return Bytes{};
    }
    return Status(ErrorCode::NotFound,
                  "unknown CUDA mECall '" + fn + "'");
}

Result<Bytes>
CudaRuntime::meSnapshot()
{
    if (!created)
        return Status(ErrorCode::InvalidState, "not created");
    /* Loaded kernels are not part of the snapshot: a restore targets
     * an enclave whose meBind already loaded the module, so only
     * device memory needs capturing. */
    return gpuHal.snapshotContext(deviceCtx);
}

Status
CudaRuntime::meRestore(const Bytes &snapshot)
{
    if (!created)
        return Status(ErrorCode::InvalidState, "not created");
    return gpuHal.restoreContext(deviceCtx, snapshot);
}

/* ------------------------------------------------------------------ */
/* NPU                                                                 */
/* ------------------------------------------------------------------ */

Bytes
serializeNpuProgram(const accel::NpuProgram &program)
{
    ByteWriter w;
    w.putU32(static_cast<uint32_t>(program.insns.size()));
    for (const auto &insn : program.insns) {
        w.putU8(static_cast<uint8_t>(insn.op));
        w.putU32(insn.buffer);
        w.putU64(insn.dramOffset);
        w.putU64(insn.sramOffset);
        w.putU64(insn.length);
        w.putU8(static_cast<uint8_t>(insn.bank));
        w.putU32(insn.rows);
        w.putU32(insn.cols);
        w.putU32(insn.inner);
        w.putU8(insn.resetAccum ? 1 : 0);
        w.putU8(static_cast<uint8_t>(insn.aluOp));
        w.putU32(static_cast<uint32_t>(insn.imm));
        w.putU64(insn.aluElems);
    }
    return w.take();
}

Result<accel::NpuProgram>
deserializeNpuProgram(const Bytes &data)
{
    ByteReader r(data);
    auto count = r.getU32();
    if (!count.isOk())
        return count.status();
    if (count.value() > (1u << 20))
        return Status(ErrorCode::InvalidArgument,
                      "implausible instruction count");
    accel::NpuProgram program;
    for (uint32_t i = 0; i < count.value(); ++i) {
        accel::NpuInsn insn;
        auto op = r.getU8();
        if (!op.isOk())
            return op.status();
        if (op.value() > uint8_t(accel::NpuOp::Store))
            return Status(ErrorCode::InvalidArgument, "bad opcode");
        insn.op = static_cast<accel::NpuOp>(op.value());
        auto buffer = r.getU32();
        auto dram_off = r.getU64();
        auto sram_off = r.getU64();
        auto length = r.getU64();
        auto bank = r.getU8();
        auto rows = r.getU32();
        auto cols = r.getU32();
        auto inner = r.getU32();
        auto reset = r.getU8();
        auto alu_op = r.getU8();
        auto imm = r.getU32();
        auto alu_elems = r.getU64();
        if (!alu_elems.isOk())
            return alu_elems.status();
        if (bank.value() > uint8_t(accel::NpuBank::Accum) ||
            alu_op.value() > uint8_t(accel::NpuAluOp::MaxImm))
            return Status(ErrorCode::InvalidArgument,
                          "bad bank/alu op");
        insn.buffer = buffer.value();
        insn.dramOffset = dram_off.value();
        insn.sramOffset = sram_off.value();
        insn.length = length.value();
        insn.bank = static_cast<accel::NpuBank>(bank.value());
        insn.rows = rows.value();
        insn.cols = cols.value();
        insn.inner = inner.value();
        insn.resetAccum = reset.value() != 0;
        insn.aluOp = static_cast<accel::NpuAluOp>(alu_op.value());
        insn.imm = static_cast<int32_t>(imm.value());
        insn.aluElems = alu_elems.value();
        program.insns.push_back(insn);
    }
    return program;
}

const std::vector<std::string> &
NpuRuntime::apiSurface()
{
    static const std::vector<std::string> api = {
        "vtaAllocBuffer", "vtaWriteBuffer", "vtaReadBuffer", "vtaRun",
    };
    return api;
}

Status
NpuRuntime::meBind(const Bytes &image)
{
    (void)image;  /* nothing to attach; programs arrive per call */
    if (!created)
        return Status(ErrorCode::InvalidState, "shell not created");
    return Status::ok();
}

Bytes
NpuRuntime::encodeAllocBuffer(uint64_t bytes)
{
    ByteWriter w;
    w.putU64(bytes);
    return w.take();
}

Bytes
NpuRuntime::encodeWriteBuffer(uint32_t buffer, uint64_t offset,
                              const Bytes &data)
{
    ByteWriter w;
    w.putU32(buffer);
    w.putU64(offset);
    w.putBytes(data);
    return w.take();
}

Bytes
NpuRuntime::encodeReadBuffer(uint32_t buffer, uint64_t offset,
                             uint64_t len)
{
    ByteWriter w;
    w.putU32(buffer);
    w.putU64(offset);
    w.putU64(len);
    return w.take();
}

Bytes
NpuRuntime::encodeRun(const accel::NpuProgram &program)
{
    ByteWriter w;
    w.putBytes(serializeNpuProgram(program));
    return w.take();
}

Result<Bytes>
NpuRuntime::meCall(const std::string &fn, const Bytes &args)
{
    if (!created)
        return Status(ErrorCode::InvalidState, "enclave not created");
    ByteReader r(args);

    if (fn == "vtaAllocBuffer") {
        auto bytes = r.getU64();
        if (!bytes.isOk())
            return bytes.status();
        auto buf = npuHal.allocBuffer(deviceCtx, bytes.value());
        if (!buf.isOk())
            return buf.status();
        ByteWriter w;
        w.putU32(buf.value());
        return w.take();
    }
    if (fn == "vtaWriteBuffer") {
        auto buffer = r.getU32();
        if (!buffer.isOk())
            return buffer.status();
        auto offset = r.getU64();
        if (!offset.isOk())
            return offset.status();
        auto data = r.getBytes();
        if (!data.isOk())
            return data.status();
        CRONUS_RETURN_IF_ERROR(npuHal.writeBuffer(
            deviceCtx, buffer.value(), offset.value(), data.value()));
        return Bytes{};
    }
    if (fn == "vtaReadBuffer") {
        auto buffer = r.getU32();
        if (!buffer.isOk())
            return buffer.status();
        auto offset = r.getU64();
        if (!offset.isOk())
            return offset.status();
        auto len = r.getU64();
        if (!len.isOk())
            return len.status();
        return npuHal.readBuffer(deviceCtx, buffer.value(),
                                 offset.value(), len.value());
    }
    if (fn == "vtaRun") {
        auto blob = r.getBytes();
        if (!blob.isOk())
            return blob.status();
        auto program = deserializeNpuProgram(blob.value());
        if (!program.isOk())
            return program.status();
        CRONUS_RETURN_IF_ERROR(
            npuHal.runProgram(deviceCtx, program.value()));
        return Bytes{};
    }
    return Status(ErrorCode::NotFound,
                  "unknown NPU mECall '" + fn + "'");
}

} // namespace cronus::core
