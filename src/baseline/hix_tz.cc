#include "hix_tz.hh"

#include "accel/builtin_kernels.hh"
#include "base/logging.hh"

namespace cronus::baseline
{

namespace
{

/** Payload bytes per hardware control message. */
constexpr uint64_t kMessageBytes = 16 * 1024;
/** Control messages per kernel launch (submit + doorbell). */
constexpr uint32_t kMessagesPerLaunch = 2;

} // namespace

HixTzBackend::HixTzBackend(std::vector<std::string> gpu_kernels)
    : kernels(std::move(gpu_kernels))
{
    plat = std::make_unique<hw::Platform>();
    accel::registerBuiltinKernels();

    gpu = static_cast<accel::GpuDevice *>(plat->registerDevice(
        std::make_unique<accel::GpuDevice>(), 40));

    monitor = std::make_unique<tee::SecureMonitor>(*plat);
    Status booted = monitor->bootAllSecure();
    CRONUS_ASSERT(booted.isOk(), "HIX boot failed");

    gpuCtx = gpu->createContext().value();
    if (!kernels.empty()) {
        accel::GpuModuleImage image{"hix.cubin", kernels};
        Status s = gpu->loadModule(gpuCtx, image);
        CRONUS_ASSERT(s.isOk(), "HIX module load failed");
    }

    /* Session key between app enclave and GPU enclave. */
    sessionSecret = crypto::digestToBytes(
        crypto::sha256(std::string("hix-session-key")));
    /* Mailbox page in untrusted memory. */
    mailbox = hw::kPageSize;
}

Status
HixTzBackend::ensureAlive() const
{
    if (gpuEnclaveDown)
        return Status(ErrorCode::PeerFailed, "GPU enclave crashed");
    return Status::ok();
}

Status
HixTzBackend::rpcRoundTrip(const Bytes &payload)
{
    const CostModel &costs = plat->costs();

    /* Seal in the app enclave. */
    Bytes sealed = crypto::sealMessage(sessionSecret, ++nonce,
                                       payload);
    plat->clock().advance(static_cast<SimTime>(
        payload.size() * (costs.aesNsPerByte + costs.hmacNsPerByte)));

    /* The ciphertext really transits untrusted memory. */
    uint64_t write_len =
        std::min<uint64_t>(sealed.size(), hw::kPageSize);
    Status s = plat->busWrite(hw::World::Normal, mailbox,
                              sealed.data(), write_len);
    if (!s.isOk())
        return s;
    plat->chargeMemcpy(sealed.size());

    ObservedMessage msg;
    msg.when = plat->clock().now();
    msg.bytes = sealed.size();
    msg.ciphertext.assign(sealed.begin(),
                          sealed.begin() +
                              std::min<size_t>(sealed.size(), 64));
    observed.push_back(std::move(msg));

    /* Deliver into the GPU enclave and unseal there. */
    monitor->worldSwitch();
    monitor->worldSwitch();
    auto opened = crypto::openMessage(sessionSecret, sealed);
    if (!opened.isOk())
        return opened.status();
    plat->clock().advance(static_cast<SimTime>(
        payload.size() * (costs.aesNsPerByte + costs.hmacNsPerByte)));

    /* Sealed acknowledgement back (lock-step). */
    Bytes ack = crypto::sealMessage(sessionSecret, ++nonce,
                                    toBytes("ack"));
    plat->busWrite(hw::World::Normal, mailbox, ack.data(),
                   std::min<uint64_t>(ack.size(), hw::kPageSize));
    monitor->worldSwitch();
    monitor->worldSwitch();
    auto ack_open = crypto::openMessage(sessionSecret, ack);
    if (!ack_open.isOk())
        return ack_open.status();
    return Status::ok();
}

Result<uint64_t>
HixTzBackend::gpuAlloc(uint64_t bytes)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    ByteWriter w;
    w.putString("alloc");
    w.putU64(bytes);
    CRONUS_RETURN_IF_ERROR(rpcRoundTrip(w.take()));
    auto va = gpu->malloc(gpuCtx, bytes);
    if (!va.isOk())
        return va.status();
    return uint64_t(va.value());
}

Status
HixTzBackend::gpuFree(uint64_t va)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    ByteWriter w;
    w.putString("free");
    w.putU64(va);
    CRONUS_RETURN_IF_ERROR(rpcRoundTrip(w.take()));
    return gpu->free(gpuCtx, va);
}

Status
HixTzBackend::copyToGpu(uint64_t va, const Bytes &data)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    /* Chunked at the control-message payload size, one lock-step
     * round trip per chunk. */
    for (uint64_t off = 0; off < data.size();
         off += kMessageBytes) {
        uint64_t len = std::min<uint64_t>(kMessageBytes,
                                          data.size() - off);
        Bytes chunk(data.begin() + off, data.begin() + off + len);
        CRONUS_RETURN_IF_ERROR(rpcRoundTrip(chunk));
        plat->clock().advance(plat->costs().gpuCopyCmdNs);
        CRONUS_RETURN_IF_ERROR(
            gpu->write(gpuCtx, va + off, chunk.data(), len));
        plat->chargeDma(len);
    }
    if (data.empty())
        CRONUS_RETURN_IF_ERROR(rpcRoundTrip(Bytes{}));
    return Status::ok();
}

Result<Bytes>
HixTzBackend::copyFromGpu(uint64_t va, uint64_t len)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    CRONUS_RETURN_IF_ERROR(gpuSynchronize());
    Bytes out;
    out.reserve(len);
    for (uint64_t off = 0; off < len; off += kMessageBytes) {
        uint64_t n = std::min<uint64_t>(kMessageBytes, len - off);
        Bytes chunk(n);
        plat->clock().advance(plat->costs().gpuCopyCmdNs);
        CRONUS_RETURN_IF_ERROR(
            gpu->read(gpuCtx, va + off, chunk.data(), n));
        plat->chargeDma(n);
        CRONUS_RETURN_IF_ERROR(rpcRoundTrip(chunk));
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
    return out;
}

Status
HixTzBackend::launchKernel(const std::string &kernel,
                           const std::vector<uint64_t> &args,
                           uint64_t work_items)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    /* Submit + doorbell: one round trip per control message. */
    for (uint32_t i = 0; i < kMessagesPerLaunch; ++i) {
        ByteWriter w;
        w.putString("launch-msg");
        w.putU32(i);
        w.putString(kernel);
        CRONUS_RETURN_IF_ERROR(rpcRoundTrip(w.take()));
    }
    plat->clock().advance(plat->costs().gpuSubmitNs);
    auto done = gpu->launch(gpuCtx, kernel, args,
                            accel::LaunchDims{work_items},
                            plat->clock().now());
    if (!done.isOk())
        return done.status();
    return Status::ok();
}

Status
HixTzBackend::gpuSynchronize()
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    ByteWriter w;
    w.putString("sync");
    CRONUS_RETURN_IF_ERROR(rpcRoundTrip(w.take()));
    plat->clock().advanceTo(gpu->streamBusyUntil(gpuCtx));
    return Status::ok();
}

Result<uint32_t>
HixTzBackend::npuAllocBuffer(uint64_t)
{
    return Status(ErrorCode::Unsupported, "HIX supports only GPUs");
}

Status
HixTzBackend::npuWriteBuffer(uint32_t, uint64_t, const Bytes &)
{
    return Status(ErrorCode::Unsupported, "HIX supports only GPUs");
}

Result<Bytes>
HixTzBackend::npuReadBuffer(uint32_t, uint64_t, uint64_t)
{
    return Status(ErrorCode::Unsupported, "HIX supports only GPUs");
}

Status
HixTzBackend::npuRun(const accel::NpuProgram &)
{
    return Status(ErrorCode::Unsupported, "HIX supports only GPUs");
}

Status
HixTzBackend::cpuWork(uint64_t work_units)
{
    CRONUS_RETURN_IF_ERROR(ensureAlive());
    plat->clock().advance(work_units);
    return Status::ok();
}

SimTime
HixTzBackend::now() const
{
    return plat->clock().now();
}

Status
HixTzBackend::injectGpuFault()
{
    gpuEnclaveDown = true;
    return Status::ok();
}

Result<SimTime>
HixTzBackend::recoverGpu()
{
    if (!gpuEnclaveDown)
        return Status(ErrorCode::InvalidState, "no fault injected");
    /* HIX requires a cold reboot of the accelerator to clear its
     * state when the GPU enclave dies (Table I remark 2). */
    SimTime cost = plat->costs().machineRebootNs;
    plat->clock().advance(cost);
    gpu->reset(true);
    gpuCtx = gpu->createContext().value();
    if (!kernels.empty()) {
        accel::GpuModuleImage image{"hix.cubin", kernels};
        CRONUS_RETURN_IF_ERROR(gpu->loadModule(gpuCtx, image));
    }
    gpuEnclaveDown = false;
    return cost;
}

bool
HixTzBackend::othersAlive()
{
    /* The app enclave survives (HIX isolates the GPU enclave), but
     * there is no other accelerator to keep running. */
    return true;
}

} // namespace cronus::baseline
