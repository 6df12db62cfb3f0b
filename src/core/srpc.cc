#include "srpc.hh"

#include "base/logging.hh"
#include "obs/trace.hh"

namespace cronus::core
{

namespace
{

using End = SharedRegion::End;
constexpr uint64_t kSrpcMagic = 0x5352504353525043ull;

/* Little-endian, matching ByteWriter::putU32 — the in-ring fast
 * path serializes the same wire format the Bytes path produced. */
void
encodeU32(uint8_t *buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf[i] = (v >> (8 * i)) & 0xff;
}

uint32_t
decodeU32(const uint8_t *buf)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(buf[i]) << (8 * i);
    return v;
}

} // namespace

SrpcChannel::SrpcChannel(MicroOS &caller_os, Eid caller_eid,
                         MicroOS &callee_os, Eid callee_eid,
                         Bytes secret, const SrpcConfig &config)
    : callerOs(caller_os), callerEid(caller_eid), calleeOs(callee_os),
      calleeEid(callee_eid), secretDhke(std::move(secret)),
      cfg(config), region(caller_os, callee_os)
{
    region.setFailureCallback([this] { markFailed(); });
}

SrpcChannel::~SrpcChannel()
{
    /* A partially set-up channel is never open; its region gives
     * back whatever it acquired when it is destroyed. */
    if (open || failed())
        close();
}

uint64_t
SrpcChannel::slotOffset(uint64_t index) const
{
    return SharedRegion::kPayloadOff +
           (index % cfg.slots) * cfg.slotBytes;
}

void
SrpcChannel::markFailed()
{
    /* sRPC automatically clears state when getting the fault signal
     * (§IV-D): the region latched the failure and the channel
     * refuses further traffic. The smem grant is released by close()
     * or the destructor, whichever runs first. */
    open = false;
    if (auto &trc = obs::Tracer::instance(); trc.active()) {
        JsonObject targs;
        targs["callee"] = static_cast<int64_t>(calleeEid);
        trc.instant(trc.enclaveTrack(callerEid,
                                     callerOs.deviceName()),
                    "srpc.failed", "srpc", std::move(targs));
    }
    if (observer)
        observer->onFailed(*this);
}

Result<std::unique_ptr<SrpcChannel>>
SrpcChannel::connect(MicroOS &caller_os, Eid caller_eid,
                     MicroOS &callee_os, Eid callee_eid,
                     const Bytes &secret, const SrpcConfig &config)
{
    std::unique_ptr<SrpcChannel> channel(
        new SrpcChannel(caller_os, caller_eid, callee_os, callee_eid,
                        secret, config));
    CRONUS_RETURN_IF_ERROR(channel->setup());
    return channel;
}

Status
SrpcChannel::setup()
{
    tee::SecureMonitor &monitor = callerOs.spm().monitor();
    hw::Platform &plat = monitor.platform();

    auto &trc = obs::Tracer::instance();
    obs::Span setup_span;
    if (trc.active()) {
        setup_span = obs::Span(
            trc.partitionTrack(callerOs.partitionId(),
                               callerOs.deviceName()),
            "srpc.setup", "srpc");
        setup_span.arg("caller", static_cast<int64_t>(callerEid));
        setup_span.arg("callee", static_cast<int64_t>(calleeEid));
    }

    SimTime phase_start = plat.clock().now();

    /* 1. Local attestation of the callee, over untrusted memory.
     * The request/response are MACed with secret_dhke because the
     * mOSes are mutually untrusted before attestation (§IV-A). */
    Bytes challenge(16);
    {
        ByteWriter w;
        w.putU32(callerEid);
        w.putU32(calleeEid);
        w.putU64(plat.clock().now());
        crypto::Digest d = crypto::sha256(w.take());
        std::copy_n(d.begin(), challenge.size(), challenge.begin());
    }
    /* Request travels through the normal world: world switches. */
    monitor.worldSwitch();
    monitor.worldSwitch();
    channelStats.setupWorldSwitches += 2;

    auto report = calleeOs.enclaveManager().localAttest(calleeEid,
                                                        challenge);
    if (!report.isOk())
        return report.status();
    monitor.worldSwitch();
    monitor.worldSwitch();
    channelStats.setupWorldSwitches += 2;

    if (!EnclaveManager::verifyLocalReport(report.value(),
                                           monitor.localSealKey()))
        return Status(ErrorCode::AuthFailed,
                      "local attestation MAC invalid");
    if (report.value().eid != calleeEid ||
        report.value().challenge != challenge)
        return Status(ErrorCode::AuthFailed,
                      "local attestation mismatch");
    channelStats.setupAttestNs = plat.clock().now() - phase_start;
    phase_start = plat.clock().now();

    /* 2. Allocate smem from the caller's partition, share it and
     * initialize the ring header. */
    CRONUS_RETURN_IF_ERROR(
        region.establish(cfg.slots * cfg.slotBytes, kSrpcMagic));
    channelStats.setupGrantNs = plat.clock().now() - phase_start;
    phase_start = plat.clock().now();

    /* 3. dCheck: the callee proves ownership of secret_dhke through
     * the shared memory itself. The callee's tag comes from *its own*
     * copy of the secret (held since creation); the caller
     * independently computes the expected tag from its copy. */
    ByteWriter dcheck_input;
    dcheck_input.putString("dcheck");
    dcheck_input.putU64(region.grantId());
    dcheck_input.putU32(calleeEid);
    dcheck_input.putU64(report.value().partitionIncarnation);

    auto callee_enclave =
        calleeOs.enclaveManager().enclave(calleeEid);
    if (!callee_enclave.isOk())
        return callee_enclave.status();
    CRONUS_RETURN_IF_ERROR(region.dcheck(callee_enclave.value()->secret(),
                                         secretDhke,
                                         dcheck_input.data()));
    channelStats.setupDcheckNs = plat.clock().now() - phase_start;
    phase_start = plat.clock().now();

    /* 4. Ask the normal world for an executor thread (one switch,
     * once per stream -- not per call). */
    monitor.worldSwitch();
    ++channelStats.setupWorldSwitches;

    channelStats.setupExecutorNs = plat.clock().now() - phase_start;

    open = true;
    setup_span.arg("grant", static_cast<int64_t>(grantId()));
    if (observer)
        observer->onSetup(*this, grantId());
    return Status::ok();
}

Result<uint64_t>
SrpcChannel::callAsync(const std::string &fn, const Bytes &args)
{
    if (failed())
        return Status(ErrorCode::PeerFailed, "channel failed");
    if (!open)
        return Status(ErrorCode::InvalidState, "channel closed");

    hw::Platform &plat = callerOs.spm().monitor().platform();

    /* Flow control: if the ring is full, let the executor drain. */
    while (rid - sid >= cfg.slots) {
        uint64_t done = pump(1);
        if (failed())
            return Status(ErrorCode::PeerFailed, "channel failed");
        if (done == 0)
            return Status(ErrorCode::ResourceExhausted,
                          "ring stalled");
    }

    /* Serialize the frame directly into the ring -- same wire format
     * the ByteWriter path produced:
     *   [u32 frame_len][u32 fn_len][fn][u32 args_len][args] */
    uint64_t request_size = 4 + fn.size() + 4 + args.size();
    if (request_size > cfg.requestBytes())
        return Status(ErrorCode::InvalidArgument,
                      "request exceeds slot capacity");

    uint64_t slot = slotOffset(rid);
    uint8_t hdr[8];
    encodeU32(hdr, static_cast<uint32_t>(request_size));
    encodeU32(hdr + 4, static_cast<uint32_t>(fn.size()));
    CRONUS_RETURN_IF_ERROR(region.write(End::Owner, slot, hdr, 8));
    if (!fn.empty())
        CRONUS_RETURN_IF_ERROR(region.write(
            End::Owner, slot + 8,
            reinterpret_cast<const uint8_t *>(fn.data()), fn.size()));
    encodeU32(hdr, static_cast<uint32_t>(args.size()));
    CRONUS_RETURN_IF_ERROR(
        region.write(End::Owner, slot + 8 + fn.size(), hdr, 4));
    if (!args.empty())
        CRONUS_RETURN_IF_ERROR(region.write(End::Owner,
                                            slot + 12 + fn.size(),
                                            args.data(), args.size()));
    plat.chargeMemcpy(request_size);
    plat.clock().advance(plat.costs().ringBufferOpNs);

    uint64_t this_rid = rid++;
    CRONUS_RETURN_IF_ERROR(
        region.writeU64(End::Owner, SharedRegion::kHeadOff, rid));
    ++channelStats.asyncCalls;
    channelStats.bytesTransferred += request_size;
    if (auto &trc = obs::Tracer::instance(); trc.active()) {
        JsonObject targs;
        targs["fn"] = fn;
        targs["rid"] = static_cast<int64_t>(this_rid);
        trc.instant(trc.enclaveTrack(callerEid,
                                     callerOs.deviceName()),
                    "srpc.enqueue", "srpc", std::move(targs));
    }
    if (observer)
        observer->onEnqueue(*this, rid, sid);
    return this_rid;
}

uint64_t
SrpcChannel::pump(uint64_t max)
{
    if (failed())
        return 0;
    uint64_t executed = 0;
    hw::Platform &plat = calleeOs.spm().monitor().platform();

    while (executed < max) {
        /* Executor view of the ring: fetch Rid from smem. This is
         * the poll — one in-place counter read, no allocation. */
        auto rid_now = region.readU64(End::Peer, SharedRegion::kHeadOff);
        if (!rid_now.isOk())
            return executed;
        uint64_t remote_rid = rid_now.value();
        if (sid >= remote_rid)
            break;

        /* Parse the request frame in place:
         *   [u32 frame_len][u32 fn_len][fn][u32 args_len][args]
         * Each length is validated against the enclosing frame
         * before the bytes it promises are read. */
        uint64_t slot = slotOffset(sid);
        uint8_t hdr[8];
        if (!region.read(End::Peer, slot, hdr, 8).isOk())
            return executed;
        uint32_t req_len = decodeU32(hdr);
        uint32_t fn_len = decodeU32(hdr + 4);
        Status resp_status = Status::ok();
        Bytes resp_payload;
        if (req_len > cfg.requestBytes()) {
            resp_status = Status(ErrorCode::InvalidArgument,
                                 "corrupt request length");
        } else if (4 + uint64_t(fn_len) + 4 > req_len) {
            resp_status = Status(ErrorCode::InvalidArgument,
                                 "corrupt request frame");
        } else {
            execFn.resize(fn_len);
            if (fn_len > 0 &&
                !region.read(End::Peer, slot + 8,
                             reinterpret_cast<uint8_t *>(execFn.data()),
                             fn_len).isOk())
                return executed;
            if (!region.read(End::Peer, slot + 8 + fn_len, hdr, 4)
                     .isOk())
                return executed;
            uint32_t args_len = decodeU32(hdr);
            if (4 + uint64_t(fn_len) + 4 + args_len > req_len) {
                resp_status = Status(ErrorCode::InvalidArgument,
                                     "corrupt request frame");
            } else {
                execArgs.resize(args_len);
                if (args_len > 0 &&
                    !region.read(End::Peer, slot + 12 + fn_len,
                                 execArgs.data(), args_len).isOk())
                    return executed;
                obs::Span exec_span;
                if (auto &trc = obs::Tracer::instance();
                    trc.active()) {
                    exec_span = obs::Span(
                        trc.partitionTrack(calleeOs.partitionId(),
                                           calleeOs.deviceName()),
                        "srpc.execute", "srpc");
                    exec_span.arg("fn", execFn);
                    exec_span.arg("sid",
                                  static_cast<int64_t>(sid));
                    exec_span.arg("callee",
                                  static_cast<int64_t>(calleeEid));
                }
                auto result = calleeOs.enclaveManager().invokeLocal(
                    calleeEid, execFn, execArgs);
                if (result.isOk())
                    resp_payload = result.value();
                else
                    resp_status = result.status();
            }
        }

        /* Write the response header directly into the slot's
         * response half. An oversized payload is replaced by an
         * error frame. */
        if (resp_payload.size() > cfg.responseBytes()) {
            resp_status = Status(ErrorCode::ResourceExhausted,
                                 "response exceeds slot capacity");
            resp_payload.clear();
        }
        uint64_t resp_off = slot + cfg.slotBytes / 2;
        encodeU32(hdr, static_cast<uint32_t>(resp_status.code()));
        encodeU32(hdr + 4,
                  static_cast<uint32_t>(resp_payload.size()));
        if (!region.write(End::Peer, resp_off, hdr, 8).isOk())
            return executed;
        if (!resp_payload.empty() &&
            !region.write(End::Peer, resp_off + 8, resp_payload.data(),
                          resp_payload.size()).isOk())
            return executed;
        uint64_t resp_frame_size = 8 + resp_payload.size();
        plat.chargeMemcpy(resp_frame_size);
        plat.clock().advance(plat.costs().ringBufferOpNs);
        channelStats.bytesTransferred += resp_frame_size;

        ++sid;
        if (!region.writeU64(End::Peer, SharedRegion::kTailOff, sid)
                 .isOk())
            return executed;
        ++executed;
        ++channelStats.executed;
        if (observer)
            observer->onExecuted(*this, rid, sid);
        calleeOs.tick();
    }
    return executed;
}

Result<Bytes>
SrpcChannel::resultOf(uint64_t request_id)
{
    if (request_id >= rid)
        return Status(ErrorCode::InvalidArgument,
                      "request never issued");
    /* Slot-lifetime rule: slotOffset wraps mod cfg.slots, so at
     * rid - request_id == cfg.slots the slot counts as recycled --
     * returning its contents would hand back a newer request's
     * response as if it were the old one. */
    if (rid - request_id >= cfg.slots)
        return Status(ErrorCode::NotFound,
                      "response slot already recycled");
    if (sid <= request_id)
        return Status(ErrorCode::InvalidState,
                      "request not yet executed (drain first)");

    if (observer)
        observer->onResultRead(*this, request_id, rid, sid);
    uint64_t slot = slotOffset(request_id) + cfg.slotBytes / 2;
    uint8_t header[8];
    CRONUS_RETURN_IF_ERROR(region.read(End::Owner, slot, header, 8));
    uint32_t code = decodeU32(header);
    uint32_t len = decodeU32(header + 4);
    if (code != uint32_t(ErrorCode::Ok))
        return Status(static_cast<ErrorCode>(code),
                      "remote mECall failed");
    Bytes payload(len);
    if (len > 0)
        CRONUS_RETURN_IF_ERROR(
            region.read(End::Owner, slot + 8, payload.data(), len));
    return payload;
}

Result<Bytes>
SrpcChannel::callSync(const std::string &fn, const Bytes &args)
{
    obs::Span call_span;
    if (auto &trc = obs::Tracer::instance(); trc.active()) {
        call_span = obs::Span(
            trc.enclaveTrack(callerEid, callerOs.deviceName()),
            "srpc.call", "srpc");
        call_span.arg("fn", fn);
        call_span.arg("callee", static_cast<int64_t>(calleeEid));
    }
    auto request_id = callAsync(fn, args);
    if (!request_id.isOk())
        return request_id.status();
    /* The caller needs the result: check progress now (§IV-C). */
    while (sid <= request_id.value()) {
        uint64_t done = pump(1);
        if (failed())
            return Status(ErrorCode::PeerFailed, "channel failed");
        if (done == 0)
            return Status(ErrorCode::Timeout, "executor stalled");
    }
    ++channelStats.syncCalls;
    --channelStats.asyncCalls;
    return resultOf(request_id.value());
}

Result<Bytes>
SrpcChannel::call(const std::string &fn, const Bytes &args)
{
    auto enclave = calleeOs.enclaveManager().enclave(calleeEid);
    bool is_async = enclave.isOk() &&
                    enclave.value()->isAsync(fn);
    if (is_async) {
        auto request_id = callAsync(fn, args);
        if (!request_id.isOk())
            return request_id.status();
        return Bytes{};
    }
    return callSync(fn, args);
}

Status
SrpcChannel::drain()
{
    obs::Span drain_span;
    if (auto &trc = obs::Tracer::instance(); trc.active()) {
        drain_span = obs::Span(
            trc.enclaveTrack(callerEid, callerOs.deviceName()),
            "srpc.drain", "srpc");
        drain_span.arg("pending",
                       static_cast<int64_t>(rid - sid));
    }
    while (sid < rid) {
        uint64_t done = pump(1);
        if (failed())
            return Status(ErrorCode::PeerFailed, "channel failed");
        if (done == 0)
            return Status(ErrorCode::Timeout, "executor stalled");
    }
    /* streamCheck: Sid == Rid, cross-checked against smem. Each
     * check is one in-place counter read — no allocation. */
    auto rid_mem = region.readU64(End::Owner, SharedRegion::kHeadOff);
    auto sid_mem = region.readU64(End::Owner, SharedRegion::kTailOff);
    if (!rid_mem.isOk() || !sid_mem.isOk())
        return Status(ErrorCode::PeerFailed, "channel failed");
    if (rid_mem.value() != sid_mem.value())
        return Status(ErrorCode::IntegrityViolation,
                      "streamCheck failed (Sid != Rid)");
    return Status::ok();
}

Status
SrpcChannel::close()
{
    if (closed || (!open && !failed()))
        return Status(ErrorCode::InvalidState, "channel not open");

    obs::Span close_span;
    if (auto &trc = obs::Tracer::instance(); trc.active()) {
        close_span = obs::Span(
            trc.partitionTrack(callerOs.partitionId(),
                               callerOs.deviceName()),
            "srpc.close", "srpc");
        close_span.arg("grant", static_cast<int64_t>(grantId()));
    }
    Status drained = Status::ok();
    if (!failed()) {
        drained = drain();
        /* drain() may itself discover the peer failure; only touch
         * smem again when the channel is still healthy. */
        if (!failed()) {
            const uint8_t closed_flag = 1;
            region.write(End::Owner, SharedRegion::kClosedOff,
                         &closed_flag, 1);
        }
    }
    open = false;
    closed = true;
    /* Revoke-on-failure: the grant is released even when the peer
     * died -- otherwise every failed channel leaks its smem grant
     * and pages (the SPM may already have retired the grant through
     * the trap path, in which case only the pages come back). */
    uint64_t grant_id = grantId();
    bool revoked = region.release();
    if (observer)
        observer->onClosed(*this, grant_id, revoked);
    return drained;
}

} // namespace cronus::core
