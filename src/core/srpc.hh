/**
 * @file
 * Streaming RPC (sRPC) between mEnclaves (§IV-C).
 *
 * sRPC models RPC requests as input to a stream processor: the
 * caller (mE_A) continuously appends serialized mECalls to a ring
 * buffer in *trusted shared memory* (owned by A's partition, shared
 * to B's through the SPM), and a dedicated executor thread for mE_B
 * drains the ring -- no per-call context switch. The caller checks
 * progress only when it needs a result or a synchronization point.
 * The simulation runs that executor as pump(), driven by the
 * caller's flow control, callSync and drain.
 *
 * Security structure:
 *  - setup does local attestation of the callee over untrusted
 *    memory, every message MACed with secret_dhke (the DH ownership
 *    secret), then establishes the shared region and runs dCheck:
 *    the callee proves ownership of secret_dhke *through the shared
 *    memory*, so the caller knows the region is really shared with
 *    the authenticated mE_B;
 *  - requests/responses live only in trusted memory, so the normal
 *    OS can neither observe RPC timing nor tamper/reorder/replay;
 *  - the executor consumes slots strictly in order (Sid), and
 *    drain() verifies streamCheck (Sid == Rid);
 *  - a partition failure turns the next shared-memory access into a
 *    trap; the channel observes PeerFailed, clears its state and
 *    surfaces the failure (A1/A2 defenses, §IV-D).
 *
 * Slot-lifetime rule: the ring has cfg.slots slots and slotOffset
 * wraps request indices mod cfg.slots, so the response of request r
 * may be fetched through resultOf(r) only while fewer than cfg.slots
 * newer requests have been issued (Rid - r < cfg.slots). Once
 * Rid - r >= cfg.slots the slot is considered recycled and resultOf
 * returns NotFound -- never the recycled slot's contents. The
 * InvariantAuditor (src/inject/) checks this rule, together with
 * streamCheck (Sid <= Rid <= Sid + slots) and grant accounting, on
 * every channel operation.
 */

#ifndef CRONUS_CORE_SRPC_HH
#define CRONUS_CORE_SRPC_HH

#include <memory>

#include "shared_region.hh"

namespace cronus::core
{

struct SrpcConfig
{
    uint64_t slots = 8;
    uint64_t slotBytes = 262144;
    /** Payload area per slot (requests); responses use the rest. */
    uint64_t requestBytes() const { return slotBytes / 2 - 16; }
    uint64_t responseBytes() const { return slotBytes / 2 - 16; }
};

/** Channel statistics (for the ablation benches). */
struct SrpcStats
{
    uint64_t asyncCalls = 0;
    uint64_t syncCalls = 0;
    uint64_t executed = 0;
    /** Request and response bytes moved through the ring. */
    uint64_t bytesTransferred = 0;
    uint64_t setupWorldSwitches = 0;
    /* Per-phase virtual time of channel setup (pure bookkeeping:
     * clock deltas observed around the existing steps, charging
     * nothing extra). fig13 reports these as the cold-start
     * breakdown: attestation, grant + page-table setup, dCheck,
     * executor spawn. */
    SimTime setupAttestNs = 0;
    SimTime setupGrantNs = 0;
    SimTime setupDcheckNs = 0;
    SimTime setupExecutorNs = 0;
};

class SrpcChannel;

/**
 * Observes channel lifecycle and ring operations. Registered by the
 * invariant auditor (src/inject/): every callback fires after the
 * channel updated its cached indices, so the observer sees the state
 * the next operation will run against.
 */
class SrpcObserver
{
  public:
    virtual ~SrpcObserver() = default;
    /** Channel established; the second argument is its smem grant. */
    virtual void onSetup(const SrpcChannel &, uint64_t /*grant_id*/) {}
    /** A request was enqueued (Rid already advanced). */
    virtual void onEnqueue(const SrpcChannel &, uint64_t /*rid*/,
                           uint64_t /*sid*/) {}
    /** The executor completed a request (Sid already advanced). */
    virtual void onExecuted(const SrpcChannel &, uint64_t /*rid*/,
                            uint64_t /*sid*/) {}
    /** resultOf passed validation and is about to read the slot. */
    virtual void onResultRead(const SrpcChannel &,
                              uint64_t /*request_id*/,
                              uint64_t /*rid*/, uint64_t /*sid*/) {}
    /** The channel observed a peer failure. */
    virtual void onFailed(const SrpcChannel &) {}
    /** The channel released its smem; `revoked` tells whether the
     *  grant was revoked here (false: already retired by the SPM). */
    virtual void onClosed(const SrpcChannel &, uint64_t /*grant_id*/,
                          bool /*revoked*/) {}
};

class SrpcChannel
{
  public:
    /**
     * Establish a channel from @p caller_eid (hosted by
     * @p caller_os) to @p callee_eid (hosted by @p callee_os).
     * @p secret is secret_dhke between the *owner* of the callee
     * (which is the caller) and the callee enclave.
     *
     * Performs: local attestation -> smem allocation from the
     * caller's partition -> SPM page grant -> dCheck -> the world
     * switch that asks the normal world for an executor.
     */
    static Result<std::unique_ptr<SrpcChannel>> connect(
        MicroOS &caller_os, Eid caller_eid, MicroOS &callee_os,
        Eid callee_eid, const Bytes &secret,
        const SrpcConfig &config = SrpcConfig());

    ~SrpcChannel();

    /**
     * Invoke @p fn; async mECalls (per the callee manifest) are
     * enqueued without waiting and return an empty payload, sync
     * mECalls pump the executor to completion and return its result.
     */
    Result<Bytes> call(const std::string &fn, const Bytes &args);

    /** Force-enqueue without waiting (returns the request index). */
    Result<uint64_t> callAsync(const std::string &fn,
                               const Bytes &args);

    /** Enqueue and wait for this call's result. */
    Result<Bytes> callSync(const std::string &fn, const Bytes &args);

    /**
     * streamCheck: pump until Sid == Rid; fails if the peer died,
     * else with the status of the first call that failed since the
     * last drain (callSync's own failure excepted: it returns it).
     */
    Status drain();

    /**
     * The failure drain() would report, without pumping or reading
     * the ring (so no shared-memory access ordinal moves); cleared by
     * the read. A sync call's caller takes it after the call to learn
     * of an earlier async call that failed.
     */
    Status takeFailure();

    /** Result of the async request @p rid (drain first). */
    Result<Bytes> resultOf(uint64_t rid);

    /** Close the stream. */
    Status close();

    bool failed() const { return region.failed(); }
    const SrpcStats &stats() const { return channelStats; }
    uint64_t grantId() const { return region.grantId(); }

    /* --- introspection (injection / audit tooling) --- */

    /** Register @p obs (may be nullptr) for channel events. */
    void setObserver(SrpcObserver *obs) { observer = obs; }
    const SrpcConfig &config() const { return cfg; }
    /** Physical base of the ring in the caller's partition. */
    tee::PhysAddr ringBase() const { return region.base(); }
    uint64_t requestIndex() const { return rid; }

    /**
     * Executor step: process up to @p max pending requests in the
     * callee partition. Returns requests executed; sets the channel
     * failed state if the callee's memory access traps. Called by
     * flow control, callSync and drain.
     */
    uint64_t pump(uint64_t max = ~0ull);

  private:
    SrpcChannel(MicroOS &caller_os, Eid caller_eid,
                MicroOS &callee_os, Eid callee_eid, Bytes secret,
                const SrpcConfig &config);

    Status setup();
    uint64_t slotOffset(uint64_t index) const;
    void markFailed();

    MicroOS &callerOs;
    Eid callerEid;
    MicroOS &calleeOs;
    Eid calleeEid;
    Bytes secretDhke;
    SrpcConfig cfg;

    /** The ring: owned by the caller's partition, shared to the
     *  callee's. */
    SharedRegion region;
    uint64_t rid = 0;  ///< caller-side cached request index
    uint64_t sid = 0;  ///< executor-side cached progress index
    /* Executor scratch: reused across pump() iterations so the
     * steady-state call path performs no per-call allocations once
     * the high-water capacity is reached. */
    std::string execFn;
    Bytes execArgs;
    /** First non-Ok response pump() wrote since the last drain, and
     *  the index of the request it answered. */
    Status latchedFailure;
    uint64_t latchedRequest = 0;
    bool open = false;
    bool closed = false;  ///< close() already ran (resources gone)
    SrpcStats channelStats;
    SrpcObserver *observer = nullptr;
};

} // namespace cronus::core

#endif // CRONUS_CORE_SRPC_HH
