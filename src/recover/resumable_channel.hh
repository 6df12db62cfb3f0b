/**
 * @file
 * Resumable sRPC channels: supervised reconnect + in-flight replay.
 *
 * An SrpcChannel dies with its callee partition: the next enqueue
 * traps, the channel reports PeerFailed and every queued-but-unacked
 * request is lost. A ResumableChannel wraps the raw channel with the
 * recovery protocol of §IV-D so the *application* survives:
 *
 *  - every call is journaled in the channel's ReplayLog before it is
 *    sent; one that completes with an application error is dropped
 *    again, live or on replay;
 *  - checkpoint() drains the ring and seals the callee's state into
 *    the log's watermark (the request index): the journal empties;
 *  - on PeerFailed the channel *parks*: it closes the dead ring and
 *    waits for the Supervisor to bring the callee's device back;
 *  - tryResume() respawns the callee from the log on its recovered
 *    (or, after a quarantine, a different) device, re-runs channel
 *    setup (local attestation + dCheck against the new incarnation)
 *    and replays the journal in order;
 *  - when the Supervisor gives up (restart budget exhausted) and no
 *    alternative device exists, the channel transitions to GaveUp
 *    and every further call returns ErrorCode::Degraded.
 *
 * The wrapper is deterministic: parking, resume checks and replay
 * are all driven by the caller's pump/call cadence in virtual time.
 */

#ifndef CRONUS_RECOVER_RESUMABLE_CHANNEL_HH
#define CRONUS_RECOVER_RESUMABLE_CHANNEL_HH

#include <functional>

#include "replay_log.hh"
#include "supervisor.hh"

namespace cronus::recover
{

/** Everything needed to (re)create the callee enclave. */
struct CalleeSpec
{
    std::string manifestJson;
    std::string imageName;
    Bytes image;
    /** Pin to a device ("gpu0"); empty lets the dispatcher place
     *  (and re-place after a quarantine). */
    std::string deviceName;
    core::SrpcConfig srpc;
    /** Checkpoint automatically every N successful calls (0: only
     *  explicit checkpoint() calls). */
    uint64_t autoCheckpointEvery = 0;
};

enum class ChannelState
{
    Live,    ///< channel up, calls flow
    Parked,  ///< callee died; waiting for supervised recovery
    GaveUp,  ///< recovery exhausted; calls return Degraded
};

const char *channelStateName(ChannelState state);

class ResumableChannel
{
  public:
    /** Fired after every successful (re)connect, including the first
     *  open() -- lets benches re-attach observers/auditors to the
     *  fresh raw channel. */
    using ConnectHook = std::function<void(core::SrpcChannel &)>;

    ResumableChannel(core::CronusSystem &system, Supervisor &sup,
                     core::AppHandle &caller, CalleeSpec spec);
    ~ResumableChannel();

    /** Create the callee and establish the first channel. */
    Status open();

    /**
     * Journaled call. While Parked, first attempts a resume (and
     * returns PeerFailed if the callee is still down); while GaveUp,
     * returns Degraded.
     */
    Result<Bytes> call(const std::string &fn, const Bytes &args);

    /** Drain the ring (parks on peer failure like call()). */
    Status drain();

    /**
     * Seal the callee's state and advance the replay watermark: the
     * journal is cleared, so only calls made *after* this point are
     * replayed on reconnect.
     */
    Status checkpoint();

    /**
     * One resume attempt. Ok: resumed (Live). PeerFailed: callee
     * still recovering, try again later. Degraded: gave up (budget
     * exhausted and no alternative device). Anything else: hard
     * reconnect error.
     */
    Status tryResume();

    /**
     * Block (in virtual time) until resumed or given up. Returns Ok
     * once Live again, Degraded on GaveUp.
     */
    Status awaitResume();

    ChannelState state() const { return st; }
    core::AppHandle &callee() { return calleeHandle; }
    const std::string &device() const { return currentDevice; }
    core::SrpcChannel *raw() { return chan.get(); }
    uint64_t replayedCalls() const { return replayed; }
    uint64_t reconnects() const { return reconnectCount; }
    void setOnConnect(ConnectHook hook)
    {
        onConnect = std::move(hook);
    }

  private:
    void park();
    /** Respawn the callee from the log, connect to the fresh
     *  incarnation (destroying it if the connect fails) and go
     *  Live on it. */
    Status attach();
    Status reconnect();

    core::CronusSystem &sys;
    Supervisor &sup;
    core::AppHandle &caller;
    CalleeSpec spec;

    ChannelState st = ChannelState::GaveUp;  ///< until open()
    core::AppHandle calleeHandle;  ///< host set once open() built it
    std::string currentDevice;
    std::unique_ptr<core::SrpcChannel> chan;

    /** Watermark + the calls journaled past it. */
    ReplayLog log;

    uint64_t replayed = 0;
    uint64_t reconnectCount = 0;
    ConnectHook onConnect;
};

} // namespace cronus::recover

#endif // CRONUS_RECOVER_RESUMABLE_CHANNEL_HH
