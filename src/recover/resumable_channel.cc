#include "resumable_channel.hh"

#include "obs/trace.hh"

namespace cronus::recover
{

namespace
{

/** Node-qualified channel track name ("channel node3/gpu0"); the
 *  bare device when the supervisor has no node identity, so
 *  single-node traces are unchanged. */
std::string
channelTrack(const Supervisor &sup, const std::string &device)
{
    const std::string &n = sup.node();
    return n.empty() ? "channel " + device
                     : "channel " + n + "/" + device;
}

} // namespace

const char *
channelStateName(ChannelState state)
{
    switch (state) {
      case ChannelState::Live:   return "live";
      case ChannelState::Parked: return "parked";
      case ChannelState::GaveUp: return "gave-up";
    }
    return "?";
}

ResumableChannel::ResumableChannel(core::CronusSystem &system,
                                   Supervisor &supervisor,
                                   core::AppHandle &caller_handle,
                                   CalleeSpec callee_spec)
    : sys(system), sup(supervisor), caller(caller_handle),
      spec(std::move(callee_spec)), log(spec.autoCheckpointEvery)
{
}

ResumableChannel::~ResumableChannel() = default;

Status
ResumableChannel::open()
{
    if (calleeHandle.host != nullptr)
        return Status(ErrorCode::InvalidState,
                      "channel already opened");
    return attach();
}

Status
ResumableChannel::attach()
{
    auto fresh = log.respawn(sys, spec.manifestJson, spec.imageName,
                             spec.image, spec.deviceName);
    if (!fresh.isOk())
        return fresh.status();
    core::AppHandle h = fresh.value();
    /* connect() runs local attestation + dCheck against this
     * incarnation -- a recovered mOS must prove itself again. */
    auto c = sys.connect(caller, h, spec.srpc);
    if (!c.isOk()) {
        (void)sys.destroyEnclave(h);
        return c.status();
    }
    calleeHandle = h;
    currentDevice = h.host->deviceName();
    chan = std::move(c.value());
    CRONUS_RETURN_IF_ERROR(sup.watch(currentDevice));
    st = ChannelState::Live;
    if (onConnect)
        onConnect(*chan);
    return Status::ok();
}

void
ResumableChannel::park()
{
    if (auto &trc = obs::Tracer::instance(); trc.active()) {
        JsonObject targs;
        targs["device"] = currentDevice;
        trc.instant(trc.track(channelTrack(sup, currentDevice)),
                    "channel.park", "recover", std::move(targs));
    }
    st = ChannelState::Parked;
    if (chan) {
        /* The ring lived in the *caller's* partition; close()
         * releases the grant so nothing dangles while we wait. */
        (void)chan->close();
        chan.reset();
    }
}

Result<Bytes>
ResumableChannel::call(const std::string &fn, const Bytes &args)
{
    if (st == ChannelState::GaveUp)
        return Status(ErrorCode::Degraded,
                      "channel gave up: callee device '" +
                      currentDevice + "' unrecoverable");
    if (st == ChannelState::Parked) {
        Status s = tryResume();
        if (!s.isOk())
            return s;
    }
    log.record(fn, args);
    auto r = chan->call(fn, args);
    if (!r.isOk()) {
        if (r.status().code() == ErrorCode::PeerFailed ||
            chan->failed()) {
            park();
            return Status(ErrorCode::PeerFailed,
                          "callee failed during '" + fn +
                          "'; channel parked");
        }
        /* An application-level failure: the call completed (badly)
         * and must not be replayed on reconnect. */
        log.drop(log.journal().size() - 1);
        return r;
    }
    log.ack();
    if (log.checkpointDue()) {
        /* Best effort: a failed auto-checkpoint (e.g. the callee
         * died right after answering) parks the channel and the
         * journal still covers the un-checkpointed calls. */
        (void)checkpoint();
    }
    return r;
}

Status
ResumableChannel::drain()
{
    if (st == ChannelState::GaveUp)
        return Status(ErrorCode::Degraded, "channel gave up");
    if (st == ChannelState::Parked)
        CRONUS_RETURN_IF_ERROR(tryResume());
    Status s = chan->drain();
    if (!s.isOk() &&
        (s.code() == ErrorCode::PeerFailed || chan->failed())) {
        park();
        return Status(ErrorCode::PeerFailed,
                      "callee failed during drain; channel parked");
    }
    return s;
}

Status
ResumableChannel::checkpoint()
{
    if (st != ChannelState::Live)
        return Status(ErrorCode::InvalidState,
                      "checkpoint on a non-live channel");
    Status s = chan->drain();
    if (!s.isOk()) {
        if (s.code() == ErrorCode::PeerFailed || chan->failed())
            park();
        return s;
    }
    auto sealed = sys.checkpointEnclave(calleeHandle);
    if (!sealed.isOk())
        return sealed.status();
    /* The watermark advances to the current request index. */
    log.seal(std::move(sealed.value()), calleeHandle.secret);
    return Status::ok();
}

Status
ResumableChannel::reconnect()
{
    auto &trc = obs::Tracer::instance();
    obs::Span reconnect_span;
    if (trc.active()) {
        reconnect_span =
            obs::Span(trc.track(channelTrack(sup, currentDevice)),
                      "channel.reconnect", "recover");
        reconnect_span.arg("device", currentDevice);
        reconnect_span.arg(
            "haveCheckpoint",
            static_cast<int64_t>(log.hasWatermark() ? 1 : 0));
    }
    CRONUS_RETURN_IF_ERROR(attach());
    ++reconnectCount;
    /* Replay the journaled calls past the checkpoint watermark, in
     * order, straight into the raw channel (no re-journaling: they
     * are already journaled). */
    const std::vector<ReplayLog::Call> &journal = log.journal();
    obs::Span replay_span;
    if (trc.active() && !journal.empty()) {
        replay_span =
            obs::Span(trc.track(channelTrack(sup, currentDevice)),
                      "channel.replay", "recover");
        replay_span.arg("calls",
                        static_cast<int64_t>(journal.size()));
    }
    for (size_t i = 0; i < journal.size();) {
        auto r = chan->call(journal[i].fn, journal[i].args);
        if (r.isOk()) {
            ++replayed;
            ++i;
            continue;
        }
        if (r.status().code() == ErrorCode::PeerFailed ||
            chan->failed()) {
            park();
            return Status(ErrorCode::PeerFailed,
                          "callee failed during replay of '" +
                          journal[i].fn + "'");
        }
        /* The call completed with an application error, as it did
         * (or would have) live: call()'s rule drops it, and the
         * calls journaled after it still replay. */
        log.drop(i);
    }
    return Status::ok();
}

Status
ResumableChannel::tryResume()
{
    if (st == ChannelState::Live)
        return Status::ok();
    if (st == ChannelState::GaveUp)
        return Status(ErrorCode::Degraded, "channel gave up");
    sup.pump();
    if (sup.quarantined(currentDevice)) {
        if (!spec.deviceName.empty()) {
            st = ChannelState::GaveUp;
            return Status(ErrorCode::Degraded,
                          "pinned device '" + currentDevice +
                          "' quarantined; channel gave up");
        }
        /* Unpinned: let the dispatcher re-place the callee on a
         * non-degraded device of the same type. */
        Status s = reconnect();
        if (!s.isOk() && s.code() == ErrorCode::Degraded)
            st = ChannelState::GaveUp;
        return s;
    }
    auto os = sys.mosForDevice(currentDevice);
    if (!os.isOk())
        return os.status();
    auto p = sys.spm().partition(os.value()->partitionId());
    if (!p.isOk())
        return p.status();
    if (p.value()->state != tee::PartitionState::Ready)
        return Status(ErrorCode::PeerFailed,
                      "callee device '" + currentDevice +
                      "' still recovering");
    Status s = reconnect();
    if (!s.isOk()) {
        if (s.code() == ErrorCode::Degraded) {
            st = ChannelState::GaveUp;
            return s;
        }
        /* A double fault can kill the fresh incarnation mid-
         * reconnect; whatever error that surfaced as, if the callee
         * is dead again the channel just stays parked. */
        auto again = sys.spm().partition(os.value()->partitionId());
        if (again.isOk() &&
            again.value()->state != tee::PartitionState::Ready) {
            if (st == ChannelState::Live)
                park();
            st = ChannelState::Parked;
            return Status(ErrorCode::PeerFailed,
                          "callee died again during reconnect");
        }
    }
    return s;
}

Status
ResumableChannel::awaitResume()
{
    while (st == ChannelState::Parked) {
        Status s = tryResume();
        if (s.isOk() || s.code() != ErrorCode::PeerFailed)
            return s;
        Status w = sup.awaitRecovery(currentDevice);
        if (!w.isOk() && w.code() != ErrorCode::Degraded)
            return w;
        /* Degraded: loop back so tryResume decides between
         * re-placement (unpinned) and GaveUp (pinned). */
    }
    if (st == ChannelState::GaveUp)
        return Status(ErrorCode::Degraded, "channel gave up");
    return Status::ok();
}

} // namespace cronus::recover
