#include "supervisor.hh"

#include "obs/trace.hh"

namespace cronus::recover
{

namespace
{

/** Recovery-stage instant on the watched partition's track. */
void
noteRecovery(const char *name, tee::PartitionId pid,
             const std::string &device, uint32_t restarts)
{
    auto &tr = obs::Tracer::instance();
    if (!tr.active())
        return;
    JsonObject args;
    args["device"] = device;
    args["restarts"] = static_cast<int64_t>(restarts);
    tr.instant(tr.partitionTrack(pid, device), name, "recover",
               std::move(args));
}

/** Retroactive recovery-stage span [start, now] (the stage ran
 *  concurrently with foreground work; its end is only observed at
 *  the deadline inside pump()). */
void
noteRecoveryStage(const char *name, tee::PartitionId pid,
                  const std::string &device, SimTime start,
                  uint32_t restarts)
{
    auto &tr = obs::Tracer::instance();
    if (!tr.active())
        return;
    JsonObject args;
    args["device"] = device;
    args["restarts"] = static_cast<int64_t>(restarts);
    tr.complete(tr.partitionTrack(pid, device), name, "recover",
                start, std::move(args));
}

} // namespace

const char *
deviceHealthName(DeviceHealth health)
{
    switch (health) {
      case DeviceHealth::Healthy:     return "healthy";
      case DeviceHealth::BackingOff:  return "backing-off";
      case DeviceHealth::Scrubbing:   return "scrubbing";
      case DeviceHealth::Quarantined: return "quarantined";
    }
    return "?";
}

Supervisor::Supervisor(core::CronusSystem &system,
                       const SupervisorConfig &config)
    : sys(system), cfg(config)
{
}

Status
Supervisor::watch(const std::string &device, bool hang_detect)
{
    auto it = watches.find(device);
    if (it != watches.end()) {
        it->second.hangDetect |= hang_detect;
        return Status::ok();
    }
    auto os = sys.mosForDevice(device);
    if (!os.isOk())
        return os.status();
    DeviceWatch w;
    w.pid = os.value()->partitionId();
    w.hangDetect = hang_detect;
    auto p = sys.spm().partition(w.pid);
    if (p.isOk())
        w.lastSeenHeartbeat = p.value()->heartbeat;
    w.nextHangPoll =
        sys.platform().clock().now() + kPollPeriodNs;
    watches.emplace(device, w);
    return Status::ok();
}

SimTime
Supervisor::backoffDelay(uint32_t restart_number) const
{
    SimTime delay = cfg.backoffBaseNs;
    if (delay >= kBackoffMaxNs || cfg.backoffFactor < 2)
        return delay < kBackoffMaxNs ? delay : kBackoffMaxNs;
    for (uint32_t i = 1; i < restart_number; ++i) {
        /* Stop before the multiply that would cross the ceiling:
         * checking against max/factor keeps the growth itself free
         * of SimTime overflow at high restart counts. */
        if (delay > kBackoffMaxNs / cfg.backoffFactor)
            return kBackoffMaxNs;
        delay *= cfg.backoffFactor;
    }
    return delay < kBackoffMaxNs ? delay : kBackoffMaxNs;
}

void
Supervisor::logEvent(const std::string &device,
                     const std::string &what, uint32_t restarts)
{
    eventLog.push_back(SupervisorEvent{
        sys.platform().clock().now(), device, what, restarts});
}

std::string
Supervisor::qualified(const std::string &device) const
{
    const std::string &n = node();
    return n.empty() ? device : n + "/" + device;
}

void
Supervisor::quarantine(const std::string &device, DeviceWatch &w,
                       const char *event,
                       const std::string &dump_reason)
{
    if (w.health == DeviceHealth::Quarantined)
        return;
    w.health = DeviceHealth::Quarantined;
    sys.dispatcher().setDegraded(device, true);
    logEvent(device, event, w.restarts);
    noteRecovery("recover.quarantine", w.pid, qualified(device),
                 w.restarts);
    obs::Tracer::instance().dumpFlight(dump_reason);
    if (onQuarantine)
        onQuarantine(device);
}

Status
Supervisor::quarantineDevice(const std::string &device,
                             const std::string &why)
{
    auto it = watches.find(device);
    if (it == watches.end())
        return Status(ErrorCode::NotFound,
                      "device '" + device + "' is not watched");
    quarantine(device, it->second, "quarantined",
               "fleet quarantine (" + why + "): " +
                   qualified(device));
    return Status::ok();
}

void
Supervisor::onFailure(const std::string &device, DeviceWatch &w,
                      const char *what)
{
    logEvent(device, what, w.restarts);
    noteRecovery(what[0] == 'h' ? "recover.hang"
                                : "recover.failure",
                 w.pid, qualified(device), w.restarts);
    if (w.restarts >= cfg.restartBudget) {
        quarantine(device, w, "quarantined",
                   "supervisor quarantine: " + qualified(device));
        return;
    }
    ++w.restarts;
    w.health = DeviceHealth::BackingOff;
    w.stageStart = sys.platform().clock().now();
    w.deadline = w.stageStart + backoffDelay(w.restarts);
    logEvent(device, "backoff", w.restarts);
}

void
Supervisor::pump()
{
    SimClock &clock = sys.platform().clock();
    for (auto &[device, w] : watches) {
        auto p = sys.spm().partition(w.pid);
        if (!p.isOk())
            continue;
        switch (w.health) {
          case DeviceHealth::Healthy: {
            if (p.value()->state == tee::PartitionState::Failed) {
                onFailure(device, w, "failure");
                break;
            }
            if (w.hangDetect && clock.now() >= w.nextHangPoll) {
                clock.advance(
                    sys.platform().costs().hangPollNs);
                w.nextHangPoll = clock.now() + kPollPeriodNs;
                if (p.value()->heartbeat == w.lastSeenHeartbeat) {
                    /* No progress since the last poll: hang. Fail
                     * the partition (step 1) and stage recovery
                     * like any other failure. */
                    (void)sys.spm().failPartition(w.pid);
                    onFailure(device, w, "hang");
                } else {
                    w.lastSeenHeartbeat = p.value()->heartbeat;
                }
            }
            break;
          }
          case DeviceHealth::BackingOff: {
            if (clock.now() < w.deadline)
                break;
            noteRecoveryStage("recover.backoff", w.pid,
                              qualified(device), w.stageStart,
                              w.restarts);
            w.health = DeviceHealth::Scrubbing;
            auto est = sys.recoveryEstimate(device);
            w.stageStart = clock.now();
            w.deadline = clock.now() + est.valueOr(0);
            logEvent(device, "scrub", w.restarts);
            break;
          }
          case DeviceHealth::Scrubbing: {
            if (clock.now() < w.deadline)
                break;
            /* The scrub window elapsed concurrently with whatever
             * the rest of the machine was doing; the reboot itself
             * charges nothing extra. */
            Status s = sys.recover(device, /*charge_clock=*/false);
            noteRecoveryStage("recover.scrub", w.pid,
                              qualified(device), w.stageStart,
                              w.restarts);
            if (!s.isOk()) {
                quarantine(device, w, "reboot-failed",
                           "supervisor reboot failed: " +
                               qualified(device));
                break;
            }
            w.health = DeviceHealth::Healthy;
            w.lastSeenHeartbeat = 0;
            w.nextHangPoll = clock.now() + kPollPeriodNs;
            logEvent(device, "recovered", w.restarts);
            noteRecovery("recover.recovered", w.pid,
                         qualified(device), w.restarts);
            break;
          }
          case DeviceHealth::Quarantined:
            break;
        }
    }
}

Status
Supervisor::awaitRecovery(const std::string &device)
{
    auto it = watches.find(device);
    if (it == watches.end())
        return Status(ErrorCode::NotFound,
                      "device '" + device + "' is not watched");
    SimClock &clock = sys.platform().clock();
    for (;;) {
        pump();
        DeviceWatch &w = it->second;
        if (w.health == DeviceHealth::Quarantined)
            return Status(ErrorCode::Degraded,
                          "device '" + device +
                          "' quarantined after " +
                          std::to_string(w.restarts) + " restarts");
        if (w.health == DeviceHealth::Healthy) {
            auto p = sys.spm().partition(w.pid);
            if (p.isOk() &&
                p.value()->state == tee::PartitionState::Ready)
                return Status::ok();
            /* Healthy on the books but Failed on the ground: the
             * next pump starts the backoff stage. */
            continue;
        }
        /* Sleep (in virtual time) until the stage deadline. */
        clock.advanceTo(w.deadline);
    }
}

DeviceHealth
Supervisor::healthOf(const std::string &device) const
{
    auto it = watches.find(device);
    return it == watches.end() ? DeviceHealth::Healthy
                               : it->second.health;
}

uint32_t
Supervisor::restartsOf(const std::string &device) const
{
    auto it = watches.find(device);
    return it == watches.end() ? 0 : it->second.restarts;
}

bool
Supervisor::quarantined(const std::string &device) const
{
    return healthOf(device) == DeviceHealth::Quarantined;
}

JsonValue
Supervisor::report() const
{
    JsonObject devices;
    for (const auto &[device, w] : watches) {
        JsonObject entry;
        entry["health"] = deviceHealthName(w.health);
        entry["restarts"] = static_cast<int64_t>(w.restarts);
        devices[device] = JsonValue(std::move(entry));
    }
    JsonArray events;
    for (const SupervisorEvent &e : eventLog) {
        JsonObject o;
        o["t_ns"] = static_cast<int64_t>(e.t);
        o["device"] = e.device;
        o["what"] = e.what;
        o["restarts"] = static_cast<int64_t>(e.restarts);
        events.push_back(JsonValue(std::move(o)));
    }
    JsonObject report;
    report["restart_budget"] =
        static_cast<int64_t>(cfg.restartBudget);
    report["backoff_base_ns"] =
        static_cast<int64_t>(cfg.backoffBaseNs);
    report["devices"] = JsonValue(std::move(devices));
    report["events"] = JsonValue(std::move(events));
    return JsonValue(std::move(report));
}

} // namespace cronus::recover
