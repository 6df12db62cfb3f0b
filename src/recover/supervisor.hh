/**
 * @file
 * Supervised recovery (§IV-D operationalized).
 *
 * The Supervisor moves failure handling out of per-application code
 * and into the platform: it owns the hang-poll / crash-detection
 * loop for the devices it watches (virtual-time cadence), drives
 * staged recovery (fail -> backoff -> scrub -> reboot via the SPM)
 * under a per-partition restart budget with exponential backoff in
 * simulated time, and quarantines crash-looping partitions, marking
 * their device degraded so the dispatcher places new enclaves
 * elsewhere.
 *
 * The state machine per watched device:
 *
 *   Healthy --failure/hang--> BackingOff --deadline--> Scrubbing
 *      ^                                                   |
 *      +------------------- reboot (deadline) -------------+
 *
 *   any failure with restarts >= budget --> Quarantined (terminal;
 *   the device is marked degraded on the dispatcher)
 *
 * All transitions happen inside pump(), which never blocks: it only
 * reacts to the current virtual time, so callers interleave their
 * own work with recovery (a healthy partition's throughput is not
 * perturbed by a failed peer's reboot). awaitRecovery() is the
 * blocking form: it pumps and advances the clock to the next
 * deadline until the device is back up or quarantined.
 */

#ifndef CRONUS_RECOVER_SUPERVISOR_HH
#define CRONUS_RECOVER_SUPERVISOR_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/system.hh"

namespace cronus::recover
{

struct SupervisorConfig
{
    /** Restarts allowed per partition before quarantine. */
    uint32_t restartBudget = 3;
    /** Backoff before the Nth restart: base * factor^(N-1),
     *  clamped to Supervisor::kBackoffMaxNs. */
    SimTime backoffBaseNs = 20 * kNsPerMs;
    uint32_t backoffFactor = 2;
};

enum class DeviceHealth
{
    Healthy,
    BackingOff,   ///< failure observed; waiting out the backoff
    Scrubbing,    ///< step-2 scrub + mOS reload in progress
    Quarantined,  ///< restart budget exhausted (terminal)
};

const char *deviceHealthName(DeviceHealth health);

/** One entry of the deterministic recovery event log. */
struct SupervisorEvent
{
    SimTime t = 0;
    std::string device;
    std::string what;  ///< "failure" | "hang" | "scrub" | ...
    uint32_t restarts = 0;
};

class Supervisor
{
  public:
    explicit Supervisor(core::CronusSystem &system,
                        const SupervisorConfig &config =
                            SupervisorConfig());

    /** Hang-poll cadence for watches with hang detection. */
    static constexpr SimTime kPollPeriodNs = 50 * kNsPerMs;
    /** Ceiling on the exponential backoff: without it, a large
     *  restart budget (or a hand-tuned factor) overflows SimTime
     *  after ~64 doublings and schedules deadlines in the past. */
    static constexpr SimTime kBackoffMaxNs = 10 * kNsPerSec;

    /**
     * Start supervising @p device. With @p hang_detect the
     * supervisor also polls the partition's heartbeat every
     * kPollPeriodNs (only watched devices are polled: an idle
     * caller-side CPU partition that never ticks must not be
     * declared hung). Idempotent.
     */
    Status watch(const std::string &device, bool hang_detect = false);

    /**
     * Non-blocking supervision step: detect failures/hangs, start
     * or finish backoff and scrub stages whose deadline passed.
     * Call it from the application's event loop; time only moves
     * through simulated work, so pumping is deterministic.
     */
    void pump();

    /**
     * Block (in virtual time) until @p device is Ready again or
     * quarantined. Returns Ok after a completed recovery, Degraded
     * when the device is (or becomes) quarantined.
     */
    Status awaitRecovery(const std::string &device);

    DeviceHealth healthOf(const std::string &device) const;
    uint32_t restartsOf(const std::string &device) const;
    bool quarantined(const std::string &device) const;

    /**
     * Force @p device into Quarantined (fleet-initiated: a drain
     * that exhausted its migration budget, a node the cluster gave
     * up on). Idempotent -- if the device is already quarantined,
     * nothing is logged, no flight dump is emitted and the
     * on-quarantine hook does not fire again, so fleet- and
     * node-level quarantine cannot double-fire. NotFound when the
     * device is not watched.
     */
    Status quarantineDevice(const std::string &device,
                            const std::string &why);

    /**
     * Observer fired exactly once per device transition into
     * Quarantined (budget exhaustion, reboot failure, or
     * quarantineDevice). The fleet layer uses it to escalate a
     * node-local quarantine to cluster placement state.
     */
    void setOnQuarantine(
        std::function<void(const std::string &device)> fn)
    {
        onQuarantine = std::move(fn);
    }

    /**
     * Node identity qualifying this supervisor's spans and flight
     * dumps ("node3/gpu0"); taken from the system's configured
     * nodeName. Empty for a standalone system, in which case every
     * name is exactly what it was before fleets existed.
     */
    const std::string &node() const { return sys.nodeName(); }

    /** Deterministic backoff before the Nth restart (1-based). */
    SimTime backoffDelay(uint32_t restart_number) const;

    const SupervisorConfig &config() const { return cfg; }
    const std::vector<SupervisorEvent> &events() const
    {
        return eventLog;
    }

    /** Recovery log + per-device health as JSON (bench reports). */
    JsonValue report() const;

  private:
    struct DeviceWatch
    {
        tee::PartitionId pid = 0;
        DeviceHealth health = DeviceHealth::Healthy;
        SimTime deadline = 0;        ///< backoff/scrub end time
        SimTime stageStart = 0;      ///< current stage start (trace)
        uint32_t restarts = 0;
        bool hangDetect = false;
        uint64_t lastSeenHeartbeat = 0;
        SimTime nextHangPoll = 0;
    };

    void onFailure(const std::string &device, DeviceWatch &w,
                   const char *what);
    void logEvent(const std::string &device, const std::string &what,
                  uint32_t restarts);
    /** Node-qualified device name for spans/dumps. */
    std::string qualified(const std::string &device) const;
    /**
     * The single quarantine transition: marks the watch terminal,
     * degrades the device on the dispatcher, logs @p event, emits
     * the recover.quarantine instant, dumps the flight ring with
     * @p dump_reason and fires the on-quarantine hook -- or does
     * nothing at all if the watch is already Quarantined.
     */
    void quarantine(const std::string &device, DeviceWatch &w,
                    const char *event,
                    const std::string &dump_reason);

    core::CronusSystem &sys;
    SupervisorConfig cfg;
    std::map<std::string, DeviceWatch> watches;
    std::vector<SupervisorEvent> eventLog;
    std::function<void(const std::string &)> onQuarantine;
};

} // namespace cronus::recover

#endif // CRONUS_RECOVER_SUPERVISOR_HH
