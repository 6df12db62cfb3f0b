/**
 * @file
 * Multi-SoC CRONUS fleet: placement, cross-node calls, live
 * migration and node-drain fault tolerance.
 *
 * A Cluster owns N ClusterNodes on one shared SimClock, an
 * Interconnect between them, and a FleetDispatcher for placement.
 * Every placed enclave is tracked in a FleetEnclave record holding
 * its respawn spec (manifest/image) and a recover::ReplayLog, the
 * one home of the watermark + journal rule (ResumableChannel keeps
 * one per callee). The frontend journals a call once it is acked,
 * so every build -- placement (from an empty log), re-placement,
 * in-place recovery, migration -- is ReplayLog::respawn plus the
 * journal, and live migration and node-loss recovery are
 * acked-call-lossless.
 *
 * Migration state machine (migrateEnclave):
 *
 *   Snapshot -> ReAttest -> Transfer -> Restore -> Replay -> Retire
 *
 * The single commit point is Retire: the source copy is destroyed
 * only after the destination finished replaying. A failure (or an
 * injected node kill) at any earlier stage aborts back to the
 * source -- destroying any partial destination copy -- and a dead
 * *source* mid-flight does not abort: the frontend already holds
 * watermark + journal, so the migration completes onto the
 * destination. Either way exactly one live copy survives, which is
 * the fuzzer's convergence oracle.
 *
 * drainNode evacuates a node under a DrainBudget (a cap on live
 * migrations): live-migrate while budget lasts, fall back to in-place recovery for enclaves
 * that cannot move, and finally quarantine the node at fleet level
 * (idempotent with the node Supervisor's own quarantine -- see
 * Supervisor::quarantineDevice) re-placing whatever remained.
 *
 * Every operation runs to completion on the calling thread, so the
 * fleet timeline is a pure function of the call sequence.
 */

#ifndef CRONUS_CLUSTER_CLUSTER_HH
#define CRONUS_CLUSTER_CLUSTER_HH

#include "fleet_dispatcher.hh"
#include "interconnect.hh"
#include "node.hh"
#include "recover/replay_log.hh"

namespace cronus::cluster
{

/** Fleet-wide enclave id (stable across migrations). */
using Fid = uint64_t;

/** Fleet shape. Every node's Supervisor runs the default
 *  SupervisorConfig, and every link the Interconnect's fixed costs. */
struct ClusterConfig
{
    uint32_t numNodes = 2;
    /** Per-node machine shape (sharedClock/nodeName overwritten). */
    core::CronusConfig nodeSystem;
    /** Auto-checkpoint after this many acked calls (0 = manual). */
    uint32_t autoCheckpointEvery = 0;
    /** Ignored: the fleet always runs serially. Kept only so that
     *  configurations which still set it keep compiling. */
    int parallelWorkers = -1;
};

enum class MigrationStage
{
    Snapshot,
    ReAttest,
    Transfer,
    Restore,
    Replay,
    Retire,
};

const char *migrationStageName(MigrationStage stage);
Result<MigrationStage> migrationStageFromName(
    const std::string &name);

/** One completed (or aborted) migration, for audits and oracles. */
struct MigrationAudit
{
    uint64_t seq = 0;
    Fid fid = 0;
    NodeId src = 0;
    NodeId dst = 0;
    std::string outcome;  ///< "completed" | "aborted:<stage>: ..."
    bool srcAlive = false;  ///< live copy on src after the attempt
    bool dstAlive = false;  ///< live copy on dst after the attempt
    SimTime startNs = 0;
    SimTime endNs = 0;
    uint64_t replayedCalls = 0;

    /** The convergence invariant: exactly one live copy. */
    bool converged() const { return srcAlive != dstAlive; }
};

/** Evacuation limits for drainNode. */
struct DrainBudget
{
    /** Live migrations allowed (the rest re-place cold). */
    uint32_t maxMigrations = 0xffffffffu;
};

class Cluster
{
  public:
    explicit Cluster(const ClusterConfig &config);

    SimClock &clock() { return fleetClock; }
    size_t numNodes() const { return nodes.size(); }
    ClusterNode &node(NodeId id) { return *nodes.at(id); }
    Interconnect &interconnect() { return fabric; }
    FleetDispatcher &dispatcher() { return placer; }
    const ClusterConfig &config() const { return cfg; }

    /* --- placement + calls --- */

    /**
     * Place a new enclave on the best node (health-aware
     * least-loaded). The spec is retained for re-placement after
     * node loss.
     */
    Result<Fid> placeEnclave(const std::string &manifest_json,
                             const std::string &image_name,
                             const Bytes &image);

    /**
     * Authenticated call routed frontend -> node over the
     * interconnect. An acked (successful) call is journaled before
     * it is reported acked, so no acked call can be lost to a later
     * node failure; the auto-checkpoint cadence advances the
     * watermark.
     */
    Result<Bytes> call(Fid fid, const std::string &fn,
                       const Bytes &args);

    /**
     * Advance the enclave's watermark: seal its state, pull the
     * blob to the frontend and clear the journal.
     */
    Status checkpoint(Fid fid);

    Status destroyEnclave(Fid fid);

    /* --- migration + drain --- */

    /** Live-migrate @p fid to @p dst (see the state machine). */
    Status migrateEnclave(Fid fid, NodeId dst);

    /** Evacuate every enclave from @p node under @p budget. */
    Status drainNode(NodeId node, const DrainBudget &budget);

    /* --- node lifecycle (benches, injection) --- */

    /**
     * Crash an entire SoC. Refuses (InvalidState) to kill the last
     * placeable node -- the fleet must keep a recovery target.
     * Idempotent: killing a Down node is Ok.
     */
    Status killNode(NodeId id);

    /** Reboot a Down node and re-admit it to the fleet. */
    Status recoverNode(NodeId id);

    /** Sever/heal the interconnect between two nodes. */
    void partitionLink(NodeId a, NodeId b, bool down);

    /**
     * Fleet-level quarantine of @p node: marks it Quarantined,
     * quarantines its devices on the node Supervisor (idempotent --
     * a device the Supervisor already gave up on is not re-dumped)
     * and re-places its enclaves elsewhere.
     */
    Status quarantineNode(NodeId id, const std::string &why);

    /**
     * Fleet sweep: re-place enclaves stranded on Down/Quarantined
     * nodes and refresh node health from each Supervisor. Call
     * between operations (the fuzz runner pumps after node kills).
     */
    void pump();

    /* --- introspection + audit --- */

    /** The node currently hosting @p fid. */
    Result<NodeId> nodeOf(Fid fid) const;
    /** A live, callable copy exists (host node up, partition Ready). */
    bool enclaveAlive(Fid fid);
    uint64_t ackedCalls(Fid fid) const;
    std::vector<Fid> enclavesOn(NodeId id) const;

    const std::vector<MigrationAudit> &migrations() const
    {
        return migrationLog;
    }

    /**
     * Stage hook, fired just *before* each migration stage executes
     * (seq is 1-based). The FleetInjector lands migration-window
     * kills through this.
     */
    using StageHook = std::function<void(
        uint64_t seq, MigrationStage stage, NodeId src, NodeId dst)>;
    void setStageHook(StageHook hook) { stageHook = std::move(hook); }

    /* --- fleet counters (public for bench assertions) --- */
    uint64_t placements = 0;
    uint64_t migrationsCompleted = 0;
    uint64_t migrationsAborted = 0;
    uint64_t drains = 0;
    uint64_t fleetQuarantines = 0;
    uint64_t replacements = 0;  ///< cold re-places after node loss

  private:
    struct FleetEnclave
    {
        Fid fid = 0;
        NodeId nodeId = 0;
        core::AppHandle handle;
        /* Respawn spec. */
        std::string manifestJson;
        std::string imageName;
        Bytes image;
        /* Watermark + journal (frontend-durable). */
        recover::ReplayLog log;
        uint64_t acked = 0;
    };

    /**
     * Rebuild @p rec on @p target from the frontend's durable copy:
     * transfer + respawn (create, restore the watermark) + replay
     * the journal, destroying the partial copy on failure. On
     * success the record points at the new copy. Shared by first
     * placement, cold re-placement and the drain's in-place
     * recovery.
     */
    Status materialize(FleetEnclave &rec, NodeId target);

    /** Build @p rec on the best node: a first placement when it
     *  lives nowhere yet (nodeId kFrontend), else a re-placement of
     *  a stranded enclave. */
    Status place(FleetEnclave &rec);

    /** Live copy of @p rec on node @p id right now? */
    bool aliveOn(FleetEnclave &rec, NodeId id);

    void fireStage(uint64_t seq, MigrationStage stage, NodeId src,
                   NodeId dst);

    ClusterConfig cfg;
    SimClock fleetClock;
    std::vector<std::unique_ptr<ClusterNode>> nodes;
    Interconnect fabric;
    FleetDispatcher placer;
    std::map<Fid, FleetEnclave> enclaves;
    Fid nextFid = 1;
    uint64_t migrationSeq = 0;
    std::vector<MigrationAudit> migrationLog;
    StageHook stageHook;
};

} // namespace cronus::cluster

#endif // CRONUS_CLUSTER_CLUSTER_HH
