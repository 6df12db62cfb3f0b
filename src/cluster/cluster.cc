#include "cluster.hh"

#include <algorithm>

#include "obs/trace.hh"

namespace cronus::cluster
{

namespace
{

/** Modeled wire overhead of one fleet control message. */
constexpr uint64_t kMsgOverheadBytes = 64;

/** Static-lifetime instant names (the tracer stores the pointer). */
const char *
stageInstantName(MigrationStage stage)
{
    switch (stage) {
      case MigrationStage::Snapshot: return "migrate.snapshot";
      case MigrationStage::ReAttest: return "migrate.reattest";
      case MigrationStage::Transfer: return "migrate.transfer";
      case MigrationStage::Restore:  return "migrate.restore";
      case MigrationStage::Replay:   return "migrate.replay";
      case MigrationStage::Retire:   return "migrate.retire";
    }
    return "migrate.?";
}

void
fleetInstant(const char *name, JsonObject args)
{
    auto &tr = obs::Tracer::instance();
    if (!tr.active())
        return;
    tr.instant(tr.track("fleet"), name, "cluster", std::move(args));
}

} // namespace

const char *
migrationStageName(MigrationStage stage)
{
    switch (stage) {
      case MigrationStage::Snapshot: return "snapshot";
      case MigrationStage::ReAttest: return "reattest";
      case MigrationStage::Transfer: return "transfer";
      case MigrationStage::Restore:  return "restore";
      case MigrationStage::Replay:   return "replay";
      case MigrationStage::Retire:   return "retire";
    }
    return "?";
}

Result<MigrationStage>
migrationStageFromName(const std::string &name)
{
    for (MigrationStage s :
         {MigrationStage::Snapshot, MigrationStage::ReAttest,
          MigrationStage::Transfer, MigrationStage::Restore,
          MigrationStage::Replay, MigrationStage::Retire}) {
        if (name == migrationStageName(s))
            return s;
    }
    return Status(ErrorCode::InvalidArgument,
                  "unknown migration stage '" + name + "'");
}

Cluster::Cluster(const ClusterConfig &config)
    : cfg(config), fabric(fleetClock)
{
    for (uint32_t i = 0; i < cfg.numNodes; ++i) {
        auto n = std::make_unique<ClusterNode>(
            i, "node" + std::to_string(i), cfg.nodeSystem,
            &fleetClock);
        NodeCredential cred = n->credential();
        fabric.registerNode(i, cred);
        fabric.trustMeasurement(cred.dtMeasurement);
        /* Node-local quarantine escalates to fleet placement state
         * (and only placement state: the fleet does not re-dump or
         * re-quarantine what the node already handled). */
        n->supervisor().setOnQuarantine(
            [this, i](const std::string &) {
                ClusterNode &esc = *nodes[i];
                if (esc.health() == NodeHealth::Healthy)
                    esc.setHealth(NodeHealth::Degraded);
            });
        nodes.push_back(std::move(n));
    }
}

void
Cluster::fireStage(uint64_t seq, MigrationStage stage, NodeId src,
                   NodeId dst)
{
    if (auto &tr = obs::Tracer::instance(); tr.active()) {
        JsonObject args;
        args["seq"] = static_cast<int64_t>(seq);
        args["src"] = static_cast<int64_t>(src);
        args["dst"] = static_cast<int64_t>(dst);
        tr.instant(tr.track("fleet"), stageInstantName(stage),
                   "cluster", std::move(args));
    }
    if (stageHook)
        stageHook(seq, stage, src, dst);
}

bool
Cluster::aliveOn(FleetEnclave &rec, NodeId id)
{
    if (rec.nodeId != id || id >= nodes.size())
        return false;
    ClusterNode &n = *nodes[id];
    if (n.health() == NodeHealth::Down)
        return false;
    if (rec.handle.host == nullptr)
        return false;
    auto p = n.system().spm().partition(
        rec.handle.host->partitionId());
    return p.isOk() &&
           p.value()->state == tee::PartitionState::Ready;
}

Result<Fid>
Cluster::placeEnclave(const std::string &manifest_json,
                      const std::string &image_name,
                      const Bytes &image)
{
    /* A new enclave is a rebuild from an empty log. */
    FleetEnclave rec;
    rec.fid = nextFid;
    rec.nodeId = kFrontend;
    rec.manifestJson = manifest_json;
    rec.imageName = image_name;
    rec.image = image;
    rec.log = recover::ReplayLog(cfg.autoCheckpointEvery);
    CRONUS_RETURN_IF_ERROR(place(rec));
    enclaves.emplace(nextFid, std::move(rec));
    return nextFid++;
}

Result<Bytes>
Cluster::call(Fid fid, const std::string &fn, const Bytes &args)
{
    auto it = enclaves.find(fid);
    if (it == enclaves.end())
        return Status(ErrorCode::NotFound,
                      "fid " + std::to_string(fid));
    FleetEnclave &rec = it->second;
    ClusterNode &n = *nodes[rec.nodeId];
    if (n.health() == NodeHealth::Down)
        return Status(ErrorCode::PeerFailed,
                      "node '" + n.name() + "' is down");
    CRONUS_RETURN_IF_ERROR(fabric.transfer(
        kFrontend, rec.nodeId,
        fn.size() + args.size() + kMsgOverheadBytes));
    auto r = n.system().ecall(rec.handle, fn, args);
    if (!r.isOk())
        return r;
    CRONUS_RETURN_IF_ERROR(fabric.transfer(
        rec.nodeId, kFrontend,
        r.value().size() + kMsgOverheadBytes));
    /* The call is acked only now; journaling first means an acked
     * call is always reconstructible as watermark + replay. */
    rec.log.record(fn, args);
    ++rec.acked;
    rec.log.ack();
    if (rec.log.checkpointDue()) {
        /* Best effort: a failed checkpoint leaves the journal
         * covering the un-checkpointed tail. */
        (void)checkpoint(fid);
    }
    return r;
}

Status
Cluster::checkpoint(Fid fid)
{
    auto it = enclaves.find(fid);
    if (it == enclaves.end())
        return Status(ErrorCode::NotFound,
                      "fid " + std::to_string(fid));
    FleetEnclave &rec = it->second;
    ClusterNode &n = *nodes[rec.nodeId];
    if (n.health() == NodeHealth::Down)
        return Status(ErrorCode::PeerFailed,
                      "node '" + n.name() + "' is down");
    auto sealed = n.system().checkpointEnclave(rec.handle);
    if (!sealed.isOk())
        return sealed.status();
    CRONUS_RETURN_IF_ERROR(
        fabric.transfer(rec.nodeId, kFrontend,
                        sealed.value().size() + kMsgOverheadBytes));
    rec.log.seal(std::move(sealed.value()), rec.handle.secret);
    return Status::ok();
}

Status
Cluster::destroyEnclave(Fid fid)
{
    auto it = enclaves.find(fid);
    if (it == enclaves.end())
        return Status(ErrorCode::NotFound,
                      "fid " + std::to_string(fid));
    FleetEnclave &rec = it->second;
    ClusterNode &n = *nodes[rec.nodeId];
    Status s = Status::ok();
    if (aliveOn(rec, rec.nodeId)) {
        (void)fabric.transfer(kFrontend, rec.nodeId,
                              kMsgOverheadBytes);
        s = n.system().destroyEnclave(rec.handle);
    }
    if (n.liveEnclaves > 0)
        --n.liveEnclaves;
    enclaves.erase(it);
    return s;
}

Status
Cluster::materialize(FleetEnclave &rec, NodeId target)
{
    if (target >= nodes.size())
        return Status(ErrorCode::InvalidArgument, "bad node id");
    ClusterNode &n = *nodes[target];
    if (!n.placeable())
        return Status(ErrorCode::InvalidState,
                      "node '" + n.name() + "' is not placeable");
    CRONUS_RETURN_IF_ERROR(fabric.transfer(
        kFrontend, target,
        rec.manifestJson.size() + rec.image.size() +
            rec.log.wireBytes() + kMsgOverheadBytes));
    auto fresh = rec.log.respawn(n.system(), rec.manifestJson,
                                 rec.imageName, rec.image);
    if (!fresh.isOk())
        return fresh.status();
    core::AppHandle h = fresh.value();
    for (const recover::ReplayLog::Call &c : rec.log.journal()) {
        auto r = n.system().ecall(h, c.fn, c.args);
        if (!r.isOk()) {
            (void)n.system().destroyEnclave(h);
            return r.status();
        }
    }
    /* Commit: the record now points at the new copy. */
    if (rec.nodeId < nodes.size() &&
        nodes[rec.nodeId]->liveEnclaves > 0)
        --nodes[rec.nodeId]->liveEnclaves;
    rec.nodeId = target;
    rec.handle = h;
    ++n.liveEnclaves;
    return Status::ok();
}

Status
Cluster::place(FleetEnclave &rec)
{
    const bool fresh = rec.nodeId == kFrontend;
    auto target = placer.placeNode(nodes);
    if (!target.isOk())
        return target.status();
    CRONUS_RETURN_IF_ERROR(materialize(rec, target.value()));
    ++(fresh ? placements : replacements);
    placer.notePlacement(rec.fid, target.value());
    JsonObject args;
    args["fid"] = static_cast<int64_t>(rec.fid);
    args["node"] = static_cast<int64_t>(target.value());
    fleetInstant(fresh ? "fleet.place" : "fleet.replace",
                 std::move(args));
    return Status::ok();
}

Status
Cluster::migrateEnclave(Fid fid, NodeId dstId)
{
    auto it = enclaves.find(fid);
    if (it == enclaves.end())
        return Status(ErrorCode::NotFound,
                      "fid " + std::to_string(fid));
    if (dstId >= nodes.size())
        return Status(ErrorCode::InvalidArgument, "bad node id");
    FleetEnclave &rec = it->second;
    const NodeId srcId = rec.nodeId;

    const uint64_t seq = ++migrationSeq;
    MigrationAudit audit;
    audit.seq = seq;
    audit.fid = fid;
    audit.src = srcId;
    audit.dst = dstId;
    audit.startNs = fleetClock.now();

    auto &tr = obs::Tracer::instance();
    obs::Span span;
    if (tr.active()) {
        span = obs::Span(tr.track("fleet"), "fleet.migrate",
                         "cluster");
        span.arg("fid", static_cast<int64_t>(fid));
        span.arg("src", static_cast<int64_t>(srcId));
        span.arg("dst", static_cast<int64_t>(dstId));
    }

    core::AppHandle dstHandle;  ///< host set once Restore built it
    MigrationStage stage = MigrationStage::Snapshot;

    auto finish = [&](Status s) -> Status {
        if (!s.isOk()) {
            /* Abort path: tear down any partial destination copy
             * (possible only while its node is still up). */
            if (dstHandle.host != nullptr &&
                nodes[dstId]->health() != NodeHealth::Down)
                (void)nodes[dstId]->system().destroyEnclave(
                    dstHandle);
            audit.outcome = std::string("aborted:") +
                            migrationStageName(stage) + ": " +
                            s.message();
            ++migrationsAborted;
        } else {
            audit.outcome = "completed";
            ++migrationsCompleted;
        }
        audit.srcAlive = srcId != dstId && aliveOn(rec, srcId);
        audit.dstAlive = aliveOn(rec, dstId);
        audit.endNs = fleetClock.now();
        if (span.live())
            span.arg("outcome", audit.outcome);
        migrationLog.push_back(audit);
        return s;
    };
    /* Enter @p next: fire its hook, then report whether the
     * destination is still up. */
    auto enter = [&](MigrationStage next) {
        stage = next;
        fireStage(seq, next, srcId, dstId);
        return nodes[dstId]->health() != NodeHealth::Down;
    };
    auto dstDied = [&](const char *when) {
        return finish(Status(ErrorCode::PeerFailed,
                             std::string("destination died ") + when));
    };

    /* --- Snapshot: fix the replay set (watermark + journal are
     * already frontend-durable; a dead source does not lose acked
     * calls). The destination must look usable before we start. */
    (void)enter(MigrationStage::Snapshot);
    if (!nodes[dstId]->placeable())
        return finish(Status(ErrorCode::InvalidState,
                             "destination '" + nodes[dstId]->name() +
                                 "' is not placeable"));

    /* --- ReAttest: the sender verifies the destination's
     * measurement root before any sealed state moves; the
     * destination symmetrically verifies a node sender. */
    if (!enter(MigrationStage::ReAttest))
        return dstDied("before attestation");
    bool srcUp = aliveOn(rec, srcId) || srcId == dstId;
    NodeId sender = srcUp ? srcId : kFrontend;
    Status att = fabric.ensureAttested(sender, dstId);
    if (att.isOk() && sender != kFrontend)
        att = fabric.ensureAttested(dstId, sender);
    if (!att.isOk())
        return finish(att);

    /* --- Transfer: sealed watermark + journal to the destination
     * (straight from the source, or from the frontend's durable
     * copy when the source is already dead). */
    if (!enter(MigrationStage::Transfer))
        return dstDied("in transfer");
    srcUp = aliveOn(rec, srcId) || srcId == dstId;
    sender = srcUp ? srcId : kFrontend;
    Status t = fabric.transfer(
        sender, dstId,
        rec.manifestJson.size() + rec.image.size() +
            rec.log.wireBytes() + kMsgOverheadBytes);
    if (!t.isOk())
        return finish(t);

    /* --- Restore: fresh enclave on the destination, watermark
     * restored into it (the blob re-seals under the new secret). */
    if (!enter(MigrationStage::Restore))
        return dstDied("before restore");
    auto fresh = rec.log.respawn(nodes[dstId]->system(),
                                 rec.manifestJson, rec.imageName,
                                 rec.image);
    if (!fresh.isOk())
        return finish(fresh.status());
    dstHandle = fresh.value();

    /* --- Replay: the journaled calls past the watermark, in
     * order. After this the destination state equals the source's
     * acked state. */
    if (!enter(MigrationStage::Replay))
        return dstDied("before replay");
    for (const recover::ReplayLog::Call &c : rec.log.journal()) {
        auto r = nodes[dstId]->system().ecall(dstHandle, c.fn,
                                              c.args);
        if (!r.isOk())
            return finish(r.status());
        ++audit.replayedCalls;
    }

    /* --- Retire: the commit point. Only after the destination
     * holds the full state does the source copy die; a destination
     * loss even here aborts back to the intact source. The old
     * copy dies whenever it is alive, also when the destination is
     * its own node. */
    if (!enter(MigrationStage::Retire))
        return dstDied("at retire");
    if (aliveOn(rec, srcId)) {
        (void)fabric.transfer(kFrontend, srcId, kMsgOverheadBytes);
        (void)nodes[srcId]->system().destroyEnclave(rec.handle);
    }
    if (srcId < nodes.size() && nodes[srcId]->liveEnclaves > 0)
        --nodes[srcId]->liveEnclaves;
    rec.nodeId = dstId;
    rec.handle = dstHandle;
    ++nodes[dstId]->liveEnclaves;
    return finish(Status::ok());
}

Status
Cluster::drainNode(NodeId id, const DrainBudget &budget)
{
    if (id >= nodes.size())
        return Status(ErrorCode::InvalidArgument, "bad node id");
    if (nodes[id]->placeable()) {
        /* Mirror of killNode's guard: evacuating the only usable
         * node would leave the evacuees nowhere to go. */
        bool survivor = false;
        for (const auto &other : nodes) {
            if (other->id() != id && other->placeable())
                survivor = true;
        }
        if (!survivor)
            return Status(ErrorCode::InvalidState,
                          "refusing to drain the last usable node");
    }
    ++drains;
    auto &tr = obs::Tracer::instance();
    obs::Span span;
    if (tr.active()) {
        span = obs::Span(tr.track("fleet"), "fleet.drain",
                         "cluster");
        span.arg("node", static_cast<int64_t>(id));
    }
    const std::vector<Fid> fids = enclavesOn(id);
    uint32_t migrated = 0;
    uint32_t failures = 0;
    bool exhausted = false;
    for (Fid fid : fids) {
        if (migrated >= budget.maxMigrations) {
            exhausted = true;
            break;
        }
        auto target = placer.placeNode(nodes, {id});
        if (!target.isOk()) {
            exhausted = true;
            break;
        }
        Status s = migrateEnclave(fid, target.value());
        if (s.isOk()) {
            ++migrated;
            continue;
        }
        /* Fallback 1: in-place recovery. A live source copy simply
         * stays put; a lost one is rebuilt from the frontend's
         * watermark + journal on the same node if it still can. */
        auto it = enclaves.find(fid);
        if (it == enclaves.end())
            continue;
        FleetEnclave &rec = it->second;
        if (aliveOn(rec, id))
            continue;
        if (nodes[id]->placeable() && materialize(rec, id).isOk())
            continue;
        ++failures;
    }
    if (exhausted || failures > 0) {
        /* Fallback 2: fleet-level quarantine re-places whatever is
         * still stranded; the node is done taking work. */
        (void)quarantineNode(id, "drain budget exhausted");
    }
    if (span.live()) {
        span.arg("migrated", static_cast<int64_t>(migrated));
        span.arg("quarantined",
                 static_cast<int64_t>(exhausted || failures > 0));
    }
    /* The drain succeeded iff every enclave that lived here is
     * still alive somewhere. */
    for (Fid fid : fids) {
        if (enclaves.count(fid) && !enclaveAlive(fid))
            return Status(ErrorCode::Degraded,
                          "drain lost enclave " +
                              std::to_string(fid));
    }
    return Status::ok();
}

Status
Cluster::killNode(NodeId id)
{
    if (id >= nodes.size())
        return Status(ErrorCode::InvalidArgument, "bad node id");
    ClusterNode &n = *nodes[id];
    if (n.health() == NodeHealth::Down)
        return Status::ok();
    bool survivor = false;
    for (const auto &other : nodes) {
        if (other->id() != id && other->placeable())
            survivor = true;
    }
    if (!survivor)
        return Status(ErrorCode::InvalidState,
                      "refusing to crash the last usable node");
    n.crash();
    JsonObject args;
    args["node"] = static_cast<int64_t>(id);
    fleetInstant("fleet.node_kill", std::move(args));
    return Status::ok();
}

Status
Cluster::recoverNode(NodeId id)
{
    if (id >= nodes.size())
        return Status(ErrorCode::InvalidArgument, "bad node id");
    ClusterNode &n = *nodes[id];
    if (n.health() == NodeHealth::Quarantined)
        return Status(ErrorCode::Degraded,
                      "node '" + n.name() + "' is quarantined");
    if (n.health() != NodeHealth::Down)
        return Status::ok();
    /* Re-place stranded enclaves first so nothing still points at
     * the node when its scrubbed (enclave-less) partitions return. */
    pump();
    Status s = n.reboot();
    if (s.isOk()) {
        /* The rebooted incarnation presents a fresh credential;
         * peers must re-verify before trusting the link again. */
        fabric.registerNode(id, n.credential());
        n.liveEnclaves = enclavesOn(id).size();
    }
    return s;
}

void
Cluster::partitionLink(NodeId a, NodeId b, bool down)
{
    fabric.setLinkDown(a, b, down);
    JsonObject args;
    args["a"] = static_cast<int64_t>(a);
    args["b"] = static_cast<int64_t>(b);
    args["down"] = down;
    fleetInstant("fleet.partition_link", std::move(args));
}

Status
Cluster::quarantineNode(NodeId id, const std::string &why)
{
    if (id >= nodes.size())
        return Status(ErrorCode::InvalidArgument, "bad node id");
    ClusterNode &n = *nodes[id];
    if (n.health() == NodeHealth::Quarantined)
        return Status::ok();
    n.setHealth(NodeHealth::Quarantined);
    ++fleetQuarantines;
    JsonObject args;
    args["node"] = static_cast<int64_t>(id);
    args["why"] = why;
    fleetInstant("fleet.quarantine", std::move(args));
    /* Device-level quarantine through the node Supervisor is
     * idempotent: devices it already gave up on are not re-dumped
     * and the escalation hook does not re-fire. */
    for (const std::string &dev : n.deviceNames())
        (void)n.supervisor().quarantineDevice(dev, why);
    for (Fid fid : enclavesOn(id)) {
        auto it = enclaves.find(fid);
        if (it != enclaves.end())
            (void)place(it->second);
    }
    return Status::ok();
}

void
Cluster::pump()
{
    for (auto &n : nodes) {
        if (n->health() == NodeHealth::Down ||
            n->health() == NodeHealth::Quarantined)
            continue;
        n->supervisor().pump();
    }
    /* Re-place enclaves stranded on dead or quarantined nodes. The
     * sweep is fixed up front from the node health at its start. */
    std::vector<FleetEnclave *> stranded;
    for (auto &[fid, rec] : enclaves) {
        (void)fid;
        if (rec.nodeId >= nodes.size())
            continue;
        NodeHealth h = nodes[rec.nodeId]->health();
        if (h == NodeHealth::Down || h == NodeHealth::Quarantined)
            stranded.push_back(&rec);
    }
    for (FleetEnclave *rec : stranded)
        (void)place(*rec);
}

Result<NodeId>
Cluster::nodeOf(Fid fid) const
{
    auto it = enclaves.find(fid);
    if (it == enclaves.end())
        return Status(ErrorCode::NotFound,
                      "fid " + std::to_string(fid));
    return it->second.nodeId;
}

bool
Cluster::enclaveAlive(Fid fid)
{
    auto it = enclaves.find(fid);
    if (it == enclaves.end())
        return false;
    return aliveOn(it->second, it->second.nodeId);
}

uint64_t
Cluster::ackedCalls(Fid fid) const
{
    auto it = enclaves.find(fid);
    return it == enclaves.end() ? 0 : it->second.acked;
}

std::vector<Fid>
Cluster::enclavesOn(NodeId id) const
{
    std::vector<Fid> fids;
    for (const auto &[fid, rec] : enclaves) {
        if (rec.nodeId == id)
            fids.push_back(fid);
    }
    return fids;
}

} // namespace cronus::cluster
