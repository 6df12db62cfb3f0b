#include "fleet_injector.hh"

namespace cronus::cluster
{

using inject::FaultAction;
using inject::FaultTrigger;

FleetInjector::FleetInjector(Cluster &target,
                             const inject::FaultPlan &plan)
    : cluster(target)
{
    for (const auto &e : plan.events())
        if (inject::isFleetEvent(e.trigger, e.action))
            events.push_back(e);
}

FleetInjector::~FleetInjector()
{
    if (armed)
        cluster.setStageHook(nullptr);
}

void
FleetInjector::arm()
{
    if (armed)
        return;
    armed = true;
    cluster.setStageHook([this](uint64_t seq, MigrationStage stage,
                                NodeId src, NodeId dst) {
        onStage(seq, stage, src, dst);
    });
}

Result<NodeId>
FleetInjector::resolveNode(const std::string &name) const
{
    for (NodeId id = 0; id < cluster.numNodes(); ++id)
        if (cluster.node(id).name() == name)
            return id;
    return Status(ErrorCode::NotFound,
                  "no fleet node named '" + name + "'");
}

void
FleetInjector::note(const inject::FaultEvent &e,
                    const std::string &what)
{
    firedIds.insert(e.id);
    firings.push_back({e.id, what, cluster.clock().now()});
}

void
FleetInjector::poll()
{
    for (const auto &e : events) {
        if (firedIds.count(e.id))
            continue;
        if (e.trigger.kind != FaultTrigger::Kind::AtTime ||
            cluster.clock().now() < e.trigger.when)
            continue;
        if (e.action.kind == FaultAction::Kind::KillNode) {
            auto id = resolveNode(e.action.node);
            if (!id.isOk()) {
                note(e, "kill_node " + e.action.node + ": " +
                            id.status().message());
                continue;
            }
            Status s = cluster.killNode(id.value());
            note(e, "kill_node " + e.action.node + ": " +
                        (s.isOk() ? "ok" : s.message()));
        } else if (e.action.kind == FaultAction::Kind::PartitionLink) {
            auto a = resolveNode(e.action.node);
            if (!a.isOk()) {
                note(e, "partition_link " + e.action.node + ": " +
                            a.status().message());
                continue;
            }
            NodeId b = kFrontend;
            if (!e.action.nodeB.empty()) {
                auto rb = resolveNode(e.action.nodeB);
                if (!rb.isOk()) {
                    note(e, "partition_link " + e.action.nodeB +
                                ": " + rb.status().message());
                    continue;
                }
                b = rb.value();
            }
            cluster.partitionLink(a.value(), b, true);
            note(e, "partition_link " + e.action.node + "<->" +
                        (e.action.nodeB.empty() ? "frontend"
                                                : e.action.nodeB) +
                        ": down");
        }
    }
}

void
FleetInjector::onStage(uint64_t seq, MigrationStage stage,
                       NodeId src, NodeId dst)
{
    for (const auto &e : events) {
        if (firedIds.count(e.id))
            continue;
        if (e.trigger.kind != FaultTrigger::Kind::NthMigration ||
            e.action.kind != FaultAction::Kind::KillMigration)
            continue;
        if (seq != e.trigger.nth)
            continue;
        auto want = migrationStageFromName(e.action.stage);
        if (!want.isOk() || want.value() != stage)
            continue;
        NodeId victim = e.action.killDst ? dst : src;
        Status s = cluster.killNode(victim);
        note(e, std::string("kill_migration ") +
                    (e.action.killDst ? "dst" : "src") + " node" +
                    std::to_string(victim) + " at " + e.action.stage +
                    ": " + (s.isOk() ? "ok" : s.message()));
    }
}

} // namespace cronus::cluster
