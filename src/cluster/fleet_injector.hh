/**
 * @file
 * Arms fleet-scoped FaultPlan events against a live Cluster.
 *
 * The SPM-level inject::FaultInjector skips any event for which
 * inject::isFleetEvent() is true; this class claims them instead:
 *
 *  - AtTime + KillNode        -> Cluster::killNode on poll()
 *  - AtTime + PartitionLink   -> Cluster::partitionLink on poll()
 *  - NthMigration + KillMigration -> Cluster::killNode from inside
 *    the migration stage hook, at the named stage, against the
 *    source (or destination with killDst) of the Nth migration.
 *
 * poll() is driven by the bench/fuzz loop between operations; the
 * stage hook fires synchronously inside migrateEnclave, which is
 * what makes migration-window kills land deterministically at a
 * specific stage. Every firing (including refusals, e.g. killNode
 * declining to take out the last placeable node) is logged in
 * fired() for the differential oracle.
 */

#ifndef CRONUS_CLUSTER_FLEET_INJECTOR_HH
#define CRONUS_CLUSTER_FLEET_INJECTOR_HH

#include "cluster.hh"
#include "inject/fault_plan.hh"

namespace cronus::cluster
{

class FleetInjector
{
  public:
    /** Holds references: @p target and @p plan must outlive this. */
    FleetInjector(Cluster &target, const inject::FaultPlan &plan);
    ~FleetInjector();

    /** Install the migration stage hook (idempotent). */
    void arm();

    /** Fire any due AtTime fleet events. Call between operations. */
    void poll();

    struct Firing
    {
        uint64_t eventId = 0;
        std::string what;  ///< e.g. "kill_node node3: ok"
        SimTime atNs = 0;
    };

    const std::vector<Firing> &fired() const { return firings; }

  private:
    void onStage(uint64_t seq, MigrationStage stage, NodeId src,
                 NodeId dst);
    Result<NodeId> resolveNode(const std::string &name) const;
    void note(const inject::FaultEvent &e, const std::string &what);

    Cluster &cluster;
    /** Fleet-scoped subset of the plan, in schedule order. */
    std::vector<inject::FaultEvent> events;
    std::set<uint64_t> firedIds;
    std::vector<Firing> firings;
    bool armed = false;
};

} // namespace cronus::cluster

#endif // CRONUS_CLUSTER_FLEET_INJECTOR_HH
