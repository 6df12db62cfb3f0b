/**
 * @file
 * Fleet-level placement: shard enclaves across nodes with
 * health-aware scoring.
 *
 * The FleetDispatcher is the cluster analog of the per-node
 * EnclaveDispatcher: it picks a *node* for each new (or re-placed)
 * enclave; the node's own dispatcher then picks the device
 * partition. Scoring is least-loaded by live-enclave count, with a
 * large additive penalty for Degraded nodes (deprioritized but
 * still usable when everything else is worse) and a hard skip for
 * Down/Quarantined/excluded nodes. Ties break to the lowest node
 * id, so placement is a pure function of (node healths, loads) --
 * two fleets fed the same sequence shard identically.
 */

#ifndef CRONUS_CLUSTER_FLEET_DISPATCHER_HH
#define CRONUS_CLUSTER_FLEET_DISPATCHER_HH

#include <functional>
#include <set>

#include "node.hh"

namespace cronus::cluster
{

class FleetDispatcher
{
  public:
    /**
     * Choose a placement target among @p nodes (non-owning; the
     * cluster's node table). ResourceExhausted when no node is
     * placeable.
     */
    Result<NodeId> placeNode(
        const std::vector<std::unique_ptr<ClusterNode>> &nodes,
        const std::set<NodeId> &exclude = {}) const;

    /** Observes every placement decision (fid, chosen node). */
    using PlacementObserver =
        std::function<void(uint64_t fid, NodeId node)>;
    void setPlacementObserver(PlacementObserver fn)
    {
        observer = std::move(fn);
    }
    void notePlacement(uint64_t fid, NodeId node) const
    {
        if (observer)
            observer(fid, node);
    }

  private:
    PlacementObserver observer;
};

} // namespace cronus::cluster

#endif // CRONUS_CLUSTER_FLEET_DISPATCHER_HH
