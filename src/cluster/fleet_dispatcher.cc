#include "fleet_dispatcher.hh"

namespace cronus::cluster
{

namespace
{

/** Score penalty for Degraded nodes: larger than any live-enclave
 *  count, so they are picked only when nothing else is placeable. */
constexpr uint64_t kDegradedPenalty = 1ull << 20;

} // namespace

Result<NodeId>
FleetDispatcher::placeNode(
    const std::vector<std::unique_ptr<ClusterNode>> &nodes,
    const std::set<NodeId> &exclude) const
{
    bool found = false;
    NodeId best = 0;
    uint64_t bestScore = 0;
    for (const auto &node : nodes) {
        if (!node->placeable() || exclude.count(node->id()))
            continue;
        uint64_t score = node->liveEnclaves;
        if (node->health() == NodeHealth::Degraded)
            score += kDegradedPenalty;
        /* Strictly-less keeps the lowest-id winner on ties. */
        if (!found || score < bestScore) {
            found = true;
            best = node->id();
            bestScore = score;
        }
    }
    if (!found)
        return Status(ErrorCode::ResourceExhausted,
                      "no placeable node in the fleet");
    return best;
}

} // namespace cronus::cluster
