/**
 * @file
 * Simulated secure interconnect between the SoCs of a fleet.
 *
 * The interconnect is the only path between nodes (and between the
 * fleet frontend and any node). Each transfer charges a fixed hop
 * latency plus a per-byte cost on the shared fleet clock (a
 * PCIe/CXL-class fabric: 5 us per hop, 10 GB/s effective), and the
 * fabric enforces two policies before moving a single byte:
 *
 *  - *link attestation*: the sending side must have verified the
 *    receiver's NodeCredential -- RoT signature over the node's
 *    name/key/measurement, plus membership of the measurement in
 *    the fleet's trusted set. Verification is cached per directed
 *    link and charged once (CostModel::verifyNs).
 *  - *partitions*: a severed link drops every transfer with
 *    PeerFailed until healed (node-crash and fault-plan testing).
 *
 * What the interconnect does NOT trust: node names (anyone can
 * claim one -- the measurement check catches it), payload contents
 * (enclave state moves sealed; the interconnect never sees
 * plaintext), or link availability (callers must handle
 * PeerFailed).
 */

#ifndef CRONUS_CLUSTER_INTERCONNECT_HH
#define CRONUS_CLUSTER_INTERCONNECT_HH

#include <map>
#include <set>
#include <utility>

#include "node.hh"

namespace cronus::cluster
{

class Interconnect
{
  public:
    explicit Interconnect(SimClock &fleet_clock);

    /** Present @p cred as @p id's identity on the fabric. */
    void registerNode(NodeId id, const NodeCredential &cred);

    /** Admit @p measurement to the fleet's trusted set. */
    void trustMeasurement(const crypto::Digest &measurement);

    /** Sever / heal the (symmetric) link between @p a and @p b. */
    void setLinkDown(NodeId a, NodeId b, bool down);

    /**
     * Verify @p dst's credential on behalf of @p src (cached per
     * directed link; the first verification charges verifyNs).
     * AuthFailed when the RoT signature does not verify,
     * PermissionDenied when the measurement is not in the trusted
     * set, NotFound for an unregistered node. The frontend is the
     * fleet's own trust root and is never verified as a
     * destination.
     */
    Status ensureAttested(NodeId src, NodeId dst);

    /**
     * Move @p bytes from @p src to @p dst: link must be up and the
     * directed pair attested; charges hop + per-byte cost on the
     * fleet clock and counts the traffic.
     */
    Status transfer(NodeId src, NodeId dst, uint64_t bytes);

    /** Drop every cached attestation involving @p node (its
     *  credential is stale after a crash/reboot). */
    void invalidateAttestation(NodeId node);

    /* --- counters (fleet metrics) --- */
    uint64_t messages = 0;
    uint64_t bytesMoved = 0;
    uint64_t attestations = 0;
    uint64_t refusals = 0;       ///< attestation failures
    uint64_t partitionedDrops = 0;

  private:
    static std::pair<NodeId, NodeId> linkKey(NodeId a, NodeId b);

    SimClock &clock;
    std::map<NodeId, NodeCredential> credentials;
    std::set<std::string> trustedMeasurements;  ///< hex digests
    std::set<std::pair<NodeId, NodeId>> downLinks;
    std::set<std::pair<NodeId, NodeId>> attestedLinks;  ///< directed
};

} // namespace cronus::cluster

#endif // CRONUS_CLUSTER_INTERCONNECT_HH
