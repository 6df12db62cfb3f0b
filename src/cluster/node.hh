/**
 * @file
 * One SoC of a multi-node CRONUS fleet.
 *
 * A ClusterNode owns a complete single-node CRONUS machine -- its
 * own Platform, devices, Spm and Supervisor -- but charges all
 * virtual time against the fleet-shared SimClock, so events on
 * different nodes are totally ordered on one timeline. The node
 * presents a signed credential (its RoT public key plus the
 * device-tree measurement, endorsed by the RoT) that peers verify
 * before trusting the interconnect link (Composite-Enclave-style
 * common attestation root across physically separate components).
 */

#ifndef CRONUS_CLUSTER_NODE_HH
#define CRONUS_CLUSTER_NODE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/system.hh"
#include "recover/supervisor.hh"

namespace cronus::cluster
{

using NodeId = uint32_t;

/** Sentinel id for the fleet frontend (dispatcher host). */
constexpr NodeId kFrontend = 0xffffffffu;

enum class NodeHealth
{
    Healthy,
    Degraded,     ///< a device quarantined locally; placeable last
    Quarantined,  ///< fleet gave up on the node (terminal)
    Down,         ///< crashed / powered off; recoverable
};

const char *nodeHealthName(NodeHealth health);

/**
 * What a node presents over the interconnect before any grant is
 * forwarded: identity, RoT public key and the DT measurement, with
 * an RoT signature binding the three together. A peer accepts the
 * link only if the signature verifies under the presented key AND
 * the measurement is in the fleet's trusted set -- a stolen name
 * with a different machine underneath fails the measurement check,
 * a forged measurement fails the signature.
 */
struct NodeCredential
{
    std::string name;
    crypto::PublicKey rotKey;
    crypto::Digest dtMeasurement{};
    crypto::Signature endorsement;

    /** The byte string the endorsement signs. */
    Bytes signedMessage() const;
};

class ClusterNode
{
  public:
    /**
     * Build the node's machine from @p system_template with the
     * name and fleet clock filled in. The supervisor (default
     * SupervisorConfig) watches every device from boot.
     */
    ClusterNode(NodeId id, std::string name,
                core::CronusConfig system_template,
                SimClock *fleet_clock);

    NodeId id() const { return nodeId; }
    const std::string &name() const { return nodeName; }
    core::CronusSystem &system() { return *sys; }
    recover::Supervisor &supervisor() { return *sup; }

    NodeHealth health() const { return h; }
    void setHealth(NodeHealth health) { h = health; }
    /** Usable as a placement / migration target. */
    bool placeable() const
    {
        return h == NodeHealth::Healthy || h == NodeHealth::Degraded;
    }

    /** Names of every device the node hosts ("cpu0", "gpu0", ...). */
    std::vector<std::string> deviceNames();

    /** Signed identity + measurement for link attestation. */
    NodeCredential credential();

    /**
     * SoC-fatal crash: every partition panics at once and the node
     * goes Down. Idempotent.
     */
    void crash();

    /**
     * Power the node back on: scrub + reboot every partition.
     * Enclave instances do not survive (the fleet re-places them
     * from checkpoints); the node returns Healthy on success.
     */
    Status reboot();

    /** Enclaves currently placed here (fleet bookkeeping). */
    uint64_t liveEnclaves = 0;

  private:
    NodeId nodeId;
    std::string nodeName;
    std::unique_ptr<core::CronusSystem> sys;
    std::unique_ptr<recover::Supervisor> sup;
    NodeHealth h = NodeHealth::Healthy;
};

} // namespace cronus::cluster

#endif // CRONUS_CLUSTER_NODE_HH
