#include "interconnect.hh"

#include "crypto/sha256.hh"

namespace cronus::cluster
{

namespace
{

/** Per-transfer fabric cost: hop latency + per-byte cost. */
constexpr SimTime kHopLatencyNs = 5 * kNsPerUs;
constexpr double kNsPerByte = 0.1;

} // namespace

Interconnect::Interconnect(SimClock &fleet_clock) : clock(fleet_clock)
{
}

void
Interconnect::registerNode(NodeId id, const NodeCredential &cred)
{
    credentials[id] = cred;
    /* A re-registered (rebooted) node invalidates what peers
     * verified about the old incarnation. */
    invalidateAttestation(id);
}

void
Interconnect::trustMeasurement(const crypto::Digest &measurement)
{
    trustedMeasurements.insert(crypto::digestHex(measurement));
}

std::pair<NodeId, NodeId>
Interconnect::linkKey(NodeId a, NodeId b)
{
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

void
Interconnect::setLinkDown(NodeId a, NodeId b, bool down)
{
    if (down)
        downLinks.insert(linkKey(a, b));
    else
        downLinks.erase(linkKey(a, b));
}

Status
Interconnect::ensureAttested(NodeId src, NodeId dst)
{
    if (dst == kFrontend || src == dst)
        return Status::ok();
    if (attestedLinks.count({src, dst}))
        return Status::ok();
    auto it = credentials.find(dst);
    if (it == credentials.end())
        return Status(ErrorCode::NotFound,
                      "no credential registered for node " +
                          std::to_string(dst));
    const NodeCredential &cred = it->second;
    /* One Schnorr verification per directed link, charged on the
     * fleet clock; renewed only after invalidateAttestation. */
    clock.advance(CostModel{}.verifyNs);
    ++attestations;
    if (!crypto::verify(cred.rotKey, cred.signedMessage(),
                        cred.endorsement)) {
        ++refusals;
        return Status(ErrorCode::AuthFailed,
                      "credential signature for '" + cred.name +
                          "' does not verify");
    }
    if (!trustedMeasurements.count(
            crypto::digestHex(cred.dtMeasurement))) {
        ++refusals;
        return Status(ErrorCode::PermissionDenied,
                      "measurement of '" + cred.name +
                          "' is not in the fleet trusted set");
    }
    attestedLinks.insert({src, dst});
    return Status::ok();
}

Status
Interconnect::transfer(NodeId src, NodeId dst, uint64_t bytes)
{
    if (downLinks.count(linkKey(src, dst))) {
        ++partitionedDrops;
        return Status(ErrorCode::PeerFailed,
                      "interconnect link is partitioned");
    }
    CRONUS_RETURN_IF_ERROR(ensureAttested(src, dst));
    clock.advance(kHopLatencyNs +
                  static_cast<SimTime>(bytes * kNsPerByte));
    ++messages;
    bytesMoved += bytes;
    return Status::ok();
}

void
Interconnect::invalidateAttestation(NodeId node)
{
    for (auto it = attestedLinks.begin();
         it != attestedLinks.end();) {
        if (it->first == node || it->second == node)
            it = attestedLinks.erase(it);
        else
            ++it;
    }
}

} // namespace cronus::cluster
