#include "secure_monitor.hh"

#include "base/logging.hh"

namespace cronus::tee
{

SecureMonitor::SecureMonitor(hw::Platform &platform)
    : plat(platform)
{
    /* Derive AtK from the RoT and endorse it: clients verify the
     * endorsement chain RoT -> AtK -> report (§IV-A). */
    Bytes atk_seed = toBytes("cronus-atk:");
    Bytes rot_pub = plat.rootOfTrust().publicKey().toBytes();
    atk_seed.insert(atk_seed.end(), rot_pub.begin(), rot_pub.end());
    atk = crypto::deriveKeyPair(atk_seed);
    atkEndorsementSig = plat.rootOfTrust().sign(atk.pub.toBytes());

    Bytes lsk_seed = toBytes("cronus-lsk:");
    lsk_seed.insert(lsk_seed.end(), rot_pub.begin(), rot_pub.end());
    lsk = crypto::digestToBytes(crypto::sha256(lsk_seed));
}

Status
SecureMonitor::boot(const hw::DeviceTree &dt)
{
    if (bootedFlag)
        return Status(ErrorCode::InvalidState, "already booted");
    /* Only valid DTs are accepted (TrustPath-style checks). */
    CRONUS_RETURN_IF_ERROR(dt.validate());

    /* Lock secure devices down so the normal world cannot
     * reconfigure them (§V-A). */
    for (const auto &node : dt.all()) {
        if (node.world == hw::World::Secure) {
            CRONUS_RETURN_IF_ERROR(plat.tzpc().assignDevice(
                node.name, hw::World::Secure, hw::World::Secure));
        }
    }
    plat.lockDown();
    frozenDt = dt;
    bootedFlag = true;
    stats.counter("boots").inc();
    return Status::ok();
}

const hw::DeviceTree &
SecureMonitor::deviceTree() const
{
    CRONUS_ASSERT(frozenDt.has_value(),
                  "deviceTree() before secure boot");
    return *frozenDt;
}

void
SecureMonitor::worldSwitch()
{
    plat.clock().advance(plat.costs().worldSwitchNs);
    stats.counter("world_switches").inc();
}

void
SecureMonitor::sel2RpcSwitch()
{
    plat.clock().advance(plat.costs().sel2RpcSwitchNs);
    stats.counter("sel2_rpc_switches").inc();
}

crypto::Signature
SecureMonitor::signReport(const Bytes &report)
{
    plat.clock().advance(plat.costs().signNs);
    stats.counter("reports_signed").inc();
    return crypto::sign(atk, report);
}

} // namespace cronus::tee
