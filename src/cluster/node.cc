#include "node.hh"

namespace cronus::cluster
{

const char *
nodeHealthName(NodeHealth health)
{
    switch (health) {
      case NodeHealth::Healthy:     return "healthy";
      case NodeHealth::Degraded:    return "degraded";
      case NodeHealth::Quarantined: return "quarantined";
      case NodeHealth::Down:        return "down";
    }
    return "?";
}

Bytes
NodeCredential::signedMessage() const
{
    Bytes m = toBytes("cronus-node-credential:" + name + ":");
    Bytes key = rotKey.toBytes();
    m.insert(m.end(), key.begin(), key.end());
    m.insert(m.end(), dtMeasurement.begin(), dtMeasurement.end());
    return m;
}

ClusterNode::ClusterNode(NodeId id, std::string name,
                         core::CronusConfig system_template,
                         SimClock *fleet_clock)
    : nodeId(id), nodeName(std::move(name))
{
    system_template.sharedClock = fleet_clock;
    system_template.nodeName = nodeName;
    sys = std::make_unique<core::CronusSystem>(system_template);
    sup = std::make_unique<recover::Supervisor>(*sys);
    for (core::MicroOS *os : sys->allMos())
        (void)sup->watch(os->deviceName());
}

std::vector<std::string>
ClusterNode::deviceNames()
{
    std::vector<std::string> names;
    for (core::MicroOS *os : sys->allMos())
        names.push_back(os->deviceName());
    return names;
}

NodeCredential
ClusterNode::credential()
{
    NodeCredential cred;
    cred.name = nodeName;
    cred.rotKey = sys->platform().rootOfTrust().publicKey();
    cred.dtMeasurement = sys->platform().buildDeviceTree().measure();
    cred.endorsement =
        sys->platform().rootOfTrust().sign(cred.signedMessage());
    return cred;
}

void
ClusterNode::crash()
{
    if (h == NodeHealth::Down)
        return;
    for (const std::string &dev : deviceNames())
        (void)sys->injectPanic(dev);
    h = NodeHealth::Down;
}

Status
ClusterNode::reboot()
{
    Status verdict = Status::ok();
    for (const std::string &dev : deviceNames()) {
        Status s = sys->recover(dev);
        if (!s.isOk())
            verdict = s;
    }
    h = verdict.isOk() ? NodeHealth::Healthy : NodeHealth::Degraded;
    return verdict;
}

} // namespace cronus::cluster
