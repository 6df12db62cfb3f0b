#include "dispatcher.hh"

#include "obs/trace.hh"

namespace cronus::core
{

void
EnclaveDispatcher::registerPartition(MicroOS *os)
{
    registered.push_back(os);
}

Result<MicroOS *>
EnclaveDispatcher::route(Eid eid)
{
    if (misroute) {
        MicroOS *forced = misroute(eid);
        if (forced != nullptr)
            return forced;
    }
    for (MicroOS *os : registered) {
        if (os->partitionId() == mosIdOf(eid))
            return os;
    }
    return Status(ErrorCode::NotFound,
                  "no partition for eid " + eidToString(eid));
}

Result<MicroOS *>
EnclaveDispatcher::partitionFor(const std::string &device_type,
                                const std::string &device_name)
{
    /* Least-loaded placement across identical accelerators: the
     * dispatcher records each partition's usable resources
     * (§III-A) and spreads new mEnclaves for utilization. */
    if (!device_name.empty() && isDegraded(device_name))
        return Status(ErrorCode::Degraded,
                      "device '" + device_name +
                      "' is quarantined");
    MicroOS *best = nullptr;
    size_t best_load = ~size_t(0);
    bool skipped_degraded = false;
    for (MicroOS *os : registered) {
        if (os->deviceType() != device_type)
            continue;
        if (!device_name.empty() && os->deviceName() != device_name)
            continue;
        if (isDegraded(os->deviceName())) {
            skipped_degraded = true;
            continue;
        }
        size_t load = os->enclaveManager().enclaveCount();
        if (load < best_load) {
            best = os;
            best_load = load;
        }
    }
    if (best != nullptr) {
        if (auto &trc = obs::Tracer::instance(); trc.active()) {
            JsonObject targs;
            targs["deviceType"] = device_type;
            targs["device"] = best->deviceName();
            targs["partition"] =
                static_cast<int64_t>(best->partitionId());
            targs["load"] = static_cast<int64_t>(best_load);
            trc.instant(trc.track("dispatcher"), "dispatch.place",
                        "dispatch", std::move(targs));
        }
        if (placementObserver)
            placementObserver(device_type, device_name, best);
        return best;
    }
    if (skipped_degraded)
        return Status(ErrorCode::Degraded,
                      "every '" + device_type +
                      "' device is quarantined");
    return Status(ErrorCode::NotFound,
                  "no partition manages a '" + device_type +
                  "' device" +
                  (device_name.empty() ? "" : " named '" +
                                              device_name + "'"));
}

} // namespace cronus::core
