/**
 * @file
 * Enclave Dispatcher (normal world, §III-A).
 *
 * Decides which partition handles an mEnclave request, and records
 * the device type/configuration, mOS image and usable resources of
 * each partition. The dispatcher is *untrusted*: the attack suite
 * installs a misrouting hook, and CRONUS's ownership checks must
 * catch requests dispatched to the wrong partition.
 */

#ifndef CRONUS_CORE_DISPATCHER_HH
#define CRONUS_CORE_DISPATCHER_HH

#include <functional>
#include <set>

#include "micro_enclave.hh"

namespace cronus::core
{

class EnclaveDispatcher
{
  public:
    /** Record a partition's mOS and its capabilities. */
    void registerPartition(MicroOS *os);

    /** Route a request by eid (normal path: by the mOS-id bits). */
    Result<MicroOS *> route(Eid eid);

    /** Pick a partition able to host a new @p device_type enclave.
     *  @p device_name optionally pins a specific device. */
    Result<MicroOS *> partitionFor(const std::string &device_type,
                                   const std::string &device_name = "");

    /** All registered partitions (introspection). */
    const std::vector<MicroOS *> &partitions() const
    {
        return registered;
    }

    /**
     * Mark/unmark a device as degraded (quarantined by the recovery
     * supervisor after exhausting its restart budget). Degraded
     * devices are skipped by partitionFor; pinning one by name
     * returns Degraded so the caller can surface GaveUp.
     */
    void setDegraded(const std::string &device_name, bool degraded)
    {
        if (degraded)
            degradedDevices.insert(device_name);
        else
            degradedDevices.erase(device_name);
    }
    bool isDegraded(const std::string &device_name) const
    {
        return degradedDevices.count(device_name) > 0;
    }

    /**
     * ATTACK HOOK: replace routing, emulating a malicious normal OS
     * dispatching requests to an incorrect partition (§III-B).
     */
    void setMisroute(std::function<MicroOS *(Eid)> hook)
    {
        misroute = std::move(hook);
    }

    /**
     * Observes every successful placement decision made by
     * partitionFor() (the fuzzer records these in its decision
     * trace); called with the requested type/name and the chosen
     * mOS.
     */
    using PlacementObserver = std::function<void(
        const std::string & /*device_type*/,
        const std::string & /*device_name*/, MicroOS *)>;
    void setPlacementObserver(PlacementObserver observer)
    {
        placementObserver = std::move(observer);
    }

  private:
    std::vector<MicroOS *> registered;
    std::set<std::string> degradedDevices;
    std::function<MicroOS *(Eid)> misroute;
    PlacementObserver placementObserver;
};

} // namespace cronus::core

#endif // CRONUS_CORE_DISPATCHER_HH
