/**
 * @file
 * Secure monitor (EL3) model.
 *
 * Responsible for secure boot (validating the device tree, locking
 * secure devices and memory regions), world switching (with cost
 * accounting -- the S-EL2 RPC switch cost is what sRPC amortizes),
 * the platform attestation key AtK, and the local seal key LSK used
 * by local attestation (§IV-A).
 */

#ifndef CRONUS_TEE_SECURE_MONITOR_HH
#define CRONUS_TEE_SECURE_MONITOR_HH

#include <optional>

#include "base/stats.hh"
#include "crypto/keys.hh"
#include "hw/device_tree.hh"
#include "hw/platform.hh"

namespace cronus::tee
{

class SecureMonitor
{
  public:
    explicit SecureMonitor(hw::Platform &platform);

    /**
     * Secure boot: validate the DT provided by the (untrusted)
     * normal OS, assign secure devices per the DT, lock down the
     * TZASC/TZPC, and freeze the DT for attestation (§IV-A: the DT
     * is retrieved once during SPM initialization and cannot be
     * modified afterwards).
     */
    Status boot(const hw::DeviceTree &dt);

    /** boot() the platform's discovered device tree with every
     *  node assigned to the secure world (every device is managed
     *  by an mOS, §III-A). */
    Status bootAllSecure();

    bool booted() const { return bootedFlag; }

    /** The frozen device tree (panics if not booted). */
    const hw::DeviceTree &deviceTree() const;

    /* --- world switching --- */

    /** One normal<->secure world switch; charges cost. */
    void worldSwitch();

    /** The four-context-switch S-EL2 cross-partition RPC leg. */
    void sel2RpcSwitch();

    uint64_t worldSwitchCount() const
    {
        return stats.value("world_switches");
    }
    uint64_t sel2SwitchCount() const
    {
        return stats.value("sel2_rpc_switches");
    }

    /* --- attestation --- */

    /** Attestation key, endorsed (signed) by the platform RoT. */
    const crypto::PublicKey &attestationKey() const
    {
        return atk.pub;
    }
    const crypto::Signature &atkEndorsement() const
    {
        return atkEndorsementSig;
    }

    /** Sign an attestation report with AtK; charges signNs. */
    crypto::Signature signReport(const Bytes &report);

    /** Local seal key shared by all partitions on this machine. */
    const Bytes &localSealKey() const { return lsk; }

    hw::Platform &platform() { return plat; }
    StatGroup &statistics() { return stats; }

  private:
    hw::Platform &plat;
    crypto::KeyPair atk;
    crypto::Signature atkEndorsementSig;
    Bytes lsk;
    std::optional<hw::DeviceTree> frozenDt;
    bool bootedFlag = false;
    StatGroup stats;
};

} // namespace cronus::tee

#endif // CRONUS_TEE_SECURE_MONITOR_HH
