/**
 * @file
 * Hardware root of trust: a device holding a ROM-fused private key.
 *
 * The platform RoT signs attestation-key endorsements (§IV-A); each
 * accelerator also embeds its own RoT so the mOS can verify hardware
 * authenticity (PubK_acc endorsed by the vendor).
 */

#ifndef CRONUS_HW_ROOT_OF_TRUST_HH
#define CRONUS_HW_ROOT_OF_TRUST_HH

#include <map>
#include <string>

#include "base/bytes.hh"
#include "crypto/keys.hh"

namespace cronus::hw
{

class RootOfTrust
{
  public:
    /** @p seed models the ROM-fused secret. */
    explicit RootOfTrust(const Bytes &seed)
        : keys(crypto::deriveKeyPair(seed)) {}

    const crypto::PublicKey &publicKey() const { return keys.pub; }

    /**
     * Sign @p message with the fused key. Only callable from the
     * secure side in the real hardware; the simulation enforces that
     * at the call sites (secure monitor / device firmware).
     */
    crypto::Signature sign(const Bytes &message) const
    {
        return crypto::sign(keys, message);
    }

  private:
    crypto::KeyPair keys;
};

/**
 * A vendor endorsement registry standing in for the accelerator
 * vendors' PKI: clients check that an accelerator's PubK_acc is
 * endorsed by a known vendor key.
 */
class VendorRegistry
{
  public:
    /** Register a vendor key (e.g. "nvidia"). */
    void addVendor(const std::string &vendor,
                   const crypto::PublicKey &key);

    /** Endorsement = vendor signature over the device public key. */
    Result<crypto::Signature> endorse(
        const std::string &vendor,
        const crypto::KeyPair &vendor_keys,
        const crypto::PublicKey &device_key) const;

    /** Verify that @p device_key carries a valid endorsement. */
    bool verifyEndorsement(const std::string &vendor,
                           const crypto::PublicKey &device_key,
                           const crypto::Signature &endorsement) const;

  private:
    std::map<std::string, crypto::PublicKey> vendors;
};

} // namespace cronus::hw

#endif // CRONUS_HW_ROOT_OF_TRUST_HH
