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

} // namespace cronus::hw

#endif // CRONUS_HW_ROOT_OF_TRUST_HH
