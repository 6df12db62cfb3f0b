/**
 * @file
 * The device root of trust every simulated CPU/GPU/NPU carries (§IV-A).
 *
 * configMessage() is the one definition of the bytes a device's RoT
 * key signs to prove its configuration. The device signs them in
 * attestConfig(); the mOS HAL rebuilds them and verifies the
 * signature against the device's public key before it reports the
 * device as genuine.
 */

#ifndef CRONUS_ACCEL_ATTESTED_DEVICE_HH
#define CRONUS_ACCEL_ATTESTED_DEVICE_HH

#include <string>

#include "crypto/keys.hh"
#include "hw/device.hh"

namespace cronus::accel
{

/** name, compatible string, device-specific word, challenge. */
Bytes configMessage(const std::string &name,
                    const std::string &compatible, uint64_t config_word,
                    const Bytes &challenge);

class AttestedDevice : public hw::Device
{
  public:
    AttestedDevice(std::string device_name, std::string compat,
                   uint64_t mmio_size, const Bytes &rot_seed);

    const crypto::PublicKey &devicePublicKey() const
    {
        return rotKeys.pub;
    }

    /** The configuration word the signed message carries. */
    virtual uint64_t configWord() const = 0;

    /** Sign the device configuration (authenticity proof, §IV-A). */
    crypto::Signature attestConfig(const Bytes &challenge) const;

  private:
    crypto::KeyPair rotKeys;
};

} // namespace cronus::accel

#endif // CRONUS_ACCEL_ATTESTED_DEVICE_HH
