#include "attested_device.hh"

namespace cronus::accel
{

Bytes
configMessage(const std::string &name, const std::string &compatible,
              uint64_t config_word, const Bytes &challenge)
{
    ByteWriter w;
    w.putString(name);
    w.putString(compatible);
    w.putU64(config_word);
    w.putBytes(challenge);
    return w.take();
}

AttestedDevice::AttestedDevice(std::string device_name, std::string compat,
                               uint64_t mmio_size, const Bytes &rot_seed)
    : hw::Device(std::move(device_name), std::move(compat), mmio_size),
      rotKeys(crypto::deriveKeyPair(rot_seed))
{
}

crypto::Signature
AttestedDevice::attestConfig(const Bytes &challenge) const
{
    return crypto::sign(rotKeys, configMessage(devName, devCompatible,
                                               configWord(), challenge));
}

} // namespace cronus::accel
