#include "root_of_trust.hh"

namespace cronus::hw
{

void
VendorRegistry::addVendor(const std::string &vendor,
                          const crypto::PublicKey &key)
{
    vendors[vendor] = key;
}

Result<crypto::Signature>
VendorRegistry::endorse(const std::string &vendor,
                        const crypto::KeyPair &vendor_keys,
                        const crypto::PublicKey &device_key) const
{
    auto it = vendors.find(vendor);
    if (it == vendors.end())
        return Status(ErrorCode::NotFound,
                      "unknown vendor '" + vendor + "'");
    return crypto::sign(vendor_keys, device_key.toBytes());
}

bool
VendorRegistry::verifyEndorsement(const std::string &vendor,
                                  const crypto::PublicKey &device_key,
                                  const crypto::Signature &endorsement)
    const
{
    auto it = vendors.find(vendor);
    if (it == vendors.end())
        return false;
    return crypto::verify(it->second, device_key.toBytes(),
                          endorsement);
}

} // namespace cronus::hw
