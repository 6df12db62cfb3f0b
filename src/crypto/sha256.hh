/**
 * @file
 * SHA-256 (FIPS 180-4) implemented from scratch.
 *
 * Used for all measurements (mOS/mEnclave image hashes), HMAC, and
 * as the hash inside Schnorr signatures.
 */

#ifndef CRONUS_CRYPTO_SHA256_HH
#define CRONUS_CRYPTO_SHA256_HH

#include <array>
#include <cstdint>
#include <string>

#include "base/bytes.hh"

namespace cronus::crypto
{

/** A 32-byte digest. */
using Digest = std::array<uint8_t, 32>;

/** Incremental SHA-256 context. */
class Sha256
{
  public:
    Sha256();

    void update(const uint8_t *data, size_t len);
    void update(const Bytes &data)
    {
        update(data.data(), data.size());
    }
    void update(const std::string &s)
    {
        update(reinterpret_cast<const uint8_t *>(s.data()), s.size());
    }

    /** Finalize; the context must not be reused afterwards. */
    Digest finalize();

  private:
    void processBlock(const uint8_t *block);

    uint32_t state[8];
    uint64_t totalLen = 0;
    uint8_t buffer[64];
    size_t bufferLen = 0;
    bool finalized = false;
};

/** One-shot helpers. */
Digest sha256(const Bytes &data);
Digest sha256(const std::string &data);

/** Digest as a Bytes vector. */
Bytes digestToBytes(const Digest &d);

/** Digest rendered as lowercase hex. */
std::string digestHex(const Digest &d);

/** HMAC-SHA256 (RFC 2104). */
Digest hmacSha256(const Bytes &key, const Bytes &message);
Digest hmacSha256(const Bytes &key, const uint8_t *message, size_t len);

} // namespace cronus::crypto

#endif // CRONUS_CRYPTO_SHA256_HH
