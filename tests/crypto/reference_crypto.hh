/**
 * @file
 * Slow reference implementations of the symmetric primitives.
 *
 * Each function follows the standard text step by step and shares no
 * code or tables with src/crypto/, so the property tests can hold the
 * fast paths (T-table AES, unrolled SHA-256, in-place seal/open) to
 * an independent oracle on random inputs. The AES S-box is derived
 * from GF(2^8) inversion and the affine map, not copied.
 */

#ifndef CRONUS_TESTS_CRYPTO_REFERENCE_CRYPTO_HH
#define CRONUS_TESTS_CRYPTO_REFERENCE_CRYPTO_HH

#include <array>
#include <cstdint>

#include "base/bytes.hh"
#include "crypto/aes.hh"
#include "crypto/sha256.hh"

namespace cronus::crypto::reference
{

/** FIPS-197 AES-128 with byte-wise SubBytes, ShiftRows, MixColumns
 *  and AddRoundKey over the column-major state. */
class TextbookAes
{
  public:
    explicit TextbookAes(const AesKey &key);

    /** Encrypt one 16-byte block in place. */
    void encryptBlock(uint8_t block[16]) const;

  private:
    /* 11 round keys of 16 bytes. */
    std::array<uint8_t, 176> roundKeys;
};

/** CTR mode with counter block nonce(8, BE) || counter(8, BE). */
Bytes aesCtr(const AesKey &key, const Bytes &data, uint64_t nonce);

/** FIPS 180-4 SHA-256: padded message, one rolled round loop. */
Digest sha256(const Bytes &data);

/** RFC 2104 HMAC over the reference SHA-256. */
Digest hmacSha256(const Bytes &key, const Bytes &message);

/** sealMessage's wire format built from the functions above. */
Bytes sealMessage(const Bytes &secret, uint64_t nonce,
                  const Bytes &plaintext);

} // namespace cronus::crypto::reference

#endif // CRONUS_TESTS_CRYPTO_REFERENCE_CRYPTO_HH
