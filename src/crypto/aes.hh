/**
 * @file
 * AES-128 block cipher and CTR-mode stream encryption, from scratch.
 *
 * Used by the HIX-TrustZone baseline, which encrypts every RPC that
 * crosses untrusted memory, and by CRONUS for sealing data that must
 * transit the normal world.
 */

#ifndef CRONUS_CRYPTO_AES_HH
#define CRONUS_CRYPTO_AES_HH

#include <array>
#include <cstdint>

#include "base/bytes.hh"

namespace cronus::crypto
{

using AesKey = std::array<uint8_t, 16>;
using AesBlock = std::array<uint8_t, 16>;

/** AES-128 with a precomputed key schedule. */
class Aes128
{
  public:
    explicit Aes128(const AesKey &key);

    /** Encrypt one 16-byte block in place. */
    void encryptBlock(uint8_t block[16]) const;

    /**
     * CTR mode: encrypt/decrypt (symmetric) @p data with @p nonce.
     * The 16-byte counter block is nonce(8) || counter(8, BE).
     */
    Bytes ctr(const Bytes &data, uint64_t nonce) const;

    /** CTR mode over @p len bytes at @p in into @p out, which may
     *  equal @p in. */
    void ctr(const uint8_t *in, size_t len, uint64_t nonce,
             uint8_t *out) const;

  private:
    /* 11 round keys of four big-endian column words. */
    std::array<uint32_t, 44> roundKeys;
};

/** Derive an AES key from a 32-byte shared secret. */
AesKey aesKeyFromSecret(const Bytes &secret);

/**
 * Authenticated encryption: AES-128-CTR + HMAC-SHA256 tag over
 * (nonce || ciphertext), encrypt-then-MAC. Returns
 * nonce(8, little-endian) || ciphertext || tag(32).
 */
Bytes sealMessage(const Bytes &secret, uint64_t nonce,
                  const Bytes &plaintext);

/** Verify and decrypt a sealed message. */
Result<Bytes> openMessage(const Bytes &secret, const Bytes &sealed);

} // namespace cronus::crypto

#endif // CRONUS_CRYPTO_AES_HH
