/**
 * @file
 * Internal: both implementations of the two bulk primitives.
 *
 * Aes128::ctr and Sha256's block compression each have a portable
 * body (T-table AES, unrolled SHA-256) and an x86-64 body on the
 * dedicated instructions (AES-NI, SHA-NI), chosen per call from the
 * CPUID probes aesNiAvailable() / shaNiAvailable() in the public
 * headers. The hardware entry points must only be called when their
 * probe is true; on non-x86-64 builds they forward to the portable
 * body. Only src/crypto/ and the tests include this header: the
 * tests hold every path to the textbook oracle on any host, and the
 * perf-smoke benches time each path by name.
 */

#ifndef CRONUS_CRYPTO_DISPATCH_HH
#define CRONUS_CRYPTO_DISPATCH_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "aes.hh"

namespace cronus::crypto::detail
{

/** 11 AES-128 round keys of four big-endian column words. */
using AesRoundKeys = std::array<uint32_t, 44>;

/** The FIPS-197 key expansion. */
AesRoundKeys expandAesKey(const AesKey &key);

/** CTR over @p len bytes (counter block nonce(8, BE) ||
 *  counter(8, BE)); @p out may equal @p in. */
void aesCtrPortable(const AesRoundKeys &rk, const uint8_t *in,
                    size_t len, uint64_t nonce, uint8_t *out);
void aesCtrAesNi(const AesRoundKeys &rk, const uint8_t *in, size_t len,
                 uint64_t nonce, uint8_t *out);

/** SHA-256's initial hash value H(0), a..h. */
inline constexpr std::array<uint32_t, 8> kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

/** SHA-256 compression of @p n_blocks 64-byte blocks into
 *  @p state (a..h). */
void sha256CompressPortable(uint32_t state[8], const uint8_t *data,
                            size_t n_blocks);
void sha256CompressShaNi(uint32_t state[8], const uint8_t *data,
                         size_t n_blocks);

} // namespace cronus::crypto::detail

#endif // CRONUS_CRYPTO_DISPATCH_HH
