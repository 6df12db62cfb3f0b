#include "sha256.hh"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "base/logging.hh"
#include "dispatch.hh"

namespace cronus::crypto
{

namespace
{

const uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t
rotr(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

inline uint32_t
loadBE32(const uint8_t *p)
{
    return (uint32_t(p[0]) << 24) | (uint32_t(p[1]) << 16) |
           (uint32_t(p[2]) << 8) | uint32_t(p[3]);
}

/**
 * One compression round. The caller rotates the register names
 * instead of shuffling eight values per round: only d and h change.
 */
inline void
compressRound(uint32_t a, uint32_t b, uint32_t c, uint32_t &d,
              uint32_t e, uint32_t f, uint32_t g, uint32_t &h,
              uint32_t kw)
{
    const uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const uint32_t ch = g ^ (e & (f ^ g));
    const uint32_t temp1 = h + s1 + ch + kw;
    const uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const uint32_t maj = (a & b) | (c & (a | b));
    d += temp1;
    h = temp1 + s0 + maj;
}

/** Every whole block in one call, on SHA-NI when the host has it. */
void
compressBlocks(uint32_t state[8], const uint8_t *data, size_t n_blocks)
{
    if (shaNiAvailable())
        detail::sha256CompressShaNi(state, data, n_blocks);
    else
        detail::sha256CompressPortable(state, data, n_blocks);
}

} // namespace

namespace detail
{

void
sha256CompressPortable(uint32_t state[8], const uint8_t *data,
                       size_t n_blocks)
{
    for (; n_blocks > 0; --n_blocks, data += 64) {
        uint32_t w[64];
        for (int i = 0; i < 16; ++i)
            w[i] = loadBE32(data + 4 * i);
        for (int i = 16; i < 64; ++i) {
            const uint32_t x = w[i - 15], y = w[i - 2];
            const uint32_t s0 = rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3);
            const uint32_t s1 = rotr(y, 17) ^ rotr(y, 19) ^ (y >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        /* Eight rounds per iteration, each one name further along. */
        for (int i = 0; i < 64; i += 8) {
            const uint32_t *k = kRoundConstants + i;
            compressRound(a, b, c, d, e, f, g, h, k[0] + w[i]);
            compressRound(h, a, b, c, d, e, f, g, k[1] + w[i + 1]);
            compressRound(g, h, a, b, c, d, e, f, k[2] + w[i + 2]);
            compressRound(f, g, h, a, b, c, d, e, k[3] + w[i + 3]);
            compressRound(e, f, g, h, a, b, c, d, k[4] + w[i + 4]);
            compressRound(d, e, f, g, h, a, b, c, k[5] + w[i + 5]);
            compressRound(c, d, e, f, g, h, a, b, k[6] + w[i + 6]);
            compressRound(b, c, d, e, f, g, h, a, k[7] + w[i + 7]);
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)

__attribute__((target("sha,sse4.1,ssse3"))) void
sha256CompressShaNi(uint32_t state[8], const uint8_t *data,
                    size_t n_blocks)
{
    /* SHA256RNDS2 keeps the state as ABEF and CDGH lane pairs. */
    __m128i tmp = _mm_loadu_si128(reinterpret_cast<__m128i *>(state));
    __m128i state1 =
        _mm_loadu_si128(reinterpret_cast<__m128i *>(state + 4));
    tmp = _mm_shuffle_epi32(tmp, 0xb1);         /* CDAB */
    state1 = _mm_shuffle_epi32(state1, 0x1b);   /* EFGH */
    __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   /* ABEF */
    state1 = _mm_blend_epi16(state1, tmp, 0xf0);        /* CDGH */

    /* Big-endian message words. */
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    for (; n_blocks > 0; --n_blocks, data += 64) {
        const __m128i abef = state0, cdgh = state1;
        /* w[g % 4] holds the message words 4g..4g+3 of round group
         * g. Groups 0..3 load theirs; during group g, SHA256MSG2
         * finishes group g + 1's words (g = 3..14) and SHA256MSG1
         * starts group g + 3's (g = 1..12). */
        __m128i w[4];
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            if (g < 4)
                w[g] = _mm_shuffle_epi8(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(data) + g),
                    bswap);
            __m128i msg = _mm_add_epi32(
                w[g & 3],
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    kRoundConstants + 4 * g)));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            if (g >= 3 && g <= 14) {
                __m128i &next = w[(g + 1) & 3];
                next = _mm_add_epi32(
                    next, _mm_alignr_epi8(w[g & 3], w[(g + 3) & 3], 4));
                next = _mm_sha256msg2_epu32(next, w[g & 3]);
            }
            msg = _mm_shuffle_epi32(msg, 0x0e);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
            if (g >= 1 && g <= 12)
                w[(g + 3) & 3] =
                    _mm_sha256msg1_epu32(w[(g + 3) & 3], w[g & 3]);
        }
        state0 = _mm_add_epi32(state0, abef);
        state1 = _mm_add_epi32(state1, cdgh);
    }

    tmp = _mm_shuffle_epi32(state0, 0x1b);      /* FEBA */
    state1 = _mm_shuffle_epi32(state1, 0xb1);   /* DCHG */
    state0 = _mm_blend_epi16(tmp, state1, 0xf0);        /* DCBA */
    state1 = _mm_alignr_epi8(state1, tmp, 8);           /* ABEF */
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state), state0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4), state1);
}

#else

void
sha256CompressShaNi(uint32_t state[8], const uint8_t *data,
                    size_t n_blocks)
{
    sha256CompressPortable(state, data, n_blocks);
}

#endif

} // namespace detail

bool
shaNiAvailable()
{
#if defined(__x86_64__)
    /* Function-local, so a sha256() during static initialization
     * still runs __builtin_cpu_init() before reading the bits. */
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sha") &&
               __builtin_cpu_supports("sse4.1") &&
               __builtin_cpu_supports("ssse3");
    }();
    return available;
#else
    return false;
#endif
}

Sha256::Sha256()
{
    std::copy(detail::kSha256Init.begin(), detail::kSha256Init.end(),
              state);
}

void
Sha256::update(const uint8_t *data, size_t len)
{
    CRONUS_ASSERT(!finalized, "Sha256::update after finalize");
    if (len == 0)
        return;
    totalLen += len;
    if (bufferLen > 0) {
        size_t take = std::min(len, sizeof(buffer) - bufferLen);
        std::memcpy(buffer + bufferLen, data, take);
        bufferLen += take;
        data += take;
        len -= take;
        if (bufferLen < sizeof(buffer))
            return;
        compressBlocks(state, buffer, 1);
        bufferLen = 0;
    }
    /* Whole blocks are hashed straight from the input, in one call. */
    const size_t whole = len / sizeof(buffer);
    compressBlocks(state, data, whole);
    data += whole * sizeof(buffer);
    len -= whole * sizeof(buffer);
    std::memcpy(buffer, data, len);
    bufferLen = len;
}

Digest
Sha256::finalize()
{
    CRONUS_ASSERT(!finalized, "Sha256::finalize twice");
    finalized = true;

    /* 0x80, zeros, then the bit length at the end of the last of
     * one or two padding blocks. */
    uint8_t tail[128] = {};
    std::memcpy(tail, buffer, bufferLen);
    tail[bufferLen] = 0x80;
    const size_t blocks = bufferLen < 56 ? 1 : 2;
    const uint64_t bit_len = totalLen * 8;
    for (int i = 0; i < 8; ++i)
        tail[64 * blocks - 8 + i] = (bit_len >> (56 - 8 * i)) & 0xff;
    compressBlocks(state, tail, blocks);

    Digest out;
    for (int i = 0; i < 8; ++i) {
        out[i * 4] = (state[i] >> 24) & 0xff;
        out[i * 4 + 1] = (state[i] >> 16) & 0xff;
        out[i * 4 + 2] = (state[i] >> 8) & 0xff;
        out[i * 4 + 3] = state[i] & 0xff;
    }
    return out;
}

Digest
sha256(const Bytes &data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.finalize();
}

Digest
sha256(const std::string &data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.finalize();
}

Bytes
digestToBytes(const Digest &d)
{
    return Bytes(d.begin(), d.end());
}

std::string
digestHex(const Digest &d)
{
    return toHex(d.data(), d.size());
}

Digest
hmacSha256(const Bytes &key, const Bytes &message)
{
    return hmacSha256(key, message.data(), message.size());
}

Digest
hmacSha256(const Bytes &key, const uint8_t *message, size_t len)
{
    uint8_t key_block[64];
    std::memset(key_block, 0, sizeof(key_block));
    if (key.size() > 64) {
        Digest kd = sha256(key);
        std::memcpy(key_block, kd.data(), kd.size());
    } else if (!key.empty()) {
        std::memcpy(key_block, key.data(), key.size());
    }

    uint8_t ipad[64], opad[64];
    for (int i = 0; i < 64; ++i) {
        ipad[i] = key_block[i] ^ 0x36;
        opad[i] = key_block[i] ^ 0x5c;
    }

    Sha256 inner;
    inner.update(ipad, sizeof(ipad));
    inner.update(message, len);
    Digest inner_digest = inner.finalize();

    Sha256 outer;
    outer.update(opad, sizeof(opad));
    outer.update(inner_digest.data(), inner_digest.size());
    return outer.finalize();
}

} // namespace cronus::crypto
