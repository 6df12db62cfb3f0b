#include "sha256.hh"

#include <cstring>

#include "base/logging.hh"

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

} // namespace

Sha256::Sha256()
{
    state[0] = 0x6a09e667;
    state[1] = 0xbb67ae85;
    state[2] = 0x3c6ef372;
    state[3] = 0xa54ff53a;
    state[4] = 0x510e527f;
    state[5] = 0x9b05688c;
    state[6] = 0x1f83d9ab;
    state[7] = 0x5be0cd19;
}

void
Sha256::processBlock(const uint8_t *block)
{
    uint32_t w[64];
    for (int i = 0; i < 16; ++i)
        w[i] = loadBE32(block + 4 * i);
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
        processBlock(buffer);
        bufferLen = 0;
    }
    /* Whole blocks are hashed straight from the input. */
    for (; len >= sizeof(buffer); data += sizeof(buffer),
                                  len -= sizeof(buffer))
        processBlock(data);
    std::memcpy(buffer, data, len);
    bufferLen = len;
}

Digest
Sha256::finalize()
{
    CRONUS_ASSERT(!finalized, "Sha256::finalize twice");
    finalized = true;

    uint64_t bit_len = totalLen * 8;
    buffer[bufferLen++] = 0x80;
    if (bufferLen > 56) {
        std::memset(buffer + bufferLen, 0, sizeof(buffer) - bufferLen);
        processBlock(buffer);
        std::memset(buffer, 0, 56);
    } else {
        std::memset(buffer + bufferLen, 0, 56 - bufferLen);
    }
    bufferLen = 56;
    for (int i = 0; i < 8; ++i)
        buffer[56 + i] = (bit_len >> (56 - 8 * i)) & 0xff;
    processBlock(buffer);

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
