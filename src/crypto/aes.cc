#include "aes.hh"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "dispatch.hh"
#include "sha256.hh"

namespace cronus::crypto
{

namespace
{

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5,
    0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc,
    0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85,
    0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17,
    0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88,
    0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9,
    0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6,
    0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94,
    0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68,
    0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
};

/* sealMessage framing. */
constexpr size_t kNonceBytes = 8;
constexpr size_t kTagBytes = 32;

constexpr uint8_t kRcon[11] = {
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
    0x20, 0x40, 0x80, 0x1b, 0x36,
};

constexpr uint8_t
xtime(uint8_t x)
{
    return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr uint32_t
rotr8(uint32_t x)
{
    return (x >> 8) | (x << 24);
}

/**
 * The four 256-entry T-tables: Te[0][x] is the MixColumns column
 * (2s, s, s, 3s) of s = S(x), big-endian in a word, and Te[k] is
 * Te[0] rotated right by 8k bits, so one round of SubBytes,
 * ShiftRows and MixColumns is 16 lookups and XORs. Computed from the
 * S-box at compile time.
 */
constexpr std::array<std::array<uint32_t, 256>, 4>
makeTeTables()
{
    std::array<std::array<uint32_t, 256>, 4> te{};
    for (int x = 0; x < 256; ++x) {
        const uint8_t s = kSbox[x];
        const uint8_t s2 = xtime(s);
        const uint8_t s3 = static_cast<uint8_t>(s2 ^ s);
        uint32_t w = (uint32_t(s2) << 24) | (uint32_t(s) << 16) |
                     (uint32_t(s) << 8) | uint32_t(s3);
        for (int k = 0; k < 4; ++k) {
            te[k][x] = w;
            w = rotr8(w);
        }
    }
    return te;
}

constexpr auto kTe = makeTeTables();

inline uint32_t
loadBE32(const uint8_t *p)
{
    return (uint32_t(p[0]) << 24) | (uint32_t(p[1]) << 16) |
           (uint32_t(p[2]) << 8) | uint32_t(p[3]);
}

inline void
storeBE32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v >> 24);
    p[1] = static_cast<uint8_t>(v >> 16);
    p[2] = static_cast<uint8_t>(v >> 8);
    p[3] = static_cast<uint8_t>(v);
}

inline uint32_t
byteOf(uint32_t w, int shift)
{
    return (w >> shift) & 0xff;
}

/** One T-table round: column c takes row r from column c + r. */
inline uint32_t
teColumn(uint32_t a, uint32_t b, uint32_t c, uint32_t d, uint32_t rk)
{
    return kTe[0][byteOf(a, 24)] ^ kTe[1][byteOf(b, 16)] ^
           kTe[2][byteOf(c, 8)] ^ kTe[3][byteOf(d, 0)] ^ rk;
}

/** The final round: SubBytes and ShiftRows without MixColumns. */
inline uint32_t
lastColumn(uint32_t a, uint32_t b, uint32_t c, uint32_t d, uint32_t rk)
{
    return ((uint32_t(kSbox[byteOf(a, 24)]) << 24) |
            (uint32_t(kSbox[byteOf(b, 16)]) << 16) |
            (uint32_t(kSbox[byteOf(c, 8)]) << 8) |
            uint32_t(kSbox[byteOf(d, 0)])) ^
           rk;
}

/** Encrypt the state held as four big-endian column words. */
inline void
encryptWords(const std::array<uint32_t, 44> &rk, uint32_t s[4])
{
    uint32_t s0 = s[0] ^ rk[0], s1 = s[1] ^ rk[1];
    uint32_t s2 = s[2] ^ rk[2], s3 = s[3] ^ rk[3];
    for (int round = 1; round < 10; ++round) {
        const uint32_t *k = rk.data() + 4 * round;
        const uint32_t t0 = teColumn(s0, s1, s2, s3, k[0]);
        const uint32_t t1 = teColumn(s1, s2, s3, s0, k[1]);
        const uint32_t t2 = teColumn(s2, s3, s0, s1, k[2]);
        const uint32_t t3 = teColumn(s3, s0, s1, s2, k[3]);
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }
    s[0] = lastColumn(s0, s1, s2, s3, rk[40]);
    s[1] = lastColumn(s1, s2, s3, s0, rk[41]);
    s[2] = lastColumn(s2, s3, s0, s1, rk[42]);
    s[3] = lastColumn(s3, s0, s1, s2, rk[43]);
}

#if defined(__x86_64__)

#define CRONUS_AESNI __attribute__((target("aes,sse4.1,ssse3")))

/** One block through the ten AES-NI rounds. */
CRONUS_AESNI inline __m128i
encryptAesNi(__m128i block, const __m128i k[11])
{
    block = _mm_xor_si128(block, k[0]);
    for (int round = 1; round < 10; ++round)
        block = _mm_aesenc_si128(block, k[round]);
    return _mm_aesenclast_si128(block, k[10]);
}

/** The counter block nonce(8, BE) || counter(8, BE) in a register,
 *  whose byte 0 is the low byte of the low quadword. */
CRONUS_AESNI inline __m128i
counterBlock(uint64_t nonce, uint64_t counter)
{
    return _mm_set_epi64x(
        static_cast<int64_t>(__builtin_bswap64(counter)),
        static_cast<int64_t>(__builtin_bswap64(nonce)));
}

#endif

} // namespace

namespace detail
{

AesRoundKeys
expandAesKey(const AesKey &key)
{
    AesRoundKeys rk;
    for (int i = 0; i < 4; ++i)
        rk[i] = loadBE32(key.data() + 4 * i);
    for (int i = 4; i < 44; ++i) {
        uint32_t temp = rk[i - 1];
        if (i % 4 == 0) {
            /* RotWord, SubWord, Rcon. */
            temp = (uint32_t(kSbox[byteOf(temp, 16)]) << 24) |
                   (uint32_t(kSbox[byteOf(temp, 8)]) << 16) |
                   (uint32_t(kSbox[byteOf(temp, 0)]) << 8) |
                   uint32_t(kSbox[byteOf(temp, 24)]);
            temp ^= uint32_t(kRcon[i / 4]) << 24;
        }
        rk[i] = rk[i - 4] ^ temp;
    }
    return rk;
}

void
aesCtrPortable(const AesRoundKeys &rk, const uint8_t *in, size_t len,
               uint64_t nonce, uint8_t *out)
{
    uint8_t keystream[16];
    for (size_t offset = 0; offset < len; offset += 16) {
        const uint64_t counter = offset / 16;
        uint32_t s[4] = {
            static_cast<uint32_t>(nonce >> 32),
            static_cast<uint32_t>(nonce),
            static_cast<uint32_t>(counter >> 32),
            static_cast<uint32_t>(counter),
        };
        encryptWords(rk, s);
        for (int i = 0; i < 4; ++i)
            storeBE32(keystream + 4 * i, s[i]);
        const size_t n = std::min<size_t>(16, len - offset);
        for (size_t i = 0; i < n; ++i)
            out[offset + i] = in[offset + i] ^ keystream[i];
    }
}

#if defined(__x86_64__)

CRONUS_AESNI void
aesCtrAesNi(const AesRoundKeys &rk, const uint8_t *in, size_t len,
            uint64_t nonce, uint8_t *out)
{
    /* AES-NI takes each round key as the 16 bytes of the state, the
     * same byte order the big-endian column words spell out. */
    __m128i k[11];
    for (int round = 0; round < 11; ++round) {
        uint8_t bytes[16];
        for (int i = 0; i < 4; ++i)
            storeBE32(bytes + 4 * i, rk[4 * round + i]);
        k[round] = _mm_loadu_si128(reinterpret_cast<__m128i *>(bytes));
    }

    /* Four counter blocks per pass keep the AES unit's pipeline
     * full; each block's input is loaded before its output is
     * stored, so in == out is safe. */
    uint64_t counter = 0;
    size_t offset = 0;
    for (; len - offset >= 64; offset += 64, counter += 4) {
        __m128i b[4];
        for (int j = 0; j < 4; ++j)
            b[j] = _mm_xor_si128(counterBlock(nonce, counter + j), k[0]);
        for (int round = 1; round < 10; ++round)
            for (int j = 0; j < 4; ++j)
                b[j] = _mm_aesenc_si128(b[j], k[round]);
        for (int j = 0; j < 4; ++j) {
            const auto *src =
                reinterpret_cast<const __m128i *>(in + offset) + j;
            auto *dst = reinterpret_cast<__m128i *>(out + offset) + j;
            _mm_storeu_si128(
                dst, _mm_xor_si128(_mm_loadu_si128(src),
                                   _mm_aesenclast_si128(b[j], k[10])));
        }
    }
    /* The last 0..63 bytes, one block at a time, byte by byte. */
    for (; offset < len; offset += 16, ++counter) {
        uint8_t keystream[16];
        _mm_storeu_si128(reinterpret_cast<__m128i *>(keystream),
                         encryptAesNi(counterBlock(nonce, counter), k));
        const size_t n = std::min<size_t>(16, len - offset);
        for (size_t i = 0; i < n; ++i)
            out[offset + i] = in[offset + i] ^ keystream[i];
    }
}

#else

void
aesCtrAesNi(const AesRoundKeys &rk, const uint8_t *in, size_t len,
            uint64_t nonce, uint8_t *out)
{
    aesCtrPortable(rk, in, len, nonce, out);
}

#endif

} // namespace detail

bool
aesNiAvailable()
{
#if defined(__x86_64__)
    /* Function-local, so a call during static initialization still
     * runs __builtin_cpu_init() before reading the feature bits. */
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("aes") &&
               __builtin_cpu_supports("sse4.1") &&
               __builtin_cpu_supports("ssse3");
    }();
    return available;
#else
    return false;
#endif
}

Aes128::Aes128(const AesKey &key) : roundKeys(detail::expandAesKey(key))
{
}

void
Aes128::encryptBlock(uint8_t block[16]) const
{
    uint32_t s[4];
    for (int i = 0; i < 4; ++i)
        s[i] = loadBE32(block + 4 * i);
    encryptWords(roundKeys, s);
    for (int i = 0; i < 4; ++i)
        storeBE32(block + 4 * i, s[i]);
}

void
Aes128::ctr(const uint8_t *in, size_t len, uint64_t nonce,
            uint8_t *out) const
{
    if (aesNiAvailable())
        detail::aesCtrAesNi(roundKeys, in, len, nonce, out);
    else
        detail::aesCtrPortable(roundKeys, in, len, nonce, out);
}

Bytes
Aes128::ctr(const Bytes &data, uint64_t nonce) const
{
    Bytes out(data.size());
    ctr(data.data(), data.size(), nonce, out.data());
    return out;
}

AesKey
aesKeyFromSecret(const Bytes &secret)
{
    Bytes material = toBytes("cronus-aes:");
    material.insert(material.end(), secret.begin(), secret.end());
    Digest d = sha256(material);
    AesKey key;
    std::memcpy(key.data(), d.data(), key.size());
    return key;
}

Bytes
sealMessage(const Bytes &secret, uint64_t nonce,
            const Bytes &plaintext)
{
    /* nonce(8, LE) || ciphertext || tag, written in place. */
    const size_t body_len = kNonceBytes + plaintext.size();
    Bytes out(body_len + kTagBytes);
    for (size_t i = 0; i < kNonceBytes; ++i)
        out[i] = static_cast<uint8_t>(nonce >> (8 * i));
    Aes128 cipher(aesKeyFromSecret(secret));
    cipher.ctr(plaintext.data(), plaintext.size(), nonce,
               out.data() + kNonceBytes);
    const Digest tag = hmacSha256(secret, out.data(), body_len);
    std::memcpy(out.data() + body_len, tag.data(), kTagBytes);
    return out;
}

Result<Bytes>
openMessage(const Bytes &secret, const Bytes &sealed)
{
    if (sealed.size() < kNonceBytes + kTagBytes)
        return Status(ErrorCode::IntegrityViolation,
                      "sealed message too short");
    const size_t body_len = sealed.size() - kTagBytes;
    const Digest expected = hmacSha256(secret, sealed.data(), body_len);
    uint8_t diff = 0;
    for (size_t i = 0; i < kTagBytes; ++i)
        diff |= sealed[body_len + i] ^ expected[i];
    if (diff != 0)
        return Status(ErrorCode::IntegrityViolation,
                      "authentication tag mismatch");

    uint64_t nonce = 0;
    for (size_t i = 0; i < kNonceBytes; ++i)
        nonce |= uint64_t(sealed[i]) << (8 * i);
    Bytes plaintext(body_len - kNonceBytes);
    Aes128 cipher(aesKeyFromSecret(secret));
    cipher.ctr(sealed.data() + kNonceBytes, plaintext.size(), nonce,
               plaintext.data());
    return plaintext;
}

} // namespace cronus::crypto
