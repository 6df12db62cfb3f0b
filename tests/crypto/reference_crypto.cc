#include "reference_crypto.hh"

#include <array>
#include <cstring>

namespace cronus::crypto::reference
{

namespace
{

/* ---------------- AES-128 (FIPS-197 section 5.1) ---------------- */

uint8_t
xtime(uint8_t x)
{
    return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

/** Multiplication in GF(2^8) mod x^8 + x^4 + x^3 + x + 1. */
uint8_t
gmul(uint8_t a, uint8_t b)
{
    uint8_t product = 0;
    for (; b != 0; b >>= 1, a = xtime(a)) {
        if (b & 1)
            product ^= a;
    }
    return product;
}

uint8_t
rotl8(uint8_t x, int n)
{
    return static_cast<uint8_t>((x << n) | (x >> (8 - n)));
}

/** S(x) = affine(x^-1), with 0 mapping to 0 before the affine map. */
std::array<uint8_t, 256>
deriveSbox()
{
    std::array<uint8_t, 256> sbox{};
    for (int x = 0; x < 256; ++x) {
        /* x^254 = x^-1 in GF(2^8)*. */
        uint8_t inv = 1;
        for (int i = 0; i < 254; ++i)
            inv = gmul(inv, static_cast<uint8_t>(x));
        if (x == 0)
            inv = 0;
        sbox[x] = static_cast<uint8_t>(inv ^ rotl8(inv, 1) ^
                                       rotl8(inv, 2) ^ rotl8(inv, 3) ^
                                       rotl8(inv, 4) ^ 0x63);
    }
    return sbox;
}

const std::array<uint8_t, 256> &
sbox()
{
    static const std::array<uint8_t, 256> table = deriveSbox();
    return table;
}

/** Key expansion into 11 round keys of 16 bytes. */
std::array<uint8_t, 176>
expandKey(const AesKey &key)
{
    const auto &s = sbox();
    std::array<uint8_t, 176> w{};
    std::memcpy(w.data(), key.data(), 16);
    uint8_t rcon = 0x01;
    for (int i = 4; i < 44; ++i) {
        uint8_t temp[4];
        std::memcpy(temp, w.data() + (i - 1) * 4, 4);
        if (i % 4 == 0) {
            uint8_t t = temp[0];
            temp[0] = static_cast<uint8_t>(s[temp[1]] ^ rcon);
            temp[1] = s[temp[2]];
            temp[2] = s[temp[3]];
            temp[3] = s[t];
            rcon = xtime(rcon);
        }
        for (int j = 0; j < 4; ++j)
            w[i * 4 + j] = static_cast<uint8_t>(w[(i - 4) * 4 + j] ^
                                                temp[j]);
    }
    return w;
}

void
encryptWithSchedule(const std::array<uint8_t, 176> &round_keys,
                    uint8_t block[16])
{
    const auto &s = sbox();
    auto add_round_key = [&](int round) {
        for (int i = 0; i < 16; ++i)
            block[i] ^= round_keys[round * 16 + i];
    };
    auto sub_bytes = [&]() {
        for (int i = 0; i < 16; ++i)
            block[i] = s[block[i]];
    };
    auto shift_rows = [&]() {
        uint8_t tmp[16];
        std::memcpy(tmp, block, 16);
        /* column-major state: byte r + 4c */
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c)
                block[r + 4 * c] = tmp[r + 4 * ((c + r) % 4)];
        }
    };
    auto mix_columns = [&]() {
        for (int c = 0; c < 4; ++c) {
            uint8_t *col = block + 4 * c;
            uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
            col[0] = static_cast<uint8_t>(
                xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
            col[1] = static_cast<uint8_t>(
                a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
            col[2] = static_cast<uint8_t>(
                a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
            col[3] = static_cast<uint8_t>(
                (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
        }
    };

    add_round_key(0);
    for (int round = 1; round < 10; ++round) {
        sub_bytes();
        shift_rows();
        mix_columns();
        add_round_key(round);
    }
    sub_bytes();
    shift_rows();
    add_round_key(10);
}

/* ---------------- SHA-256 (FIPS 180-4 section 6.2) ---------------- */

/** floor(v^(1/n)) for n = 2 or 3, by bisection. */
uint64_t
integerRoot(unsigned __int128 v, int n)
{
    uint64_t lo = 0, hi = uint64_t(1) << 40;
    while (lo < hi) {
        uint64_t mid = lo + (hi - lo + 1) / 2;
        unsigned __int128 p = mid;
        for (int i = 1; i < n; ++i)
            p *= mid;
        if (p <= v)
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

/** First 32 fractional bits of the n-th root of each of the first
 *  @p count primes (section 4.2.2 and 5.3.3). */
template <size_t count>
std::array<uint32_t, count>
primeRootFractions(int n)
{
    std::array<uint32_t, count> out{};
    size_t found = 0;
    for (uint64_t p = 2; found < count; ++p) {
        bool prime = true;
        for (uint64_t d = 2; d * d <= p; ++d)
            prime = prime && p % d != 0;
        if (!prime)
            continue;
        /* root(p * 2^(32n)) = root(p) * 2^32. */
        out[found++] = static_cast<uint32_t>(
            integerRoot((unsigned __int128)p << (32 * n), n));
    }
    return out;
}

uint32_t
rotr(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

void
compress(std::array<uint32_t, 8> &state, const uint8_t *block)
{
    static const auto k = primeRootFractions<64>(3);
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (uint32_t(block[i * 4]) << 24) |
               (uint32_t(block[i * 4 + 1]) << 16) |
               (uint32_t(block[i * 4 + 2]) << 8) |
               uint32_t(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                      (w[i - 15] >> 3);
        uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                      (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
        uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        uint32_t ch = (e & f) ^ (~e & g);
        uint32_t temp1 = h + s1 + ch + k[i] + w[i];
        uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t temp2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + temp1;
        d = c;
        c = b;
        b = a;
        a = temp1 + temp2;
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

} // namespace

TextbookAes::TextbookAes(const AesKey &key) : roundKeys(expandKey(key))
{
}

void
TextbookAes::encryptBlock(uint8_t block[16]) const
{
    encryptWithSchedule(roundKeys, block);
}

Bytes
aesCtr(const AesKey &key, const Bytes &data, uint64_t nonce)
{
    const TextbookAes aes(key);
    Bytes out(data.size());
    for (size_t offset = 0; offset < data.size(); offset += 16) {
        uint64_t counter = offset / 16;
        uint8_t block[16];
        for (int i = 0; i < 8; ++i) {
            block[i] = (nonce >> (56 - 8 * i)) & 0xff;
            block[8 + i] = (counter >> (56 - 8 * i)) & 0xff;
        }
        aes.encryptBlock(block);
        for (size_t i = 0; i < 16 && offset + i < data.size(); ++i)
            out[offset + i] = data[offset + i] ^ block[i];
    }
    return out;
}

Digest
sha256(const Bytes &data)
{
    /* Pad: 0x80, zeros to 56 mod 64, then the bit length (BE). */
    Bytes msg = data;
    msg.push_back(0x80);
    while (msg.size() % 64 != 56)
        msg.push_back(0);
    const uint64_t bits = uint64_t(data.size()) * 8;
    for (int i = 7; i >= 0; --i)
        msg.push_back(static_cast<uint8_t>(bits >> (8 * i)));

    std::array<uint32_t, 8> state = primeRootFractions<8>(2);
    for (size_t off = 0; off < msg.size(); off += 64)
        compress(state, msg.data() + off);

    Digest out;
    for (int i = 0; i < 32; ++i)
        out[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
    return out;
}

Digest
hmacSha256(const Bytes &key, const Bytes &message)
{
    Bytes k = key;
    if (k.size() > 64) {
        Digest kd = sha256(k);
        k.assign(kd.begin(), kd.end());
    }
    k.resize(64, 0);
    Bytes inner, outer;
    for (uint8_t b : k) {
        inner.push_back(b ^ 0x36);
        outer.push_back(b ^ 0x5c);
    }
    inner.insert(inner.end(), message.begin(), message.end());
    Digest inner_digest = sha256(inner);
    outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
    return sha256(outer);
}

Bytes
sealMessage(const Bytes &secret, uint64_t nonce, const Bytes &plaintext)
{
    Bytes material = toBytes("cronus-aes:");
    material.insert(material.end(), secret.begin(), secret.end());
    Digest kd = sha256(material);
    AesKey key;
    std::memcpy(key.data(), kd.data(), key.size());

    Bytes out;
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(nonce >> (8 * i)));
    Bytes ciphertext = aesCtr(key, plaintext, nonce);
    out.insert(out.end(), ciphertext.begin(), ciphertext.end());
    Digest tag = hmacSha256(secret, out);
    out.insert(out.end(), tag.begin(), tag.end());
    return out;
}

} // namespace cronus::crypto::reference
