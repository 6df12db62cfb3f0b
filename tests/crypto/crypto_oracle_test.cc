/** Property tests: the fast crypto primitives against the slow
 *  reference oracles in reference_crypto.hh, on seeded random
 *  inputs. The oracles are first pinned to the published vectors.
 *  The bulk primitives are tested twice: through the public API
 *  (whichever path the host's CPUID picks) and path by path through
 *  crypto/dispatch.hh, so the portable path is covered on hosts with
 *  the extensions and the hardware path wherever the CPU has it.
 *  The sliding-window powMod and the comb for g are held to the
 *  binary square-and-multiply ladder. */

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "crypto/aes.hh"
#include "crypto/dispatch.hh"
#include "crypto/keys.hh"
#include "crypto/sha256.hh"
#include "crypto/uint256.hh"
#include "reference_crypto.hh"

namespace cronus::crypto
{
namespace
{

Bytes
randomBytes(Rng &rng, size_t n)
{
    Bytes b(n);
    rng.fill(b);
    return b;
}

AesKey
randomKey(Rng &rng)
{
    AesKey key;
    for (auto &b : key)
        b = static_cast<uint8_t>(rng.next());
    return key;
}

TEST(ReferenceOracleTest, MatchesPublishedVectors)
{
    /* FIPS-197 Appendix C.1. */
    AesKey key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                  0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
    uint8_t block[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66,
                         0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
                         0xee, 0xff};
    reference::TextbookAes(key).encryptBlock(block);
    EXPECT_EQ(toHex(block, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");

    /* FIPS 180-4 examples. */
    EXPECT_EQ(digestHex(reference::sha256(Bytes{})),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(digestHex(reference::sha256(toBytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");

    /* RFC 4231 test case 2. */
    EXPECT_EQ(digestHex(reference::hmacSha256(
                  toBytes("Jefe"),
                  toBytes("what do ya want for nothing?"))),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(AesOracleTest, RandomBlocksMatchTextbookRounds)
{
    Rng rng(0xae5);
    for (int i = 0; i < 10000; ++i) {
        const AesKey key = randomKey(rng);
        uint8_t fast[16], slow[16];
        for (int j = 0; j < 16; ++j)
            fast[j] = slow[j] = static_cast<uint8_t>(rng.next());
        Aes128(key).encryptBlock(fast);
        reference::TextbookAes(key).encryptBlock(slow);
        ASSERT_EQ(toHex(fast, 16), toHex(slow, 16)) << "pair " << i;
    }
}

TEST(AesOracleTest, CtrMatchesAtUnalignedLengths)
{
    Rng rng(0xc7);
    for (int i = 0; i < 200; ++i) {
        size_t len = 1 + rng.nextBelow(4096);
        if (len % 16 == 0)
            ++len;
        const AesKey key = randomKey(rng);
        const uint64_t nonce = rng.next();
        const Bytes data = randomBytes(rng, len);
        const Bytes expected = reference::aesCtr(key, data, nonce);
        const Aes128 aes(key);
        ASSERT_EQ(aes.ctr(data, nonce), expected) << "length " << len;

        /* The pointer form may run in place. */
        Bytes inplace = data;
        aes.ctr(inplace.data(), inplace.size(), nonce, inplace.data());
        ASSERT_EQ(inplace, expected) << "in place, length " << len;
    }
}

TEST(ShaOracleTest, EveryLengthUpTo300)
{
    Rng rng(0x5a);
    const Bytes data = randomBytes(rng, 300);
    for (size_t len = 0; len <= 300; ++len) {
        const Bytes msg(data.begin(), data.begin() + len);
        ASSERT_EQ(sha256(msg), reference::sha256(msg))
            << "length " << len;
        /* Key lengths cycle through short, block-sized and hashed. */
        const Bytes key = randomBytes(rng, len % 97);
        ASSERT_EQ(hmacSha256(key, msg), reference::hmacSha256(key, msg))
            << "length " << len;
        ASSERT_EQ(hmacSha256(key, msg.data(), msg.size()),
                  reference::hmacSha256(key, msg))
            << "pointer form, length " << len;
    }
}

TEST(ShaOracleTest, RandomUpdateSplitsMatch)
{
    Rng rng(0x59);
    for (int i = 0; i < 300; ++i) {
        const Bytes msg = randomBytes(rng, rng.nextBelow(1500));
        Sha256 ctx;
        size_t pos = 0;
        while (pos < msg.size()) {
            /* Chunks straddle, fill and skip whole 64-byte blocks,
             * up to five in one multi-block compression call. */
            size_t take = std::min<size_t>(msg.size() - pos,
                                           rng.nextBelow(400));
            ctx.update(msg.data() + pos, take);
            pos += take;
        }
        ASSERT_EQ(ctx.finalize(), reference::sha256(msg))
            << "message " << i << " of " << msg.size() << " bytes";
    }
}

TEST(SealOracleTest, SealMatchesReferenceAndOpens)
{
    Rng rng(0x5ea1);
    std::vector<size_t> lengths = {0, 1, 15, 16, 17, 37 * 1024};
    for (int i = 0; i < 40; ++i)
        lengths.push_back(rng.nextBelow(3000));
    for (size_t len : lengths) {
        const Bytes secret = randomBytes(rng, 32);
        const uint64_t nonce = rng.next();
        const Bytes plaintext = randomBytes(rng, len);
        const Bytes sealed = sealMessage(secret, nonce, plaintext);
        ASSERT_EQ(sealed,
                  reference::sealMessage(secret, nonce, plaintext))
            << "length " << len;
        auto opened = openMessage(secret, sealed);
        ASSERT_TRUE(opened.isOk()) << opened.status().toString();
        ASSERT_EQ(opened.value(), plaintext);

        /* A flipped bit anywhere -- nonce, body or tag -- is caught. */
        Bytes tampered = sealed;
        tampered[rng.nextBelow(tampered.size())] ^=
            static_cast<uint8_t>(1u << rng.nextBelow(8));
        EXPECT_EQ(openMessage(secret, tampered).code(),
                  ErrorCode::IntegrityViolation);
    }
}

/* ---- Each implementation of the bulk primitives, by name. ---- */

using Ctr = void (*)(const detail::AesRoundKeys &, const uint8_t *,
                     size_t, uint64_t, uint8_t *);
using Compress = void (*)(uint32_t *, const uint8_t *, size_t);

std::string
pathName(const testing::TestParamInfo<bool> &info)
{
    return info.param ? "hardware" : "portable";
}

/** A nonce whose eight bytes all differ, so a misplaced or
 *  byte-swapped nonce cannot produce the same counter block. */
uint64_t
distinctNonce(Rng &rng)
{
    std::vector<uint8_t> bytes(256);
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<uint8_t>(i);
    rng.shuffle(bytes);
    uint64_t nonce = 0;
    for (int i = 0; i < 8; ++i)
        nonce = (nonce << 8) | bytes[i];
    return nonce;
}

/** SHA-256 of @p msg, padded here and compressed by @p compress.
 *  With @p splits, the blocks go in calls of random counts
 *  (including zero), so the state must carry across calls. */
Digest
hashWith(Compress compress, const Bytes &msg, Rng *splits = nullptr)
{
    Bytes padded = msg;
    padded.push_back(0x80);
    while (padded.size() % 64 != 56)
        padded.push_back(0);
    const uint64_t bits = uint64_t(msg.size()) * 8;
    for (int i = 7; i >= 0; --i)
        padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));

    std::array<uint32_t, 8> state = detail::kSha256Init;
    const size_t blocks = padded.size() / 64;
    for (size_t done = 0; done < blocks;) {
        const size_t n =
            splits ? std::min<size_t>(blocks - done, splits->nextBelow(6))
                   : blocks - done;
        compress(state.data(), padded.data() + 64 * done, n);
        done += n;
    }
    Digest out;
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 4; ++j)
            out[4 * i + j] =
                static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    return out;
}

/** RFC 2104 HMAC over hashWith(@p compress). */
Digest
hmacWith(Compress compress, const Bytes &key, const Bytes &msg)
{
    Bytes k = key.size() > 64 ? digestToBytes(hashWith(compress, key))
                              : key;
    k.resize(64, 0);
    Bytes inner(64), outer(64);
    for (int i = 0; i < 64; ++i) {
        inner[i] = k[i] ^ 0x36;
        outer[i] = k[i] ^ 0x5c;
    }
    inner.insert(inner.end(), msg.begin(), msg.end());
    const Digest inner_digest = hashWith(compress, inner);
    outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
    return hashWith(compress, outer);
}

class AesCtrPathTest : public testing::TestWithParam<bool>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() && !aesNiAvailable())
            GTEST_SKIP() << "this CPU has no AES-NI";
    }

    Ctr ctr() const
    {
        return GetParam() ? detail::aesCtrAesNi : detail::aesCtrPortable;
    }
};

TEST_P(AesCtrPathTest, EveryLengthUpTo300AndSealSize)
{
    Rng rng(0xc7a);
    std::vector<size_t> lengths;
    for (size_t len = 0; len <= 300; ++len)
        lengths.push_back(len);
    lengths.push_back(37 * 1024);
    lengths.push_back(37 * 1024 + 5);
    for (size_t len : lengths) {
        const AesKey key = randomKey(rng);
        const uint64_t nonce = distinctNonce(rng);
        const Bytes data = randomBytes(rng, len);
        const Bytes expected = reference::aesCtr(key, data, nonce);
        const detail::AesRoundKeys rk = detail::expandAesKey(key);

        Bytes out(len);
        ctr()(rk, data.data(), len, nonce, out.data());
        ASSERT_EQ(out, expected) << "length " << len;

        Bytes inplace = data;
        ctr()(rk, inplace.data(), len, nonce, inplace.data());
        ASSERT_EQ(inplace, expected) << "in place, length " << len;
    }
}

INSTANTIATE_TEST_SUITE_P(Paths, AesCtrPathTest, testing::Bool(),
                         pathName);

class ShaPathTest : public testing::TestWithParam<bool>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() && !shaNiAvailable())
            GTEST_SKIP() << "this CPU has no SHA-NI";
    }

    Compress compress() const
    {
        return GetParam() ? detail::sha256CompressShaNi
                          : detail::sha256CompressPortable;
    }
};

TEST_P(ShaPathTest, EveryLengthUpTo300)
{
    Rng rng(0x5a7);
    const Bytes data = randomBytes(rng, 300);
    for (size_t len = 0; len <= 300; ++len) {
        const Bytes msg(data.begin(), data.begin() + len);
        ASSERT_EQ(hashWith(compress(), msg), reference::sha256(msg))
            << "length " << len;
        /* Key lengths cycle through short, block-sized and hashed. */
        const Bytes key = randomBytes(rng, len % 97);
        ASSERT_EQ(hmacWith(compress(), key, msg),
                  reference::hmacSha256(key, msg))
            << "length " << len;
    }
}

TEST_P(ShaPathTest, RandomMultiBlockSplitsMatch)
{
    Rng rng(0x5b1);
    for (int i = 0; i < 200; ++i) {
        const Bytes msg = randomBytes(rng, rng.nextBelow(2000));
        ASSERT_EQ(hashWith(compress(), msg, &rng),
                  reference::sha256(msg))
            << "message " << i << " of " << msg.size() << " bytes";
    }
}

INSTANTIATE_TEST_SUITE_P(Paths, ShaPathTest, testing::Bool(), pathName);

/** sealMessage's wire format from one path's CTR and HMAC; it must
 *  equal the reference and the dispatched seal byte for byte, and
 *  openMessage must return the plaintext. */
class SealPathTest : public testing::TestWithParam<bool>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() && !(aesNiAvailable() && shaNiAvailable()))
            GTEST_SKIP() << "this CPU lacks AES-NI or SHA-NI";
    }
};

TEST_P(SealPathTest, RoundTripsByteEqual)
{
    const Ctr ctr =
        GetParam() ? detail::aesCtrAesNi : detail::aesCtrPortable;
    const Compress compress = GetParam() ? detail::sha256CompressShaNi
                                         : detail::sha256CompressPortable;
    Rng rng(0x5ea2);
    std::vector<size_t> lengths = {0, 1, 15, 16, 17, 63, 64, 65,
                                   37 * 1024};
    for (int i = 0; i < 20; ++i)
        lengths.push_back(rng.nextBelow(3000));
    for (size_t len : lengths) {
        const Bytes secret = randomBytes(rng, 32);
        const uint64_t nonce = distinctNonce(rng);
        const Bytes plaintext = randomBytes(rng, len);

        Bytes material = toBytes("cronus-aes:");
        material.insert(material.end(), secret.begin(), secret.end());
        const Digest key_digest = hashWith(compress, material);
        AesKey key;
        std::copy_n(key_digest.begin(), key.size(), key.begin());

        Bytes sealed(8 + len);
        for (int b = 0; b < 8; ++b)
            sealed[b] = static_cast<uint8_t>(nonce >> (8 * b));
        ctr(detail::expandAesKey(key), plaintext.data(), len, nonce,
            sealed.data() + 8);
        const Digest tag = hmacWith(compress, secret, sealed);
        sealed.insert(sealed.end(), tag.begin(), tag.end());

        ASSERT_EQ(sealed,
                  reference::sealMessage(secret, nonce, plaintext))
            << "length " << len;
        ASSERT_EQ(sealed, sealMessage(secret, nonce, plaintext))
            << "length " << len;
        auto opened = openMessage(secret, sealed);
        ASSERT_TRUE(opened.isOk()) << opened.status().toString();
        ASSERT_EQ(opened.value(), plaintext) << "length " << len;
    }
}

INSTANTIATE_TEST_SUITE_P(Paths, SealPathTest, testing::Bool(),
                         pathName);

/* ---- Exponentiation: window and comb against the ladder. ---- */

U256
randomU256(Rng &rng)
{
    return U256::fromBytesBE(randomBytes(rng, 32));
}

U256
pow2(int k)
{
    std::array<uint64_t, 4> limbs{};
    limbs[k / 64] = uint64_t(1) << (k % 64);
    return U256(limbs);
}

/** 0, 1, 2^k and 2^k - 1 for every k, p - 2, p - 1, p, 2^256 - 1,
 *  one nonzero nibble at every position, and random values with a
 *  run of 5-124 bits cleared at a random place. */
std::vector<U256>
edgeExponents(Rng &rng)
{
    const U256 &p = groupPrime();
    std::vector<U256> out = {U256(0), U256(1), p - U256(2),
                             p - U256(1), p, U256(0) - U256(1)};
    for (int k = 0; k < 256; ++k) {
        out.push_back(pow2(k));
        out.push_back(pow2(k) - U256(1));
    }
    for (int i = 0; i < 64; ++i) {
        std::array<uint64_t, 4> limbs{};
        limbs[i / 16] = uint64_t(1 + rng.nextBelow(15)) << (4 * (i % 16));
        out.push_back(U256(limbs));
    }
    for (int i = 0; i < 64; ++i) {
        std::array<uint64_t, 4> limbs = randomU256(rng).raw();
        const int len = 5 + int(rng.nextBelow(120));
        const int lo = int(rng.nextBelow(256 - len));
        for (int b = lo; b < lo + len; ++b)
            limbs[b / 64] &= ~(uint64_t(1) << (b % 64));
        out.push_back(U256(limbs));
    }
    return out;
}

TEST(ExpOracleTest, MulModMatchesInt128)
{
    /* An oracle for the reduction under both exponentiations. */
    Rng rng(0x128);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t m = rng.next() >> rng.nextBelow(64);
        if (m == 0)
            continue;
        const uint64_t a = rng.next() % m, b = rng.next() % m;
        const uint64_t want =
            static_cast<uint64_t>((unsigned __int128)a * b % m);
        ASSERT_EQ(U256::mulMod(U256(a), U256(b), U256(m)), U256(want))
            << a << " * " << b << " mod " << m;
    }
}

/* Every exponentiation here costs ~300 256-bit mulMods of a few
 * microseconds each, so the random sweeps are hundreds, not 10^4. */

TEST(ExpOracleTest, CombMatchesLadderOnRandomExponents)
{
    Rng rng(0xe4b);
    for (int i = 0; i < 600; ++i) {
        const U256 x = randomU256(rng);
        ASSERT_EQ(groupPow(x),
                  reference::powMod(groupGenerator(), x, groupPrime()))
            << "x = " << x.toHex();
    }
}

TEST(ExpOracleTest, CombMatchesLadderOnEdgeExponents)
{
    Rng rng(0xed9);
    std::vector<U256> exponents = edgeExponents(rng);
    /* Every nibble value at every position: each table entry alone. */
    for (int i = 0; i < 64; ++i) {
        for (uint64_t v = 1; v < 16; ++v) {
            std::array<uint64_t, 4> limbs{};
            limbs[i / 16] = v << (4 * (i % 16));
            exponents.push_back(U256(limbs));
        }
    }
    for (const U256 &x : exponents) {
        ASSERT_EQ(groupPow(x),
                  reference::powMod(groupGenerator(), x, groupPrime()))
            << "x = " << x.toHex();
    }
}

TEST(ExpOracleTest, WindowMatchesLadderOnRandomExponents)
{
    Rng rng(0x3d1);
    const U256 &p = groupPrime();
    for (int i = 0; i < 300; ++i) {
        /* Full-size bases mod p and p - 1, small ones, and random
         * odd or even moduli. */
        const U256 m = i % 3 == 0   ? p
                       : i % 3 == 1 ? p - U256(1)
                                    : randomU256(rng) + U256(1);
        const U256 b = i % 10 == 0 ? U256(rng.next()) : randomU256(rng);
        const U256 x = randomU256(rng);
        ASSERT_EQ(U256::powMod(b, x, m), reference::powMod(b, x, m))
            << b.toHex() << " ^ " << x.toHex() << " mod " << m.toHex();
    }
}

TEST(ExpOracleTest, WindowMatchesLadderOnEdgeExponents)
{
    Rng rng(0xeda);
    const U256 &p = groupPrime();
    const U256 base = randomU256(rng);
    for (const U256 &x : edgeExponents(rng)) {
        ASSERT_EQ(U256::powMod(base, x, p), reference::powMod(base, x, p))
            << "x = " << x.toHex();
    }
}

TEST(ExpOracleTest, WindowMatchesLadderOnEdgeBasesAndModuli)
{
    Rng rng(0x30d);
    const U256 &p = groupPrime();
    std::vector<U256> moduli = {p, p - U256(1), U256(97), U256(1)};
    for (int i = 0; i < 8; ++i) {
        const U256 m = randomU256(rng);
        moduli.push_back(m + U256(m.bit(0) ? 0 : 1)); /* odd */
        moduli.push_back(m - U256(m.bit(0) ? 1 : 0)); /* even */
    }
    std::vector<U256> exponents = {U256(0), U256(1), U256(2),
                                   p - U256(1), U256(0) - U256(1)};
    for (int i = 0; i < 4; ++i)
        exponents.push_back(randomU256(rng));
    for (const U256 &m : moduli) {
        ASSERT_FALSE(m.isZero());
        /* 0, 1, 2, m - 1, and bases at or above the modulus. */
        const std::vector<U256> bases = {
            U256(0), U256(1), U256(2), m - U256(1), m, m + U256(5),
            U256(0) - U256(1), randomU256(rng)};
        for (const U256 &b : bases) {
            for (const U256 &x : exponents) {
                ASSERT_EQ(U256::powMod(b, x, m), reference::powMod(b, x, m))
                    << b.toHex() << " ^ " << x.toHex() << " mod "
                    << m.toHex();
            }
        }
    }
}

} // namespace
} // namespace cronus::crypto
