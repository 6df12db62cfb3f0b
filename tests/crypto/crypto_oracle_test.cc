/** Property tests: the fast symmetric primitives against the slow
 *  reference oracles in reference_crypto.hh, on seeded random
 *  inputs. The oracles are first pinned to the published vectors. */

#include <algorithm>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "crypto/aes.hh"
#include "crypto/sha256.hh"
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
            /* Chunks straddle, fill and skip whole 64-byte blocks. */
            size_t take = std::min<size_t>(msg.size() - pos,
                                           rng.nextBelow(200));
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

} // namespace
} // namespace cronus::crypto
