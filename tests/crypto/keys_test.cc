/** Tests for DH key agreement and Schnorr signatures. */

#include <gtest/gtest.h>

#include "crypto/keys.hh"

namespace cronus::crypto
{
namespace
{

TEST(KeysTest, DeriveIsDeterministic)
{
    KeyPair a = deriveKeyPair(toBytes("seed-1"));
    KeyPair b = deriveKeyPair(toBytes("seed-1"));
    KeyPair c = deriveKeyPair(toBytes("seed-2"));
    EXPECT_TRUE(a.pub == b.pub);
    EXPECT_FALSE(a.pub == c.pub);
}

TEST(KeysTest, PublicMatchesPrivate)
{
    Rng rng(3);
    KeyPair kp = generateKeyPair(rng);
    U256 y = U256::powMod(groupGenerator(), kp.priv.scalar,
                          groupPrime());
    EXPECT_TRUE(kp.pub.element == y);
    EXPECT_TRUE(groupPow(kp.priv.scalar) == y);
}

TEST(KeysTest, SignVerifyRoundTrip)
{
    Rng rng(7);
    KeyPair kp = generateKeyPair(rng);
    Bytes msg = toBytes("attestation report");
    Signature sig = sign(kp, msg);
    EXPECT_TRUE(verify(kp.pub, msg, sig));
}

TEST(KeysTest, SignFromPrivateKeyMatchesKeyPair)
{
    /* The private-key form rebuilds the public key; the signature
     * (deterministic nonce) must be the same either way. */
    Rng rng(11);
    KeyPair kp = generateKeyPair(rng);
    Bytes msg = toBytes("endorsement");
    EXPECT_EQ(sign(kp.priv, msg), sign(kp, msg));
}

TEST(KeysTest, VerifyRejectsTamperedMessage)
{
    Rng rng(7);
    KeyPair kp = generateKeyPair(rng);
    Bytes msg = toBytes("attestation report");
    Signature sig = sign(kp, msg);
    Bytes tampered = msg;
    tampered[0] ^= 1;
    EXPECT_FALSE(verify(kp.pub, tampered, sig));
}

TEST(KeysTest, VerifyRejectsWrongKey)
{
    Rng rng(7);
    KeyPair kp = generateKeyPair(rng);
    KeyPair other = generateKeyPair(rng);
    Bytes msg = toBytes("hello");
    Signature sig = sign(kp, msg);
    EXPECT_FALSE(verify(other.pub, msg, sig));
}

TEST(KeysTest, VerifyRejectsTamperedSignature)
{
    Rng rng(9);
    KeyPair kp = generateKeyPair(rng);
    Bytes msg = toBytes("hello");
    Signature sig = sign(kp, msg);

    Signature bad_r = sig;
    bad_r.commitment = U256::addMod(bad_r.commitment, U256(1),
                                    groupPrime());
    EXPECT_FALSE(verify(kp.pub, msg, bad_r));

    Signature bad_s = sig;
    bad_s.response = U256::addMod(bad_s.response, U256(1),
                                  groupOrder());
    EXPECT_FALSE(verify(kp.pub, msg, bad_s));
}

/** Schnorr's challenge rebuilt from its definition: H("cronus-schnorr:"
 *  || R || y || m) mod (p - 1), with zero mapped to 1. */
U256
challengeOf(const U256 &commitment, const PublicKey &pub,
            const Bytes &message)
{
    Bytes data = toBytes("cronus-schnorr:");
    for (const Bytes &part : {commitment.toBytesBE(), pub.toBytes(), message})
        data.insert(data.end(), part.begin(), part.end());
    U256 e = U256::reduce(U256::fromBytesBE(digestToBytes(sha256(data))),
                          groupOrder());
    return e.isZero() ? U256(1) : e;
}

TEST(KeysTest, VerifyRejectsNonCanonicalSignature)
{
    Rng rng(19);
    KeyPair kp = generateKeyPair(rng);
    Bytes msg = toBytes("placement");
    Signature sig = sign(kp, msg);
    ASSERT_TRUE(verify(kp.pub, msg, sig));
    ASSERT_LT(sig.response, groupOrder());

    /* s + (p - 1) satisfies g^s = R * y^e as well, since g^(p-1) = 1:
     * same signature, other bytes. Only the canonical one verifies. */
    Signature shifted = sig;
    shifted.response = sig.response + groupOrder();
    EXPECT_EQ(groupPow(shifted.response), groupPow(sig.response));
    EXPECT_NE(shifted.toBytes(), sig.toBytes());
    EXPECT_FALSE(verify(kp.pub, msg, shifted));

    /* A signer who picks its own nonce k can answer the challenge for
     * R + p too, which reduces to R = g^k. Only R itself verifies. */
    const U256 k(12345);
    auto answer = [&](const U256 &commitment) {
        const U256 e = challengeOf(commitment, kp.pub, msg);
        return Signature{
            commitment,
            U256::addMod(k, U256::mulMod(e, kp.priv.scalar, groupOrder()),
                         groupOrder())};
    };
    EXPECT_TRUE(verify(kp.pub, msg, answer(groupPow(k))));
    EXPECT_FALSE(verify(kp.pub, msg, answer(groupPow(k) + groupPrime())));
}

TEST(KeysTest, SignatureSerializationRoundTrip)
{
    Rng rng(11);
    KeyPair kp = generateKeyPair(rng);
    Signature sig = sign(kp, toBytes("m"));
    auto back = Signature::fromBytes(sig.toBytes());
    ASSERT_TRUE(back.isOk());
    EXPECT_TRUE(back.value() == sig);

    Bytes garbage = {1, 2, 3};
    EXPECT_FALSE(Signature::fromBytes(garbage).isOk());
}

TEST(KeysTest, DhSharedSecretAgrees)
{
    Rng rng(13);
    KeyPair alice = generateKeyPair(rng);
    KeyPair bob = generateKeyPair(rng);
    Bytes s1 = dhSharedSecret(alice.priv, bob.pub);
    Bytes s2 = dhSharedSecret(bob.priv, alice.pub);
    EXPECT_EQ(toHex(s1), toHex(s2));
    EXPECT_EQ(s1.size(), 32u);
}

TEST(KeysTest, DhSecretDiffersAcrossPeers)
{
    Rng rng(17);
    KeyPair alice = generateKeyPair(rng);
    KeyPair bob = generateKeyPair(rng);
    KeyPair eve = generateKeyPair(rng);
    Bytes ab = dhSharedSecret(alice.priv, bob.pub);
    Bytes ae = dhSharedSecret(alice.priv, eve.pub);
    EXPECT_NE(toHex(ab), toHex(ae));
}

/** Property sweep: sign/verify across many random keys/messages. */
class SignPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SignPropertyTest, RoundTripAndSingleBitTamper)
{
    Rng rng(GetParam());
    KeyPair kp = generateKeyPair(rng);
    Bytes msg(64);
    rng.fill(msg);
    Signature sig = sign(kp, msg);
    ASSERT_TRUE(verify(kp.pub, msg, sig));

    /* Flip one random bit of the message: must be rejected. */
    Bytes tampered = msg;
    size_t byte = rng.nextBelow(tampered.size());
    tampered[byte] ^= uint8_t(1 << rng.nextBelow(8));
    EXPECT_FALSE(verify(kp.pub, tampered, sig));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SignPropertyTest,
                         ::testing::Range<uint64_t>(100, 110));

} // namespace
} // namespace cronus::crypto
