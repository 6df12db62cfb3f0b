/**
 * @file
 * Key types, Diffie-Hellman key agreement and Schnorr signatures.
 *
 * The group is the multiplicative group mod p = 2^255 - 19 with
 * generator g = 2. Signatures are classic Schnorr with a
 * deterministic (hash-derived) nonce; DH is textbook finite-field DH.
 * These are real algorithms at small-but-real parameters -- enough
 * that any bit of tampering with signed material is detected by
 * tests, which is the property CRONUS's protocols rely on.
 */

#ifndef CRONUS_CRYPTO_KEYS_HH
#define CRONUS_CRYPTO_KEYS_HH

#include <string>

#include "base/bytes.hh"
#include "base/rng.hh"
#include "sha256.hh"
#include "uint256.hh"

namespace cronus::crypto
{

/** The field prime p = 2^255 - 19. */
const U256 &groupPrime();
/** Group order used for exponents (p - 1). */
const U256 &groupOrder();
/** Generator g = 2. */
const U256 &groupGenerator();

/** g^@p exponent mod p, equal to U256::powMod(g, exponent, p). Reads
 *  a fixed-base comb table (g^(j * 16^i) for each nibble position i
 *  and value j, built on first use): one multiply per nonzero nibble,
 *  at most 64, instead of ~256 squarings. */
U256 groupPow(const U256 &exponent);

/** A private scalar. */
struct PrivateKey
{
    U256 scalar;

    bool operator==(const PrivateKey &o) const
    {
        return scalar == o.scalar;
    }
};

/** A public group element g^x. */
struct PublicKey
{
    U256 element;

    Bytes toBytes() const { return element.toBytesBE(); }
    static PublicKey fromBytes(const Bytes &b)
    {
        return PublicKey{U256::fromBytesBE(b)};
    }

    bool operator==(const PublicKey &o) const
    {
        return element == o.element;
    }
};

/** A key pair. */
struct KeyPair
{
    PrivateKey priv;
    PublicKey pub;
};

/** Schnorr signature (commitment R, response s). */
struct Signature
{
    U256 commitment;
    U256 response;

    Bytes toBytes() const;
    static Result<Signature> fromBytes(const Bytes &b);

    bool operator==(const Signature &o) const
    {
        return commitment == o.commitment && response == o.response;
    }
};

/** Generate a key pair from deterministic randomness. */
KeyPair generateKeyPair(Rng &rng);

/** Derive a key pair from seed bytes (for ROM-stored root keys). */
KeyPair deriveKeyPair(const Bytes &seed);

/** Sign @p message with @p keys (deterministic nonce). The public
 *  half enters the challenge, so it must match the private half. */
Signature sign(const KeyPair &keys, const Bytes &message);

/** Sign with the private scalar alone: rebuilds the public key with
 *  one more groupPow per call (at most 64 multiplies), so callers
 *  holding a KeyPair use the form above. */
Signature sign(const PrivateKey &key, const Bytes &message);

/** Verify a signature. Only the canonical form verifies: commitment
 *  in [1, p) and response below the group order. */
bool verify(const PublicKey &key, const Bytes &message,
            const Signature &sig);

/** Diffie-Hellman: derive the shared secret from our private key and
 *  the peer's public element. Returned as a 32-byte symmetric key
 *  (hash of the shared group element). */
Bytes dhSharedSecret(const PrivateKey &mine, const PublicKey &theirs);

} // namespace cronus::crypto

#endif // CRONUS_CRYPTO_KEYS_HH
