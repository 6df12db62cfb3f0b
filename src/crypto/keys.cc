#include "keys.hh"

#include "base/logging.hh"

namespace cronus::crypto
{

const U256 &
groupPrime()
{
    /* p = 2^255 - 19 */
    static const U256 p = U256::fromHex(
        "7fffffffffffffffffffffffffffffff"
        "ffffffffffffffffffffffffffffffed").value();
    return p;
}

const U256 &
groupOrder()
{
    /* exponents live mod p - 1 */
    static const U256 order = groupPrime() - U256(1);
    return order;
}

const U256 &
groupGenerator()
{
    static const U256 g(2);
    return g;
}

namespace
{

/** Fixed-base comb: table[i][j] = g^(j * 16^i) mod p, one row per
 *  nibble of a 256-bit exponent (32 KiB, ~1k mulMods to build). */
using CombTable = std::array<std::array<U256, 16>, 64>;

const CombTable &
combTable()
{
    static const CombTable table = [] {
        CombTable t;
        U256 base = groupGenerator();
        for (auto &row : t) {
            row[0] = U256(1);
            row[1] = base;
            for (size_t j = 2; j < row.size(); ++j)
                row[j] = U256::mulMod(row[j - 1], base, groupPrime());
            base = U256::mulMod(row[15], base, groupPrime());
        }
        return t;
    }();
    return table;
}

/** Map arbitrary bytes to a nonzero exponent mod the group order. */
U256
hashToScalar(const Bytes &data)
{
    Digest d = sha256(data);
    U256 v = U256::fromBytesBE(digestToBytes(d));
    v = U256::reduce(v, groupOrder());
    if (v.isZero())
        v = U256(1);
    return v;
}

} // namespace

U256
groupPow(const U256 &exponent)
{
    const CombTable &table = combTable();
    U256 result(1);
    for (size_t i = 0; i < table.size(); ++i) {
        const unsigned nibble =
            (exponent.raw()[i / 16] >> (4 * (i % 16))) & 0xf;
        if (nibble != 0)
            result = U256::mulMod(result, table[i][nibble], groupPrime());
    }
    return result;
}

KeyPair
generateKeyPair(Rng &rng)
{
    Bytes seed(32);
    rng.fill(seed);
    return deriveKeyPair(seed);
}

KeyPair
deriveKeyPair(const Bytes &seed)
{
    Bytes material = toBytes("cronus-keygen:");
    material.insert(material.end(), seed.begin(), seed.end());
    U256 x = hashToScalar(material);
    return KeyPair{PrivateKey{x}, PublicKey{groupPow(x)}};
}

Bytes
Signature::toBytes() const
{
    ByteWriter w;
    w.putBytes(commitment.toBytesBE());
    w.putBytes(response.toBytesBE());
    return w.take();
}

Result<Signature>
Signature::fromBytes(const Bytes &b)
{
    ByteReader r(b);
    auto commitment = r.getBytes();
    if (!commitment.isOk())
        return commitment.status();
    auto response = r.getBytes();
    if (!response.isOk())
        return response.status();
    if (commitment.value().size() != 32 ||
        response.value().size() != 32)
        return Status(ErrorCode::InvalidArgument,
                      "bad signature encoding");
    return Signature{U256::fromBytesBE(commitment.value()),
                     U256::fromBytesBE(response.value())};
}

namespace
{

/** Fiat-Shamir challenge e = H(R || pub || m) mod order. */
U256
challenge(const U256 &commitment, const PublicKey &pub,
          const Bytes &message)
{
    Bytes data = toBytes("cronus-schnorr:");
    Bytes r_bytes = commitment.toBytesBE();
    Bytes p_bytes = pub.element.toBytesBE();
    data.insert(data.end(), r_bytes.begin(), r_bytes.end());
    data.insert(data.end(), p_bytes.begin(), p_bytes.end());
    data.insert(data.end(), message.begin(), message.end());
    return hashToScalar(data);
}

} // namespace

Signature
sign(const KeyPair &keys, const Bytes &message)
{
    const PrivateKey &key = keys.priv;
    /* Deterministic nonce k = H(x || m). */
    Bytes nonce_material = toBytes("cronus-nonce:");
    Bytes x_bytes = key.scalar.toBytesBE();
    nonce_material.insert(nonce_material.end(), x_bytes.begin(),
                          x_bytes.end());
    nonce_material.insert(nonce_material.end(), message.begin(),
                          message.end());
    U256 k = hashToScalar(nonce_material);

    U256 commitment = groupPow(k);
    U256 e = challenge(commitment, keys.pub, message);
    /* s = k + e * x mod order */
    U256 ex = U256::mulMod(e, key.scalar, groupOrder());
    U256 s = U256::addMod(U256::reduce(k, groupOrder()), ex,
                          groupOrder());
    return Signature{commitment, s};
}

Signature
sign(const PrivateKey &key, const Bytes &message)
{
    return sign(KeyPair{key, PublicKey{groupPow(key.scalar)}}, message);
}

bool
verify(const PublicKey &key, const Bytes &message,
       const Signature &sig)
{
    /* Only the canonical encoding verifies: s + (p - 1) would pass
     * the equation too, since g^(p-1) = 1. */
    if (sig.commitment.isZero() || sig.commitment >= groupPrime() ||
        sig.response >= groupOrder() || key.element.isZero())
        return false;
    U256 e = challenge(sig.commitment, key, message);
    /* g^s ?= R * y^e (mod p) */
    U256 ye = U256::powMod(key.element, e, groupPrime());
    return groupPow(sig.response) ==
           U256::mulMod(sig.commitment, ye, groupPrime());
}

Bytes
dhSharedSecret(const PrivateKey &mine, const PublicKey &theirs)
{
    U256 shared = U256::powMod(theirs.element, mine.scalar,
                               groupPrime());
    Bytes material = toBytes("cronus-dh:");
    Bytes s_bytes = shared.toBytesBE();
    material.insert(material.end(), s_bytes.begin(), s_bytes.end());
    return digestToBytes(sha256(material));
}

} // namespace cronus::crypto
