/** Unit and property tests for 256-bit modular arithmetic. */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "crypto/keys.hh"
#include "crypto/uint256.hh"

namespace cronus::crypto
{
namespace
{

U256
randomU256(Rng &rng)
{
    Bytes b(32);
    rng.fill(b);
    return U256::fromBytesBE(b);
}

TEST(U256Test, HexRoundTrip)
{
    auto v = U256::fromHex("deadbeef");
    ASSERT_TRUE(v.isOk());
    EXPECT_EQ(v.value().toHex(),
              "00000000000000000000000000000000"
              "000000000000000000000000deadbeef");
}

TEST(U256Test, HexRoundTripFull)
{
    std::string hex =
        "0123456789abcdef0123456789abcdef"
        "0123456789abcdef0123456789abcdef";
    auto v = U256::fromHex(hex);
    ASSERT_TRUE(v.isOk());
    EXPECT_EQ(v.value().toHex(), hex);
}

TEST(U256Test, ComparisonAndZero)
{
    EXPECT_TRUE(U256().isZero());
    EXPECT_FALSE(U256(1).isZero());
    EXPECT_TRUE(U256(3) < U256(5));
    EXPECT_FALSE(U256(5) < U256(3));
    EXPECT_TRUE(U256(7) >= U256(7));
}

TEST(U256Test, AddSubSmall)
{
    U256 a(100), b(42);
    EXPECT_EQ((a + b).toHex(), U256(142).toHex());
    EXPECT_EQ((a - b).toHex(), U256(58).toHex());
}

TEST(U256Test, AddCarryPropagates)
{
    auto max64 = U256::fromHex("ffffffffffffffff").value();
    U256 sum = max64 + U256(1);
    EXPECT_EQ(sum.toHex(),
              "00000000000000000000000000000000"
              "00000000000000010000000000000000");
}

TEST(U256Test, HighestBit)
{
    EXPECT_EQ(U256().highestBit(), -1);
    EXPECT_EQ(U256(1).highestBit(), 0);
    EXPECT_EQ(U256(0x80).highestBit(), 7);
    auto top = U256::fromHex(
        "8000000000000000000000000000000000000000"
        "000000000000000000000000").value();
    EXPECT_EQ(top.highestBit(), 255);

    /* Every position, with random bits below it. */
    Rng rng(0xb17);
    for (int k = 0; k < 256; ++k) {
        std::array<uint64_t, 4> limbs = randomU256(rng).raw();
        limbs[k / 64] |= uint64_t(1) << (k % 64);
        for (int b = k + 1; b < 256; ++b)
            limbs[b / 64] &= ~(uint64_t(1) << (b % 64));
        EXPECT_EQ(U256(limbs).highestBit(), k) << "k = " << k;
    }
}

TEST(U256Test, MulModSmall)
{
    U256 mod(1000003);
    U256 r = U256::mulMod(U256(123456), U256(654321), mod);
    /* 123456 * 654321 mod 1000003 = 80779853376 mod 1000003 */
    uint64_t expect = (123456ULL * 654321ULL) % 1000003ULL;
    EXPECT_EQ(r.toHex(), U256(expect).toHex());
}

TEST(U256Test, PowModSmall)
{
    U256 mod(1000000007);
    /* 2^62 mod p = 4611686018427387904 mod 1000000007 */
    uint64_t expect = 4611686018427387904ULL % 1000000007ULL;
    U256 r = U256::powMod(U256(2), U256(62), mod);
    EXPECT_EQ(r.toHex(), U256(expect).toHex());
}

TEST(U256Test, PowModFermatLittleTheorem)
{
    /* For prime p and a not divisible by p: a^(p-1) = 1 mod p. */
    const U256 &p = groupPrime();
    const U256 &order = groupOrder();
    Rng rng(11);
    for (int i = 0; i < 5; ++i) {
        U256 a = U256::reduce(randomU256(rng), p);
        if (a.isZero())
            continue;
        EXPECT_EQ(U256::powMod(a, order, p).toHex(),
                  U256(1).toHex());
    }
}

TEST(U256Test, PowModZeroExponent)
{
    EXPECT_EQ(U256::powMod(U256(123), U256(0), U256(97)).toHex(),
              U256(1).toHex());
}

/** Property sweep: algebraic identities over random operands. */
class U256PropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(U256PropertyTest, ModularIdentities)
{
    Rng rng(GetParam());
    const U256 &p = groupPrime();
    U256 a = U256::reduce(randomU256(rng), p);
    U256 b = U256::reduce(randomU256(rng), p);
    U256 c = U256::reduce(randomU256(rng), p);

    /* Commutativity. */
    EXPECT_EQ(U256::addMod(a, b, p).toHex(),
              U256::addMod(b, a, p).toHex());
    EXPECT_EQ(U256::mulMod(a, b, p).toHex(),
              U256::mulMod(b, a, p).toHex());

    /* Associativity of mulMod. */
    EXPECT_EQ(
        U256::mulMod(U256::mulMod(a, b, p), c, p).toHex(),
        U256::mulMod(a, U256::mulMod(b, c, p), p).toHex());

    /* Distributivity. */
    EXPECT_EQ(
        U256::mulMod(a, U256::addMod(b, c, p), p).toHex(),
        U256::addMod(U256::mulMod(a, b, p),
                     U256::mulMod(a, c, p), p).toHex());

    /* add/sub inverse. */
    EXPECT_EQ(U256::subMod(U256::addMod(a, b, p), b, p).toHex(),
              a.toHex());

    /* Exponent laws: g^a * g^b = g^(a+b mod order). */
    const U256 &order = groupOrder();
    U256 ea = U256::reduce(a, order);
    U256 eb = U256::reduce(b, order);
    U256 lhs = U256::mulMod(U256::powMod(groupGenerator(), ea, p),
                            U256::powMod(groupGenerator(), eb, p), p);
    U256 rhs = U256::powMod(groupGenerator(),
                            U256::addMod(ea, eb, order), p);
    EXPECT_EQ(lhs.toHex(), rhs.toHex());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, U256PropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

} // namespace
} // namespace cronus::crypto
