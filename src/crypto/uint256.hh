/**
 * @file
 * Fixed-width 256-bit unsigned integer with modular arithmetic.
 *
 * Backs the finite-field Diffie-Hellman exchange and Schnorr
 * signatures used for mEnclave ownership (secret_dhke) and
 * attestation. 256-bit parameters are small for production but large
 * enough that the protocol logic (and tamper detection) is real.
 */

#ifndef CRONUS_CRYPTO_UINT256_HH
#define CRONUS_CRYPTO_UINT256_HH

#include <array>
#include <cstdint>
#include <string>

#include "base/bytes.hh"

namespace cronus::crypto
{

/** 256-bit unsigned integer, little-endian 64-bit limbs. */
class U256
{
  public:
    U256() : limbs{0, 0, 0, 0} {}
    U256(uint64_t v) : limbs{v, 0, 0, 0} {}
    /** From little-endian limbs. */
    explicit U256(const std::array<uint64_t, 4> &l) : limbs(l) {}

    static U256 fromBytesBE(const Bytes &bytes);
    static Result<U256> fromHex(const std::string &hex);

    Bytes toBytesBE() const;
    std::string toHex() const;

    bool isZero() const;
    bool bit(int i) const;
    /** Index of highest set bit, or -1 for zero. */
    int highestBit() const;

    bool operator==(const U256 &o) const { return limbs == o.limbs; }
    bool operator!=(const U256 &o) const { return !(*this == o); }
    bool operator<(const U256 &o) const;
    bool operator>=(const U256 &o) const { return !(*this < o); }

    /** Wrapping add/sub (mod 2^256); carry/borrow returned. */
    U256 addWithCarry(const U256 &o, uint64_t &carry_out) const;
    U256 subWithBorrow(const U256 &o, uint64_t &borrow_out) const;

    U256 operator+(const U256 &o) const;
    U256 operator-(const U256 &o) const;

    /** Modular arithmetic; operands must already be < mod. */
    static U256 addMod(const U256 &a, const U256 &b, const U256 &mod);
    static U256 subMod(const U256 &a, const U256 &b, const U256 &mod);
    static U256 mulMod(const U256 &a, const U256 &b, const U256 &mod);
    static U256 powMod(const U256 &base, const U256 &exp,
                       const U256 &mod);
    /** Reduce an arbitrary value below @p mod. */
    static U256 reduce(const U256 &a, const U256 &mod);

    const std::array<uint64_t, 4> &raw() const { return limbs; }

  private:
    std::array<uint64_t, 4> limbs;
};

} // namespace cronus::crypto

#endif // CRONUS_CRYPTO_UINT256_HH
