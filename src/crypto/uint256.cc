#include "uint256.hh"

#include "base/logging.hh"

namespace cronus::crypto
{

namespace
{

/* 512-bit scratch values as 8 little-endian 64-bit limbs. */
using Limbs8 = std::array<uint64_t, 8>;

int
highestBit512(const Limbs8 &v)
{
    for (int limb = 7; limb >= 0; --limb) {
        if (v[limb] != 0) {
            int bit = 63;
            while (!((v[limb] >> bit) & 1))
                --bit;
            return limb * 64 + bit;
        }
    }
    return -1;
}

int
compare512(const Limbs8 &a, const Limbs8 &b)
{
    for (int i = 7; i >= 0; --i) {
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    }
    return 0;
}

void
sub512(Limbs8 &a, const Limbs8 &b)
{
    uint64_t borrow = 0;
    for (int i = 0; i < 8; ++i) {
        unsigned __int128 diff =
            (unsigned __int128)a[i] - b[i] - borrow;
        a[i] = static_cast<uint64_t>(diff);
        borrow = (diff >> 64) ? 1 : 0;
    }
}

Limbs8
shiftLeft512(const Limbs8 &v, int bits)
{
    Limbs8 out{};
    int limb_shift = bits / 64;
    int bit_shift = bits % 64;
    for (int i = 7; i >= 0; --i) {
        uint64_t value = 0;
        int src = i - limb_shift;
        if (src >= 0)
            value = v[src] << bit_shift;
        if (bit_shift != 0 && src - 1 >= 0)
            value |= v[src - 1] >> (64 - bit_shift);
        out[i] = value;
    }
    return out;
}

/** Reduce a 512-bit value modulo a 256-bit modulus (binary). */
U256
reduce512(Limbs8 value, const U256 &mod)
{
    CRONUS_ASSERT(!mod.isZero(), "reduce512 by zero");
    Limbs8 m{};
    for (int i = 0; i < 4; ++i)
        m[i] = mod.raw()[i];

    int vb = highestBit512(value);
    int mb = highestBit512(m);
    for (int shift = vb - mb; shift >= 0; --shift) {
        Limbs8 shifted = shiftLeft512(m, shift);
        if (compare512(value, shifted) >= 0)
            sub512(value, shifted);
    }

    return U256({value[0], value[1], value[2], value[3]});
}

} // namespace

U256
U256::fromBytesBE(const Bytes &bytes)
{
    CRONUS_ASSERT(bytes.size() <= 32, "U256::fromBytesBE > 32 bytes");
    U256 out;
    size_t n = bytes.size();
    for (size_t i = 0; i < n; ++i) {
        /* bytes[n-1-i] is the i-th least significant byte. */
        out.limbs[i / 8] |=
            uint64_t(bytes[n - 1 - i]) << (8 * (i % 8));
    }
    return out;
}

Result<U256>
U256::fromHex(const std::string &hex)
{
    auto bytes = cronus::fromHex(hex);
    if (!bytes.isOk())
        return bytes.status();
    if (bytes.value().size() > 32)
        return Status(ErrorCode::InvalidArgument,
                      "hex longer than 256 bits");
    return fromBytesBE(bytes.value());
}

Bytes
U256::toBytesBE() const
{
    Bytes out(32);
    for (int i = 0; i < 32; ++i)
        out[31 - i] = (limbs[i / 8] >> (8 * (i % 8))) & 0xff;
    return out;
}

std::string
U256::toHex() const
{
    return cronus::toHex(toBytesBE());
}

bool
U256::isZero() const
{
    return limbs[0] == 0 && limbs[1] == 0 && limbs[2] == 0 &&
           limbs[3] == 0;
}

bool
U256::bit(int i) const
{
    CRONUS_ASSERT(i >= 0 && i < 256, "U256::bit out of range");
    return (limbs[i / 64] >> (i % 64)) & 1;
}

int
U256::highestBit() const
{
    for (int limb = 3; limb >= 0; --limb) {
        if (limbs[limb] != 0) {
            int bit = 63;
            while (!((limbs[limb] >> bit) & 1))
                --bit;
            return limb * 64 + bit;
        }
    }
    return -1;
}

bool
U256::operator<(const U256 &o) const
{
    for (int i = 3; i >= 0; --i) {
        if (limbs[i] != o.limbs[i])
            return limbs[i] < o.limbs[i];
    }
    return false;
}

U256
U256::addWithCarry(const U256 &o, uint64_t &carry_out) const
{
    U256 out;
    uint64_t carry = 0;
    for (int i = 0; i < 4; ++i) {
        unsigned __int128 sum =
            (unsigned __int128)limbs[i] + o.limbs[i] + carry;
        out.limbs[i] = static_cast<uint64_t>(sum);
        carry = static_cast<uint64_t>(sum >> 64);
    }
    carry_out = carry;
    return out;
}

U256
U256::subWithBorrow(const U256 &o, uint64_t &borrow_out) const
{
    U256 out;
    uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
        unsigned __int128 diff =
            (unsigned __int128)limbs[i] - o.limbs[i] - borrow;
        out.limbs[i] = static_cast<uint64_t>(diff);
        borrow = (diff >> 64) ? 1 : 0;
    }
    borrow_out = borrow;
    return out;
}

U256
U256::operator+(const U256 &o) const
{
    uint64_t carry;
    return addWithCarry(o, carry);
}

U256
U256::operator-(const U256 &o) const
{
    uint64_t borrow;
    return subWithBorrow(o, borrow);
}

U256
U256::addMod(const U256 &a, const U256 &b, const U256 &mod)
{
    uint64_t carry;
    U256 sum = a.addWithCarry(b, carry);
    if (carry || sum >= mod)
        sum = sum - mod;
    return sum;
}

U256
U256::subMod(const U256 &a, const U256 &b, const U256 &mod)
{
    uint64_t borrow;
    U256 diff = a.subWithBorrow(b, borrow);
    if (borrow)
        diff = diff + mod;
    return diff;
}

U256
U256::mulMod(const U256 &a, const U256 &b, const U256 &mod)
{
    Limbs8 product{};
    for (int i = 0; i < 4; ++i) {
        uint64_t carry = 0;
        for (int j = 0; j < 4; ++j) {
            unsigned __int128 cur =
                (unsigned __int128)a.raw()[i] * b.raw()[j] +
                product[i + j] + carry;
            product[i + j] = static_cast<uint64_t>(cur);
            carry = static_cast<uint64_t>(cur >> 64);
        }
        product[i + 4] += carry;
    }
    return reduce512(product, mod);
}

U256
U256::powMod(const U256 &base, const U256 &exp, const U256 &mod)
{
    CRONUS_ASSERT(!mod.isZero(), "powMod by zero modulus");
    U256 result(1);
    result = reduce(result, mod);
    U256 b = reduce(base, mod);
    int top = exp.highestBit();
    for (int i = top; i >= 0; --i) {
        result = mulMod(result, result, mod);
        if (exp.bit(i))
            result = mulMod(result, b, mod);
    }
    return result;
}

U256
U256::reduce(const U256 &a, const U256 &mod)
{
    Limbs8 wide{};
    for (int i = 0; i < 4; ++i)
        wide[i] = a.raw()[i];
    return reduce512(wide, mod);
}

} // namespace cronus::crypto
