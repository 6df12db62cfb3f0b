/** Property tests: the registered matmul_f32 and rodinia_backprop
 *  bodies against textbook loops (reference_kernels.hh for matmul),
 *  compared byte for byte on seeded random shapes and values. */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "accel/builtin_kernels.hh"
#include "accel/gpu.hh"
#include "base/rng.hh"
#include "reference_kernels.hh"
#include "workloads/rodinia.hh"

namespace cronus::accel
{
namespace
{

const uint64_t kDims[] = {1, 2, 7, 16, 47, 48, 65};

/** Signed, with exponents spread over 2^-12..2^12, so sums of mixed
 *  magnitudes round differently when their order changes. */
float
randomValue(Rng &rng)
{
    const double mantissa = rng.nextRange(1.0, 2.0);
    const int exponent = static_cast<int>(rng.nextBelow(25)) - 12;
    const float v = static_cast<float>(std::ldexp(mantissa, exponent));
    return rng.nextBelow(2) ? -v : v;
}

std::vector<float>
randomMatrix(Rng &rng, uint64_t count)
{
    std::vector<float> v(count);
    for (float &f : v)
        f = randomValue(rng);
    return v;
}

bool
sameBytes(const std::vector<float> &x, const std::vector<float> &y)
{
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) ==
               0;
}

class KernelOracleTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        registerBuiltinKernels();
        ctx = gpu.createContext().value();
        ASSERT_TRUE(
            gpu.loadModule(ctx, {"mm.cubin", {"matmul_f32"}}).isOk());
    }

    GpuVa
    upload(const std::vector<float> &data)
    {
        GpuVa va = gpu.malloc(ctx, data.size() * sizeof(float)).value();
        EXPECT_TRUE(gpu.write(ctx, va,
                              reinterpret_cast<const uint8_t *>(
                                  data.data()),
                              data.size() * sizeof(float)).isOk());
        return va;
    }

    /** Launch matmul_f32 over uploaded copies of @p a and @p b into a
     *  C pre-filled with NaN; return C as read back. k = 0 passes
     *  unmapped A and B. */
    std::vector<float>
    launch(const std::vector<float> &a, const std::vector<float> &b,
           uint64_t m, uint64_t k, uint64_t n)
    {
        const GpuVa va_a = k ? upload(a) : 0;
        const GpuVa va_b = k ? upload(b) : 0;
        const GpuVa va_c = upload(std::vector<float>(m * n, NAN));
        auto done = gpu.launch(ctx, "matmul_f32",
                               {va_a, va_b, va_c, m, k, n},
                               LaunchDims{m * k * n}, 0);
        EXPECT_TRUE(done.isOk()) << done.status().toString();
        std::vector<float> c(m * n);
        EXPECT_TRUE(gpu.read(ctx, va_c,
                             reinterpret_cast<uint8_t *>(c.data()),
                             c.size() * sizeof(float)).isOk());
        EXPECT_TRUE(gpu.free(ctx, va_c).isOk());
        if (k) {
            EXPECT_TRUE(gpu.free(ctx, va_a).isOk());
            EXPECT_TRUE(gpu.free(ctx, va_b).isOk());
        }
        return c;
    }

    std::vector<float>
    oracle(const std::vector<float> &a, const std::vector<float> &b,
           uint64_t m, uint64_t k, uint64_t n)
    {
        std::vector<float> c(m * n);
        reference::matmul(a.data(), b.data(), c.data(), m, k, n);
        return c;
    }

    GpuDevice gpu;
    GpuContextId ctx = 0;
};

TEST_F(KernelOracleTest, MatmulSumsInAscendingOrder)
{
    /* Floats are 8 apart near 1e8, so 1e8 + 1 rounds back to 1e8:
     * summing x ascending gives 1, summing it descending gives 0. */
    const std::vector<float> a = {1e8f, 1.0f, -1e8f, 1.0f};
    const std::vector<float> b(4 * 16, 1.0f);
    const std::vector<float> expected(16, 1.0f);
    EXPECT_TRUE(sameBytes(oracle(a, b, 1, 4, 16), expected));
    EXPECT_TRUE(sameBytes(launch(a, b, 1, 4, 16), expected));
}

TEST_F(KernelOracleTest, MatmulRandomShapesMatchByteForByte)
{
    Rng rng(0x3a7);
    uint64_t elements = 0, order_sensitive = 0;
    for (uint64_t m : kDims) {
        for (uint64_t k : kDims) {
            for (uint64_t n : kDims) {
                const auto a = randomMatrix(rng, m * k);
                const auto b = randomMatrix(rng, k * n);
                const auto expected = oracle(a, b, m, k, n);
                ASSERT_TRUE(sameBytes(launch(a, b, m, k, n), expected))
                    << m << "x" << k << "x" << n;

                /* The same sums taken with x descending: the inputs
                 * must make summation order visible, or the byte
                 * comparison above proves nothing about it. */
                for (uint64_t i = 0; i < m; ++i) {
                    for (uint64_t j = 0; j < n; ++j) {
                        float acc = 0.0f;
                        for (uint64_t x = k; x-- > 0;)
                            acc += a[i * k + x] * b[x * n + j];
                        order_sensitive += acc != expected[i * n + j];
                        ++elements;
                    }
                }
            }
        }
    }
    EXPECT_GT(order_sensitive * 4, elements)
        << order_sensitive << " of " << elements
        << " elements depend on summation order";
}

TEST_F(KernelOracleTest, MatmulEmptyInnerDimensionZeroFills)
{
    for (uint64_t m : kDims) {
        for (uint64_t n : kDims) {
            const auto expected = oracle({}, {}, m, 0, n);
            ASSERT_TRUE(sameBytes(launch({}, {}, m, 0, n), expected))
                << m << "x0x" << n;
            ASSERT_TRUE(sameBytes(expected,
                                  std::vector<float>(m * n, 0.0f)));
        }
    }
}

/* Rodinia's backprop body runs the same row accumulation; the
 * oracle is runBackprop's host loop, one column of w per output. */
TEST_F(KernelOracleTest, BackpropMatchesColumnLoopByteForByte)
{
    workloads::registerRodiniaKernels();
    ASSERT_TRUE(
        gpu.loadModule(ctx, {"bp.cubin", {"rodinia_backprop"}}).isOk());
    Rng rng(0xb9);
    for (uint64_t n_in : {1, 2, 7, 64, 97}) {
        for (uint64_t n_out : {1, 4, 16, 33}) {
            /* Inputs in [-1, 1], as runBackprop uses: wide-exponent
             * sums would saturate tanh and hide the order. */
            std::vector<float> in(n_in), w(n_in * n_out);
            for (float &f : in)
                f = static_cast<float>(rng.nextRange(-1, 1));
            for (float &f : w)
                f = static_cast<float>(rng.nextRange(-1, 1));
            const GpuVa va_out = upload(std::vector<float>(n_out, NAN));
            ASSERT_TRUE(gpu.launch(ctx, "rodinia_backprop",
                                   {upload(in), upload(w), va_out, n_in,
                                    n_out},
                                   LaunchDims{n_in * n_out}, 0)
                            .isOk());
            std::vector<float> out(n_out);
            ASSERT_TRUE(gpu.read(ctx, va_out,
                                 reinterpret_cast<uint8_t *>(out.data()),
                                 n_out * sizeof(float)).isOk());

            std::vector<float> expected(n_out);
            for (uint64_t j = 0; j < n_out; ++j) {
                float acc = 0.0f;
                for (uint64_t i = 0; i < n_in; ++i)
                    acc += in[i] * w[i * n_out + j];
                expected[j] = std::tanh(acc);
            }
            ASSERT_TRUE(sameBytes(out, expected)) << n_in << " x " << n_out;
        }
    }
}

} // namespace
} // namespace cronus::accel
