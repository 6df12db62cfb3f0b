/** Property tests: the registered matmul_f32 and rodinia_backprop
 *  bodies, and each compiled path of their row accumulation
 *  (kernel_dispatch.hh), against textbook loops (reference_kernels.hh
 *  for matmul), compared byte for byte on seeded random shapes and
 *  values. */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "accel/builtin_kernels.hh"
#include "accel/gpu.hh"
#include "accel/kernel_dispatch.hh"
#include "base/rng.hh"
#include "reference_kernels.hh"
#include "workloads/rodinia.hh"

namespace cronus::accel
{
namespace
{

/* Around the body's 48-column register blocks and their tails: on
 * AVX2, 65 = 48 + 8 + 8 + 1 and 103 = 2 * 48 + 7. */
const uint64_t kDims[] = {1, 2, 7, 16, 47, 48, 65, 96, 103};

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

std::vector<float>
referenceMatmul(const std::vector<float> &a, const std::vector<float> &b,
                uint64_t m, uint64_t k, uint64_t n)
{
    std::vector<float> c(m * n);
    reference::matmul(a.data(), b.data(), c.data(), m, k, n);
    return c;
}

/** Calls @p check(a, b, m, k, n, expected) on every shape in kDims^3
 *  with seeded random operands, until a check fails fatally. */
template <typename Check>
void
forEachRandomShape(Check check)
{
    Rng rng(0x3a7);
    for (uint64_t m : kDims) {
        for (uint64_t k : kDims) {
            for (uint64_t n : kDims) {
                const auto a = randomMatrix(rng, m * k);
                const auto b = randomMatrix(rng, k * n);
                check(a, b, m, k, n, referenceMatmul(a, b, m, k, n));
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

/** One rodinia_backprop layer: inputs and weights in [-1, 1], as
 *  runBackprop uses (wide-exponent sums would saturate tanh and hide
 *  the order), and the outputs of runBackprop's column loop. */
struct BackpropCase
{
    std::vector<float> in, w, expected;
};

BackpropCase
randomBackprop(Rng &rng, uint64_t n_in, uint64_t n_out)
{
    BackpropCase bp{std::vector<float>(n_in),
                    std::vector<float>(n_in * n_out),
                    std::vector<float>(n_out)};
    for (float &f : bp.in)
        f = static_cast<float>(rng.nextRange(-1, 1));
    for (float &f : bp.w)
        f = static_cast<float>(rng.nextRange(-1, 1));
    for (uint64_t j = 0; j < n_out; ++j) {
        float acc = 0.0f;
        for (uint64_t i = 0; i < n_in; ++i)
            acc += bp.in[i] * bp.w[i * n_out + j];
        bp.expected[j] = std::tanh(acc);
    }
    return bp;
}

const uint64_t kBackpropInputs[] = {1, 2, 7, 64, 97};
/* 48 and 97 reach the 48-column blocks. */
const uint64_t kBackpropOutputs[] = {1, 4, 16, 33, 48, 97};

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
    EXPECT_TRUE(sameBytes(referenceMatmul(a, b, 1, 4, 16), expected));
    EXPECT_TRUE(sameBytes(launch(a, b, 1, 4, 16), expected));
}

TEST_F(KernelOracleTest, MatmulRandomShapesMatchByteForByte)
{
    uint64_t elements = 0, order_sensitive = 0;
    forEachRandomShape([&](const std::vector<float> &a,
                           const std::vector<float> &b, uint64_t m,
                           uint64_t k, uint64_t n,
                           const std::vector<float> &expected) {
        ASSERT_TRUE(sameBytes(launch(a, b, m, k, n), expected))
            << m << "x" << k << "x" << n;

        /* The same sums taken with x descending: the inputs must make
         * summation order visible, or the byte comparison above
         * proves nothing about it. */
        for (uint64_t i = 0; i < m; ++i) {
            for (uint64_t j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (uint64_t x = k; x-- > 0;)
                    acc += a[i * k + x] * b[x * n + j];
                order_sensitive += acc != expected[i * n + j];
                ++elements;
            }
        }
    });
    EXPECT_GT(order_sensitive * 4, elements)
        << order_sensitive << " of " << elements
        << " elements depend on summation order";
}

TEST_F(KernelOracleTest, MatmulEmptyInnerDimensionZeroFills)
{
    for (uint64_t m : kDims) {
        for (uint64_t n : kDims) {
            const auto expected = referenceMatmul({}, {}, m, 0, n);
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
    for (uint64_t n_in : kBackpropInputs) {
        for (uint64_t n_out : kBackpropOutputs) {
            const BackpropCase bp = randomBackprop(rng, n_in, n_out);
            const GpuVa va_out = upload(std::vector<float>(n_out, NAN));
            ASSERT_TRUE(gpu.launch(ctx, "rodinia_backprop",
                                   {upload(bp.in), upload(bp.w), va_out,
                                    n_in, n_out},
                                   LaunchDims{n_in * n_out}, 0)
                            .isOk());
            std::vector<float> out(n_out);
            ASSERT_TRUE(gpu.read(ctx, va_out,
                                 reinterpret_cast<uint8_t *>(out.data()),
                                 n_out * sizeof(float)).isOk());
            ASSERT_TRUE(sameBytes(out, bp.expected))
                << n_in << " x " << n_out;
        }
    }
}

/* Each compilation of accumulateRows' body on its own, not only the
 * one this CPU dispatches to. Operands live in exactly sized host vectors,
 * so a sanitizer build sees any vector load or store past a row or
 * past acc. */
class KernelPathTest : public ::testing::TestWithParam<bool>
{
  protected:
    using Body = void (*)(float *, const float *, const float *,
                          uint64_t, uint64_t);

    void
    SetUp() override
    {
        if (GetParam() && !detail::avx2Available())
            GTEST_SKIP() << "this CPU has no AVX2";
    }

    Body
    body() const
    {
        return GetParam() ? detail::accumulateRowsAvx2
                          : detail::accumulateRowsPortable;
    }
};

std::string
pathName(const ::testing::TestParamInfo<bool> &info)
{
    return info.param ? "avx2" : "portable";
}

/* matmul_f32's loop: each row of c zeroed, then accumulated. */
TEST_P(KernelPathTest, MatmulRandomShapesMatchByteForByte)
{
    forEachRandomShape([&](const std::vector<float> &a,
                           const std::vector<float> &b, uint64_t m,
                           uint64_t k, uint64_t n,
                           const std::vector<float> &expected) {
        std::vector<float> c(m * n, 0.0f);
        for (uint64_t i = 0; i < m; ++i)
            body()(c.data() + i * n, a.data() + i * k, b.data(), k, n);
        ASSERT_TRUE(sameBytes(c, expected)) << m << "x" << k << "x" << n;
    });
}

/* backpropBody's loop: one zeroed accumulator per output. */
TEST_P(KernelPathTest, BackpropMatchesColumnLoopByteForByte)
{
    Rng rng(0xb9);
    for (uint64_t n_in : kBackpropInputs) {
        for (uint64_t n_out : kBackpropOutputs) {
            const BackpropCase bp = randomBackprop(rng, n_in, n_out);
            std::vector<float> out(n_out, 0.0f);
            body()(out.data(), bp.in.data(), bp.w.data(), n_in, n_out);
            for (float &f : out)
                f = std::tanh(f);
            ASSERT_TRUE(sameBytes(out, bp.expected))
                << n_in << " x " << n_out;
        }
    }
}

/* Both callers zero acc first; the contract is +=, each acc[j] taking
 * its terms after the value it held. count = 0 leaves acc as it is. */
TEST_P(KernelPathTest, AccumulatesOntoNonZeroAcc)
{
    Rng rng(0xacc);
    for (uint64_t count : {0, 1, 5, 48}) {
        for (uint64_t width : kDims) {
            const auto start = randomMatrix(rng, width);
            const auto coef = randomMatrix(rng, count);
            const auto rows = randomMatrix(rng, count * width);
            std::vector<float> expected = start;
            for (uint64_t j = 0; j < width; ++j)
                for (uint64_t x = 0; x < count; ++x)
                    expected[j] += coef[x] * rows[x * width + j];
            std::vector<float> acc = start;
            body()(acc.data(), coef.data(), rows.data(), count, width);
            ASSERT_TRUE(sameBytes(acc, expected)) << count << " x " << width;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Paths, KernelPathTest, ::testing::Bool(),
                         pathName);

} // namespace
} // namespace cronus::accel
