#include "builtin_kernels.hh"

#include <algorithm>
#include <cstring>

#include "gpu.hh"
#include "kernel_dispatch.hh"

namespace cronus::accel
{

namespace
{

Status
needArgs(const std::vector<uint64_t> &args, size_t n,
         const char *kernel)
{
    if (args.size() != n)
        return Status(ErrorCode::InvalidArgument,
                      std::string(kernel) + ": bad argument count");
    return Status::ok();
}

float
bitsToFloat(uint64_t bits)
{
    float f;
    uint32_t w = static_cast<uint32_t>(bits);
    std::memcpy(&f, &w, sizeof(f));
    return f;
}

/** True when the float ranges [p, p + pn) and [q, q + qn) share a
 *  byte. */
bool
overlaps(const float *p, uint64_t pn, const float *q, uint64_t qn)
{
    auto p0 = reinterpret_cast<uintptr_t>(p);
    auto q0 = reinterpret_cast<uintptr_t>(q);
    return p0 < q0 + qn * sizeof(float) && q0 < p0 + pn * sizeof(float);
}

} // namespace

namespace detail
{
namespace
{

/* No body may fuse s + c * r into one FMA, whatever flags build
 * this file: an FMA rounds once instead of twice, which moves bytes.
 * The guard lives here, not in a build flag, because not every build
 * of src/ passes -ffp-contract=off (a project that compiles these
 * sources with its own flags gets GCC's default, fast). GCC takes
 * the setting per function, so every entry point below carries
 * CRONUS_NO_FP_CONTRACT; clang takes it from the pragma, which must
 * precede the body. */
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#define CRONUS_NO_FP_CONTRACT
#else
#define CRONUS_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#endif

/** One register of floats on each target: SSE's four, AVX's eight,
 *  AVX-512's sixteen. */
typedef float Floats4 __attribute__((vector_size(16)));
typedef float Floats8 __attribute__((vector_size(32)));
typedef float Floats16 __attribute__((vector_size(64)));

/** Columns per register block. */
constexpr uint64_t kBlock = 48;

/* Inlined into every entry point, so each compiles it for its own
 * target, with that target's register width as Vec (a wider vector
 * than the target has would be split through the stack). Takes
 * kRows rows of acc (stride width) and of coef (stride count) at
 * once, so each loaded row segment serves every one of them. Every
 * acc[j] is loaded once, takes s = s + c * r for x ascending, and is
 * stored once: the textbook loop's order, one rounded product and
 * one rounded sum per term. */
template <typename Vec, uint64_t kRows>
[[gnu::always_inline]] inline void
accumulateRowsBody(float *acc, const float *coef, const float *rows,
                   uint64_t count, uint64_t width)
{
    constexpr uint64_t kLanes = sizeof(Vec) / sizeof(float);
    constexpr uint64_t kVectors = kBlock / kLanes;
    uint64_t j = 0;
    /* 48 columns at a time: the block's accumulators (per row, three
     * AVX-512, six AVX or twelve SSE registers) stay in registers
     * for the whole x loop, and each row segment is loaded once. */
    for (; j + kBlock <= width; j += kBlock) {
        Vec s[kRows][kVectors];
#pragma GCC unroll 2
        for (uint64_t i = 0; i < kRows; ++i)
#pragma GCC unroll 12
            for (uint64_t v = 0; v < kVectors; ++v)
                std::memcpy(&s[i][v], acc + i * width + j + v * kLanes,
                            sizeof(Vec));
        for (uint64_t x = 0; x < count; ++x) {
            const float *row = rows + x * width + j;
#pragma GCC unroll 12
            for (uint64_t v = 0; v < kVectors; ++v) {
                Vec r;
                std::memcpy(&r, row + v * kLanes, sizeof(Vec));
#pragma GCC unroll 2
                for (uint64_t i = 0; i < kRows; ++i)
                    s[i][v] = s[i][v] + coef[i * count + x] * r;
            }
        }
#pragma GCC unroll 2
        for (uint64_t i = 0; i < kRows; ++i)
#pragma GCC unroll 12
            for (uint64_t v = 0; v < kVectors; ++v)
                std::memcpy(acc + i * width + j + v * kLanes, &s[i][v],
                            sizeof(Vec));
    }
    /* Then one register of columns at a time, then one column. */
    for (; j + kLanes <= width; j += kLanes) {
        Vec s[kRows], r;
#pragma GCC unroll 2
        for (uint64_t i = 0; i < kRows; ++i)
            std::memcpy(&s[i], acc + i * width + j, sizeof(Vec));
        for (uint64_t x = 0; x < count; ++x) {
            std::memcpy(&r, rows + x * width + j, sizeof(Vec));
#pragma GCC unroll 2
            for (uint64_t i = 0; i < kRows; ++i)
                s[i] = s[i] + coef[i * count + x] * r;
        }
#pragma GCC unroll 2
        for (uint64_t i = 0; i < kRows; ++i)
            std::memcpy(acc + i * width + j, &s[i], sizeof(Vec));
    }
    for (; j < width; ++j) {
#pragma GCC unroll 2
        for (uint64_t i = 0; i < kRows; ++i) {
            float s = acc[i * width + j];
            for (uint64_t x = 0; x < count; ++x)
                s = s + coef[i * count + x] * rows[x * width + j];
            acc[i * width + j] = s;
        }
    }
}

/* c += a * b, kRows rows of c per pass, then an odd last row alone. */
template <typename Vec, uint64_t kRows>
[[gnu::always_inline]] inline void
accumulateProductBody(float *c, const float *a, const float *b,
                      uint64_t m, uint64_t k, uint64_t n)
{
    uint64_t i = 0;
    for (; i + kRows <= m; i += kRows)
        accumulateRowsBody<Vec, kRows>(c + i * n, a + i * k, b, k, n);
    for (; i < m; ++i)
        accumulateRowsBody<Vec, 1>(c + i * n, a + i * k, b, k, n);
}

} // namespace

/* Twelve SSE registers per row already fill the sixteen, so the
 * default target takes one row at a time. */
CRONUS_NO_FP_CONTRACT void
accumulateProductPortable(float *c, const float *a, const float *b,
                          uint64_t m, uint64_t k, uint64_t n)
{
    accumulateProductBody<Floats4, 1>(c, a, b, m, k, n);
}

#if defined(__x86_64__)

CRONUS_NO_FP_CONTRACT __attribute__((target("avx2"))) void
accumulateProductAvx2(float *c, const float *a, const float *b,
                      uint64_t m, uint64_t k, uint64_t n)
{
    accumulateProductBody<Floats8, 2>(c, a, b, m, k, n);
}

CRONUS_NO_FP_CONTRACT __attribute__((target("avx512f"))) void
accumulateProductAvx512(float *c, const float *a, const float *b,
                        uint64_t m, uint64_t k, uint64_t n)
{
    accumulateProductBody<Floats16, 2>(c, a, b, m, k, n);
}

#else

void
accumulateProductAvx2(float *c, const float *a, const float *b,
                      uint64_t m, uint64_t k, uint64_t n)
{
    accumulateProductPortable(c, a, b, m, k, n);
}

void
accumulateProductAvx512(float *c, const float *a, const float *b,
                        uint64_t m, uint64_t k, uint64_t n)
{
    accumulateProductPortable(c, a, b, m, k, n);
}

#endif

#undef CRONUS_NO_FP_CONTRACT

bool
avx2Available()
{
#if defined(__x86_64__)
    /* Function-local, so a call during static initialization still
     * runs __builtin_cpu_init() before reading the feature bits. */
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return available;
#else
    return false;
#endif
}

bool
avx512Available()
{
#if defined(__x86_64__)
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") != 0;
    }();
    return available;
#else
    return false;
#endif
}

} // namespace detail

void
accumulateProduct(float *c, const float *a, const float *b, uint64_t m,
                  uint64_t k, uint64_t n)
{
    if (detail::avx512Available())
        detail::accumulateProductAvx512(c, a, b, m, k, n);
    else if (detail::avx2Available())
        detail::accumulateProductAvx2(c, a, b, m, k, n);
    else
        detail::accumulateProductPortable(c, a, b, m, k, n);
}

void
registerBuiltinKernels()
{
    auto &reg = GpuKernelRegistry::instance();
    if (reg.has("vec_add_f32"))
        return;

    GpuKernel fill;
    fill.utilization = 0.4;
    fill.nsPerItem = 0.5;
    fill.body = [](GpuAccessor &mem, const std::vector<uint64_t> &args,
                   const LaunchDims &) -> Status {
        CRONUS_RETURN_IF_ERROR(needArgs(args, 3, "fill_f32"));
        uint64_t n = args[1];
        auto buf = mem.span<float>(args[0], n);
        if (!buf.isOk())
            return buf.status();
        float v = bitsToFloat(args[2]);
        for (uint64_t i = 0; i < n; ++i)
            buf.value()[i] = v;
        return Status::ok();
    };
    reg.registerKernel("fill_f32", fill);

    GpuKernel vec_add;
    vec_add.utilization = 0.5;
    vec_add.nsPerItem = 0.8;
    vec_add.body = [](GpuAccessor &mem,
                      const std::vector<uint64_t> &args,
                      const LaunchDims &) -> Status {
        CRONUS_RETURN_IF_ERROR(needArgs(args, 4, "vec_add_f32"));
        uint64_t n = args[3];
        auto a = mem.constSpan<float>(args[0], n);
        if (!a.isOk())
            return a.status();
        auto b = mem.constSpan<float>(args[1], n);
        if (!b.isOk())
            return b.status();
        auto out = mem.span<float>(args[2], n);
        if (!out.isOk())
            return out.status();
        for (uint64_t i = 0; i < n; ++i)
            out.value()[i] = a.value()[i] + b.value()[i];
        return Status::ok();
    };
    reg.registerKernel("vec_add_f32", vec_add);

    GpuKernel saxpy;
    saxpy.utilization = 0.5;
    saxpy.nsPerItem = 0.8;
    saxpy.body = [](GpuAccessor &mem,
                    const std::vector<uint64_t> &args,
                    const LaunchDims &) -> Status {
        CRONUS_RETURN_IF_ERROR(needArgs(args, 4, "saxpy_f32"));
        float a = bitsToFloat(args[0]);
        uint64_t n = args[3];
        auto x = mem.constSpan<float>(args[1], n);
        if (!x.isOk())
            return x.status();
        auto y = mem.span<float>(args[2], n);
        if (!y.isOk())
            return y.status();
        for (uint64_t i = 0; i < n; ++i)
            y.value()[i] += a * x.value()[i];
        return Status::ok();
    };
    reg.registerKernel("saxpy_f32", saxpy);

    GpuKernel matmul;
    matmul.utilization = 0.95;
    matmul.nsPerItem = 0.02;  /* per multiply-accumulate */
    matmul.body = [](GpuAccessor &mem,
                     const std::vector<uint64_t> &args,
                     const LaunchDims &) -> Status {
        CRONUS_RETURN_IF_ERROR(needArgs(args, 6, "matmul_f32"));
        uint64_t m = args[3], k = args[4], n = args[5];
        auto c = mem.span<float>(args[2], m * n);
        if (!c.isOk())
            return c.status();
        float *out = c.value();
        if (k == 0) {
            /* Every element is an empty sum; A and B hold nothing. */
            std::fill_n(out, m * n, 0.0f);
            return Status::ok();
        }
        auto a = mem.constSpan<float>(args[0], m * k);
        if (!a.isOk())
            return a.status();
        auto b = mem.constSpan<float>(args[1], k * n);
        if (!b.isOk())
            return b.status();
        if (overlaps(out, m * n, a.value(), m * k) ||
            overlaps(out, m * n, b.value(), k * n))
            return Status(ErrorCode::InvalidArgument,
                          "matmul_f32: C overlaps A or B");
        /* i-k-j order: each row of C accumulates over the
         * contiguous rows of B. Element (i, j) still sums
         * a[i][x] * b[x][j] from 0.0f with x ascending, so C is
         * bit-identical to the textbook i-j-k loop. */
        std::fill_n(out, m * n, 0.0f);
        accumulateProduct(out, a.value(), b.value(), m, k, n);
        return Status::ok();
    };
    reg.registerKernel("matmul_f32", matmul);

    GpuKernel reduce;
    reduce.utilization = 0.6;
    reduce.nsPerItem = 0.6;
    reduce.body = [](GpuAccessor &mem,
                     const std::vector<uint64_t> &args,
                     const LaunchDims &) -> Status {
        CRONUS_RETURN_IF_ERROR(needArgs(args, 3, "reduce_sum_f32"));
        uint64_t n = args[2];
        auto in = mem.constSpan<float>(args[0], n);
        if (!in.isOk())
            return in.status();
        auto out = mem.span<float>(args[1], 1);
        if (!out.isOk())
            return out.status();
        float acc = 0.0f;
        for (uint64_t i = 0; i < n; ++i)
            acc += in.value()[i];
        out.value()[0] = acc;
        return Status::ok();
    };
    reg.registerKernel("reduce_sum_f32", reduce);
}

} // namespace cronus::accel
