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

/** One register of floats on each target: SSE's four, AVX's
 *  eight. */
typedef float Floats4 __attribute__((vector_size(16)));
typedef float Floats8 __attribute__((vector_size(32)));

/** Columns per register block. */
constexpr uint64_t kBlock = 48;

/* Inlined into both entry points, so each compiles it for its own
 * target, with that target's register width as Vec (a wider vector
 * than the target has would be split through the stack). Every
 * acc[j] is loaded once, takes s = s + c * r for x ascending, and is
 * stored once: the textbook loop's order, one rounded product and
 * one rounded sum per term. */
template <typename Vec>
[[gnu::always_inline]] inline void
accumulateRowsBody(float *acc, const float *coef, const float *rows,
                   uint64_t count, uint64_t width)
{
    constexpr uint64_t kLanes = sizeof(Vec) / sizeof(float);
    constexpr uint64_t kVectors = kBlock / kLanes;
    uint64_t j = 0;
    /* 48 columns at a time: the block's accumulators (six AVX or
     * twelve SSE registers) stay in registers for the whole x loop,
     * and each row segment is loaded once. */
    for (; j + kBlock <= width; j += kBlock) {
        Vec s[kVectors];
#pragma GCC unroll 12
        for (uint64_t v = 0; v < kVectors; ++v)
            std::memcpy(&s[v], acc + j + v * kLanes, sizeof(Vec));
        for (uint64_t x = 0; x < count; ++x) {
            const float *row = rows + x * width + j;
#pragma GCC unroll 12
            for (uint64_t v = 0; v < kVectors; ++v) {
                Vec r;
                std::memcpy(&r, row + v * kLanes, sizeof(Vec));
                s[v] = s[v] + coef[x] * r;
            }
        }
#pragma GCC unroll 12
        for (uint64_t v = 0; v < kVectors; ++v)
            std::memcpy(acc + j + v * kLanes, &s[v], sizeof(Vec));
    }
    /* Then one register of columns at a time, then one column. */
    for (; j + kLanes <= width; j += kLanes) {
        Vec s, r;
        std::memcpy(&s, acc + j, sizeof(Vec));
        for (uint64_t x = 0; x < count; ++x) {
            std::memcpy(&r, rows + x * width + j, sizeof(Vec));
            s = s + coef[x] * r;
        }
        std::memcpy(acc + j, &s, sizeof(Vec));
    }
    for (; j < width; ++j) {
        float s = acc[j];
        for (uint64_t x = 0; x < count; ++x)
            s = s + coef[x] * rows[x * width + j];
        acc[j] = s;
    }
}

} // namespace

void
accumulateRowsPortable(float *acc, const float *coef, const float *rows,
                       uint64_t count, uint64_t width)
{
    accumulateRowsBody<Floats4>(acc, coef, rows, count, width);
}

#if defined(__x86_64__)

/* avx2 alone: a target that enables FMA (fma, avx512f, arch=...)
 * lets GCC contract s + c * r into one rounding, which moves bytes. */
__attribute__((target("avx2"))) void
accumulateRowsAvx2(float *acc, const float *coef, const float *rows,
                   uint64_t count, uint64_t width)
{
    accumulateRowsBody<Floats8>(acc, coef, rows, count, width);
}

#else

void
accumulateRowsAvx2(float *acc, const float *coef, const float *rows,
                   uint64_t count, uint64_t width)
{
    accumulateRowsPortable(acc, coef, rows, count, width);
}

#endif

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

} // namespace detail

void
accumulateRows(float *acc, const float *coef, const float *rows,
               uint64_t count, uint64_t width)
{
    if (detail::avx2Available())
        detail::accumulateRowsAvx2(acc, coef, rows, count, width);
    else
        detail::accumulateRowsPortable(acc, coef, rows, count, width);
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
        /* i-k-j order: row i of C accumulates over the contiguous
         * rows of B. Element (i, j) still sums a[i][x] * b[x][j]
         * from 0.0f with x ascending, so C is bit-identical to the
         * textbook i-j-k loop. */
        for (uint64_t i = 0; i < m; ++i) {
            float *c_row = out + i * n;
            std::fill_n(c_row, n, 0.0f);
            accumulateRows(c_row, a.value() + i * k, b.value(), k, n);
        }
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
