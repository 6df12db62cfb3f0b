/**
 * @file
 * Small built-in GPU kernel library (vector/matrix primitives).
 *
 * The rodinia-like benchmark kernels and the DNN layer kernels live
 * in src/workloads; these primitives are used by tests, examples and
 * the DNN layers.
 */

#ifndef CRONUS_ACCEL_BUILTIN_KERNELS_HH
#define CRONUS_ACCEL_BUILTIN_KERNELS_HH

#include <cstdint>

namespace cronus::accel
{

/**
 * c += a * b for row-major c (m x n), a (m x k) and b (k x n):
 * c[i][j] takes a[i][x] * b[x][j] for x ascending, one term at a
 * time after the value it held, exactly as a textbook loop that
 * walks element (i, j) would add them, so the sums are bit-identical
 * to that loop's. Rows of c accumulate over the contiguous rows of
 * b, 48 columns at a time with the block held in vector registers
 * for the whole x loop, then one register of columns at a time, then
 * one column; on AVX2 and AVX-512 two rows of c share each loaded
 * segment of b. The body runs on the widest of AVX-512, AVX2 and the
 * default target that the CPU has (kernel_dispatch.hh); all three
 * give the same bytes. @p c must not overlap @p a or @p b.
 */
void accumulateProduct(float *c, const float *a, const float *b,
                       uint64_t m, uint64_t k, uint64_t n);

/**
 * Register the built-in kernels with the global registry
 * (idempotent):
 *   fill_f32(buf, n, bits)        buf[i] = bitcast(bits)
 *   vec_add_f32(a, b, out, n)     out[i] = a[i] + b[i]
 *   saxpy_f32(a, x, y, n)         y[i] += bitcast(a) * x[i]
 *   matmul_f32(a, b, c, m, k, n)  c = a(mxk) * b(kxn)
 *   reduce_sum_f32(in, out, n)    out[0] = sum(in)
 *
 * matmul_f32 sums each element of c from 0.0f with the inner index
 * ascending (bit-identical to the textbook i-j-k loop; k = 0 gives
 * c = 0) and returns InvalidArgument when c overlaps a or b, the
 * pattern that is a data race on a real GPU.
 */
void registerBuiltinKernels();

} // namespace cronus::accel

#endif // CRONUS_ACCEL_BUILTIN_KERNELS_HH
