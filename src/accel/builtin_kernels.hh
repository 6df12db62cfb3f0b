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
 * acc[j] += coef[x] * rows[x * width + j] for every j < width, x
 * ascending over @p count contiguous rows: the inner step of an
 * i-k-j matrix product. acc is taken 48 columns at a time, each
 * block held in vector registers for the whole x loop, then one
 * register of columns at a time, then one column. Each acc[j] still
 * receives its terms one at a time in x order, exactly as a textbook
 * loop that walks column j would add them, so the sums are
 * bit-identical to that loop's. The body runs on AVX2 when the CPU
 * has it, else on the default target (kernel_dispatch.hh); both give
 * the same bytes. @p acc must not overlap @p coef or @p rows.
 */
void accumulateRows(float *acc, const float *coef, const float *rows,
                    uint64_t count, uint64_t width);

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
