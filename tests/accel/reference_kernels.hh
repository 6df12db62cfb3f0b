/**
 * @file
 * Slow reference bodies for the built-in GPU kernels.
 *
 * Each function is the textbook loop over host arrays and shares no
 * code with src/accel/, so the property tests can hold the
 * registered kernel bodies to an independent oracle byte for byte.
 */

#ifndef CRONUS_TESTS_ACCEL_REFERENCE_KERNELS_HH
#define CRONUS_TESTS_ACCEL_REFERENCE_KERNELS_HH

#include <cstdint>

namespace cronus::accel::reference
{

/** c(m x n) = a(m x k) * b(k x n), row-major, i-j-k order: each
 *  element summed from 0.0f with the inner index ascending. */
void matmul(const float *a, const float *b, float *c, uint64_t m,
            uint64_t k, uint64_t n);

} // namespace cronus::accel::reference

#endif // CRONUS_TESTS_ACCEL_REFERENCE_KERNELS_HH
