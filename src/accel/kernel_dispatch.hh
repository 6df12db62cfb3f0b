/**
 * @file
 * Internal: both compilations of accumulateRows' body.
 *
 * The register-blocked body is one source compiled twice: for the
 * default target and under target("avx2"). accumulateRows() picks one
 * on its first call from the CPUID probe avx2Available(). The AVX2
 * entry point must only be called when the probe is true; on
 * non-x86-64 builds it forwards to the portable body. Neither target
 * enables FMA, so both round every product and every sum on its own
 * and write the same bytes. Only src/accel/ and the tests include
 * this header: the tests hold each path to the textbook oracle on any
 * host.
 */

#ifndef CRONUS_ACCEL_KERNEL_DISPATCH_HH
#define CRONUS_ACCEL_KERNEL_DISPATCH_HH

#include <cstdint>

namespace cronus::accel::detail
{

/** True when this CPU runs AVX2 (read once). */
bool avx2Available();

/** accumulateRows() on the default target and on AVX2. */
void accumulateRowsPortable(float *acc, const float *coef,
                            const float *rows, uint64_t count,
                            uint64_t width);
void accumulateRowsAvx2(float *acc, const float *coef,
                        const float *rows, uint64_t count,
                        uint64_t width);

} // namespace cronus::accel::detail

#endif // CRONUS_ACCEL_KERNEL_DISPATCH_HH
