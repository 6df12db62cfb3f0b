/**
 * @file
 * Internal: the three compilations of accumulateProduct's body.
 *
 * The register-blocked body is one source compiled three times: for
 * the default target (one row of C per pass, SSE's four-float
 * vectors), under target("avx2") and under target("avx512f") (two
 * rows per pass, then an odd last row alone). accumulateProduct()
 * picks the widest the CPU has from the CPUID probes below. An entry
 * point must only be called when its probe is true; on non-x86-64
 * builds the AVX entry points forward to the portable body. No entry
 * point may fuse a multiply and an add, whatever the build flags: each
 * carries its own fp-contract=off, so all three round every product
 * and every sum on its own and write the same bytes. Only src/accel/
 * and the tests include this header: the tests hold each path to the
 * textbook oracle on any host.
 */

#ifndef CRONUS_ACCEL_KERNEL_DISPATCH_HH
#define CRONUS_ACCEL_KERNEL_DISPATCH_HH

#include <cstdint>

namespace cronus::accel::detail
{

/** True when this CPU runs AVX2 / AVX-512F (each read once). */
bool avx2Available();
bool avx512Available();

/** accumulateProduct() on the default target, AVX2 and AVX-512F. */
void accumulateProductPortable(float *c, const float *a, const float *b,
                               uint64_t m, uint64_t k, uint64_t n);
void accumulateProductAvx2(float *c, const float *a, const float *b,
                           uint64_t m, uint64_t k, uint64_t n);
void accumulateProductAvx512(float *c, const float *a, const float *b,
                             uint64_t m, uint64_t k, uint64_t n);

} // namespace cronus::accel::detail

#endif // CRONUS_ACCEL_KERNEL_DISPATCH_HH
