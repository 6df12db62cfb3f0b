#include "reference_kernels.hh"

namespace cronus::accel::reference
{

void
matmul(const float *a, const float *b, float *c, uint64_t m,
       uint64_t k, uint64_t n)
{
    for (uint64_t i = 0; i < m; ++i) {
        for (uint64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (uint64_t x = 0; x < k; ++x)
                acc += a[i * k + x] * b[x * n + j];
            c[i * n + j] = acc;
        }
    }
}

} // namespace cronus::accel::reference
