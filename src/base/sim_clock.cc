#include "sim_clock.hh"

#include <cstdio>
#include <cstdlib>

namespace cronus
{

namespace detail
{

void
clockInvariantFailure(const char *what, unsigned long long a,
                      unsigned long long b)
{
    /* Not panic(): the check must fire in NDEBUG builds too, and a
     * wrapped virtual timeline is unrecoverable; die loudly. */
    std::fprintf(stderr, "cronus: %s (%llu, %llu)\n", what, a, b);
    std::fflush(stderr);
    std::abort();
}

} // namespace detail

} // namespace cronus
