/** Shared helpers for the figure/table benches. */

#ifndef CRONUS_BENCH_BENCH_UTIL_HH
#define CRONUS_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baseline/cronus_backend.hh"
#include "baseline/direct.hh"
#include "baseline/hix_tz.hh"
#include "obs/trace.hh"

namespace cronus::bench
{

inline void
header(const std::string &title)
{
    std::printf("\n================================================="
                "=============\n%s\n"
                "================================================="
                "=============\n",
                title.c_str());
}

inline std::unique_ptr<baseline::ComputeBackend>
makeBackend(const std::string &which,
            const std::vector<std::string> &kernels)
{
    Logger::instance().setQuiet(true);
    using Kind = baseline::DirectBackend::Kind;
    if (which == "Linux")
        return std::make_unique<baseline::DirectBackend>(Kind::Linux,
                                                         kernels);
    if (which == "TrustZone")
        return std::make_unique<baseline::DirectBackend>(
            Kind::TrustZone, kernels);
    if (which == "HIX-TrustZone")
        return std::make_unique<baseline::HixTzBackend>(kernels);
    baseline::CronusBackendConfig c;
    c.gpuKernels = kernels;
    return std::make_unique<baseline::CronusBackend>(c);
}

/**
 * Write the accumulated Perfetto trace at bench exit when tracing is
 * on (CRONUS_TRACE=1). The destination is CRONUS_TRACE_FILE if set,
 * else @p default_path. The note goes to stderr: the figure output
 * on stdout must stay byte-identical with tracing on or off.
 */
inline void
exportTraceIfEnabled(const std::string &default_path)
{
    auto &tracer = obs::Tracer::instance();
    if (!tracer.exporting())
        return;
    const char *env = std::getenv("CRONUS_TRACE_FILE");
    const std::string path =
        (env != nullptr && env[0] != '\0') ? env : default_path;
    Status s = tracer.writeTraceFile(path);
    if (s.isOk())
        std::fprintf(stderr,
                     "trace: %llu events written to %s\n",
                     static_cast<unsigned long long>(
                         tracer.eventCount()),
                     path.c_str());
    else
        std::fprintf(stderr, "trace: cannot write %s: %s\n",
                     path.c_str(), s.toString().c_str());
}

inline const std::vector<std::string> &
allSystems()
{
    static const std::vector<std::string> systems = {
        "Linux", "TrustZone", "HIX-TrustZone", "CRONUS"};
    return systems;
}

} // namespace cronus::bench

#endif // CRONUS_BENCH_BENCH_UTIL_HH
