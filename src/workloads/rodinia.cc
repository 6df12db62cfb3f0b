#include "rodinia.hh"

#include <cmath>
#include <cstring>
#include <functional>

#include "accel/builtin_kernels.hh"
#include "accel/gpu.hh"
#include "base/logging.hh"
#include "base/rng.hh"

namespace cronus::workloads
{

using accel::accumulateRows;
using accel::GpuAccessor;
using accel::GpuKernel;
using accel::GpuKernelRegistry;
using accel::LaunchDims;
using baseline::ComputeBackend;

namespace
{

/* ---------------- helpers ---------------- */

Bytes
floatsToBytes(const std::vector<float> &v)
{
    const uint8_t *p = reinterpret_cast<const uint8_t *>(v.data());
    return Bytes(p, p + v.size() * sizeof(float));
}

std::vector<float>
bytesToFloats(const Bytes &b)
{
    std::vector<float> out(b.size() / sizeof(float));
    std::memcpy(out.data(), b.data(), out.size() * sizeof(float));
    return out;
}

Bytes
intsToBytes(const std::vector<int32_t> &v)
{
    const uint8_t *p = reinterpret_cast<const uint8_t *>(v.data());
    return Bytes(p, p + v.size() * sizeof(int32_t));
}

std::vector<int32_t>
bytesToInts(const Bytes &b)
{
    std::vector<int32_t> out(b.size() / sizeof(int32_t));
    std::memcpy(out.data(), b.data(), out.size() * sizeof(int32_t));
    return out;
}

bool
nearlyEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        float diff = std::fabs(a[i] - b[i]);
        float mag = std::max(std::fabs(a[i]), std::fabs(b[i]));
        if (diff > 1e-3f * std::max(mag, 1.0f))
            return false;
    }
    return true;
}

Status
needArgs(const std::vector<uint64_t> &args, size_t n,
         const char *kernel)
{
    if (args.size() != n)
        return Status(ErrorCode::InvalidArgument,
                      std::string(kernel) + ": bad argument count");
    return Status::ok();
}

/* ---------------- kernel bodies ---------------- */

Status
gaussianBody(GpuAccessor &mem, const std::vector<uint64_t> &args,
             const LaunchDims &)
{
    CRONUS_RETURN_IF_ERROR(needArgs(args, 3, "rodinia_gaussian"));
    uint64_t n = args[1], k = args[2];
    auto a = mem.span<float>(args[0], n * n);
    if (!a.isOk())
        return a.status();
    float *m = a.value();
    float pivot = m[k * n + k];
    if (pivot == 0.0f)
        return Status(ErrorCode::InvalidArgument, "singular pivot");
    for (uint64_t i = k + 1; i < n; ++i) {
        float factor = m[i * n + k] / pivot;
        for (uint64_t j = k; j < n; ++j)
            m[i * n + j] -= factor * m[k * n + j];
    }
    return Status::ok();
}

Status
hotspotBody(GpuAccessor &mem, const std::vector<uint64_t> &args,
            const LaunchDims &)
{
    CRONUS_RETURN_IF_ERROR(needArgs(args, 5, "rodinia_hotspot"));
    uint64_t rows = args[3], cols = args[4];
    auto tin = mem.constSpan<float>(args[0], rows * cols);
    auto tout = mem.span<float>(args[1], rows * cols);
    auto power = mem.constSpan<float>(args[2], rows * cols);
    if (!tin.isOk() || !tout.isOk() || !power.isOk())
        return Status(ErrorCode::AccessFault, "hotspot span fault");
    const float *in = tin.value();
    const float *pw = power.value();
    float *out = tout.value();
    for (uint64_t r = 0; r < rows; ++r) {
        for (uint64_t c = 0; c < cols; ++c) {
            float center = in[r * cols + c];
            float up = r > 0 ? in[(r - 1) * cols + c] : center;
            float down = r + 1 < rows ? in[(r + 1) * cols + c]
                                      : center;
            float left = c > 0 ? in[r * cols + c - 1] : center;
            float right = c + 1 < cols ? in[r * cols + c + 1]
                                       : center;
            float lap = (up + down + left + right) * 0.25f - center;
            out[r * cols + c] =
                center + 0.5f * lap + 0.05f * pw[r * cols + c];
        }
    }
    return Status::ok();
}

Status
pathfinderBody(GpuAccessor &mem, const std::vector<uint64_t> &args,
               const LaunchDims &)
{
    CRONUS_RETURN_IF_ERROR(needArgs(args, 5, "rodinia_pathfinder"));
    uint64_t cols = args[3], row = args[4];
    auto prev = mem.constSpan<float>(args[0], cols);
    auto cur = mem.span<float>(args[1], cols);
    auto wall = mem.constSpan<float>(args[2], cols * (row + 1));
    if (!prev.isOk() || !cur.isOk() || !wall.isOk())
        return Status(ErrorCode::AccessFault, "pathfinder fault");
    for (uint64_t j = 0; j < cols; ++j) {
        float best = prev.value()[j];
        if (j > 0)
            best = std::min(best, prev.value()[j - 1]);
        if (j + 1 < cols)
            best = std::min(best, prev.value()[j + 1]);
        cur.value()[j] = wall.value()[row * cols + j] + best;
    }
    return Status::ok();
}

Status
bfsBody(GpuAccessor &mem, const std::vector<uint64_t> &args,
        const LaunchDims &)
{
    CRONUS_RETURN_IF_ERROR(needArgs(args, 5, "rodinia_bfs"));
    uint64_t n = args[3];
    int32_t level = static_cast<int32_t>(args[4]);
    auto offsets = mem.constSpan<int32_t>(args[0], n + 1);
    if (!offsets.isOk())
        return offsets.status();
    uint64_t n_edges = offsets.value()[n];
    auto edges = mem.constSpan<int32_t>(args[1], n_edges);
    auto levels = mem.span<int32_t>(args[2], n);
    if (!edges.isOk() || !levels.isOk())
        return Status(ErrorCode::AccessFault, "bfs span fault");
    for (uint64_t v = 0; v < n; ++v) {
        if (levels.value()[v] != level)
            continue;
        for (int32_t e = offsets.value()[v];
             e < offsets.value()[v + 1]; ++e) {
            int32_t to = edges.value()[e];
            if (levels.value()[to] < 0)
                levels.value()[to] = level + 1;
        }
    }
    return Status::ok();
}

Status
nwBody(GpuAccessor &mem, const std::vector<uint64_t> &args,
       const LaunchDims &)
{
    CRONUS_RETURN_IF_ERROR(needArgs(args, 6, "rodinia_nw"));
    uint64_t cols = args[4], row = args[5];
    auto prev = mem.constSpan<int32_t>(args[0], cols);
    auto cur = mem.span<int32_t>(args[1], cols);
    auto seq_a = mem.constSpan<int32_t>(args[2], row + 1);
    auto seq_b = mem.constSpan<int32_t>(args[3], cols);
    if (!prev.isOk() || !cur.isOk() || !seq_a.isOk() || !seq_b.isOk())
        return Status(ErrorCode::AccessFault, "nw span fault");
    const int32_t penalty = 1;
    cur.value()[0] = prev.value()[0] - penalty;
    for (uint64_t j = 1; j < cols; ++j) {
        int32_t match = seq_a.value()[row] == seq_b.value()[j] ? 2
                                                               : -1;
        int32_t best = prev.value()[j - 1] + match;
        best = std::max(best, prev.value()[j] - penalty);
        best = std::max(best, cur.value()[j - 1] - penalty);
        cur.value()[j] = best;
    }
    return Status::ok();
}

Status
sradBody(GpuAccessor &mem, const std::vector<uint64_t> &args,
         const LaunchDims &)
{
    CRONUS_RETURN_IF_ERROR(needArgs(args, 4, "rodinia_srad"));
    uint64_t rows = args[2], cols = args[3];
    auto img = mem.constSpan<float>(args[0], rows * cols);
    auto out = mem.span<float>(args[1], rows * cols);
    if (!img.isOk() || !out.isOk())
        return Status(ErrorCode::AccessFault, "srad span fault");
    const float *in = img.value();
    for (uint64_t r = 0; r < rows; ++r) {
        for (uint64_t c = 0; c < cols; ++c) {
            float center = in[r * cols + c];
            float up = r > 0 ? in[(r - 1) * cols + c] : center;
            float left = c > 0 ? in[r * cols + c - 1] : center;
            float gx = up - center;
            float gy = left - center;
            float grad2 = gx * gx + gy * gy;
            float coeff = 1.0f / (1.0f + grad2);
            out.value()[r * cols + c] =
                center + 0.25f * coeff * (gx + gy);
        }
    }
    return Status::ok();
}

Status
backpropBody(GpuAccessor &mem, const std::vector<uint64_t> &args,
             const LaunchDims &)
{
    CRONUS_RETURN_IF_ERROR(needArgs(args, 5, "rodinia_backprop"));
    uint64_t n_in = args[3], n_out = args[4];
    auto in = mem.constSpan<float>(args[0], n_in);
    auto w = mem.constSpan<float>(args[1], n_in * n_out);
    auto out = mem.span<float>(args[2], n_out);
    if (!in.isOk() || !w.isOk() || !out.isOk())
        return Status(ErrorCode::AccessFault, "backprop span fault");
    /* One accumulator per output, filled over contiguous rows of w:
     * output j still sums in[i] * w[i][j] from 0.0f with i
     * ascending, so the result matches the column-walking loop in
     * runBackprop bit for bit. */
    std::vector<float> acc(n_out, 0.0f);
    accumulateRows(acc.data(), in.value(), w.value(), n_in, n_out);
    for (uint64_t j = 0; j < n_out; ++j)
        out.value()[j] = std::tanh(acc[j]);
    return Status::ok();
}

Status
ludBody(GpuAccessor &mem, const std::vector<uint64_t> &args,
        const LaunchDims &)
{
    CRONUS_RETURN_IF_ERROR(needArgs(args, 3, "rodinia_lud"));
    uint64_t n = args[1], k = args[2];
    auto a = mem.span<float>(args[0], n * n);
    if (!a.isOk())
        return a.status();
    float *m = a.value();
    float pivot = m[k * n + k];
    if (pivot == 0.0f)
        return Status(ErrorCode::InvalidArgument, "singular pivot");
    for (uint64_t i = k + 1; i < n; ++i)
        m[i * n + k] /= pivot;
    for (uint64_t i = k + 1; i < n; ++i) {
        for (uint64_t j = k + 1; j < n; ++j)
            m[i * n + j] -= m[i * n + k] * m[k * n + j];
    }
    return Status::ok();
}

Status
kmeansBody(GpuAccessor &mem, const std::vector<uint64_t> &args,
           const LaunchDims &)
{
    CRONUS_RETURN_IF_ERROR(needArgs(args, 6, "rodinia_kmeans"));
    uint64_t n = args[3], k = args[4], dim = args[5];
    auto points = mem.constSpan<float>(args[0], n * dim);
    auto centroids = mem.constSpan<float>(args[1], k * dim);
    auto assign = mem.span<int32_t>(args[2], n);
    if (!points.isOk() || !centroids.isOk() || !assign.isOk())
        return Status(ErrorCode::AccessFault, "kmeans span fault");
    for (uint64_t p = 0; p < n; ++p) {
        float best = 1e30f;
        int32_t best_c = 0;
        for (uint64_t c = 0; c < k; ++c) {
            float dist = 0.0f;
            for (uint64_t d = 0; d < dim; ++d) {
                float diff = points.value()[p * dim + d] -
                             centroids.value()[c * dim + d];
                dist += diff * diff;
            }
            if (dist < best) {
                best = dist;
                best_c = static_cast<int32_t>(c);
            }
        }
        assign.value()[p] = best_c;
    }
    return Status::ok();
}

struct KernelSpec
{
    const char *name;
    Status (*body)(GpuAccessor &, const std::vector<uint64_t> &,
                   const LaunchDims &);
    double utilization;
    double nsPerItem;
};

const KernelSpec kSpecs[] = {
    {"rodinia_gaussian", gaussianBody, 0.90, 0.020},
    {"rodinia_hotspot", hotspotBody, 0.85, 0.060},
    {"rodinia_pathfinder", pathfinderBody, 0.60, 0.050},
    {"rodinia_bfs", bfsBody, 0.55, 0.080},
    {"rodinia_nw", nwBody, 0.50, 0.070},
    {"rodinia_srad", sradBody, 0.85, 0.070},
    {"rodinia_backprop", backpropBody, 0.80, 0.025},
    {"rodinia_lud", ludBody, 0.90, 0.022},
    {"rodinia_kmeans", kmeansBody, 0.88, 0.030},
};

} // namespace

void
registerRodiniaKernels()
{
    auto &reg = GpuKernelRegistry::instance();
    if (reg.has("rodinia_gaussian"))
        return;
    for (const auto &spec : kSpecs) {
        GpuKernel kernel;
        kernel.body = spec.body;
        kernel.utilization = spec.utilization;
        kernel.nsPerItem = spec.nsPerItem;
        reg.registerKernel(spec.name, kernel);
    }
}

const std::vector<std::string> &
rodiniaKernelNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &spec : kSpecs)
            out.push_back(spec.name);
        return out;
    }();
    return names;
}

const std::vector<std::string> &
rodiniaBenchmarks()
{
    static const std::vector<std::string> names = {
        "gaussian", "hotspot", "pathfinder", "bfs",      "nw",
        "srad",     "backprop", "lud",       "kmeans"};
    return names;
}

namespace
{

/* ---------------- drivers ---------------- */

struct Ctx
{
    ComputeBackend &b;
    Rng rng;

    explicit Ctx(ComputeBackend &backend, uint64_t seed)
        : b(backend), rng(seed) {}

    Result<uint64_t>
    uploadFloats(const std::vector<float> &v)
    {
        auto va = b.gpuAlloc(v.size() * sizeof(float));
        if (!va.isOk())
            return va;
        Status s = b.copyToGpu(va.value(), floatsToBytes(v));
        if (!s.isOk())
            return s;
        return va;
    }

    Result<uint64_t>
    uploadInts(const std::vector<int32_t> &v)
    {
        auto va = b.gpuAlloc(v.size() * sizeof(int32_t));
        if (!va.isOk())
            return va;
        Status s = b.copyToGpu(va.value(), intsToBytes(v));
        if (!s.isOk())
            return s;
        return va;
    }

    std::vector<float>
    randomFloats(size_t n, float lo = 0.0f, float hi = 1.0f)
    {
        std::vector<float> out(n);
        for (auto &v : out)
            v = static_cast<float>(rng.nextRange(lo, hi));
        return out;
    }
};

Result<RodiniaResult>
runGaussian(Ctx &ctx, const RodiniaSize &size)
{
    uint64_t n = std::min<uint64_t>(size.scale, 96);
    std::vector<float> a = ctx.randomFloats(n * n, 1.0f, 2.0f);
    for (uint64_t i = 0; i < n; ++i)
        a[i * n + i] += n;  /* diagonally dominant */
    std::vector<float> host = a;

    auto va = ctx.uploadFloats(a);
    if (!va.isOk())
        return va.status();
    for (uint64_t k = 0; k + 1 < n; ++k) {
        CRONUS_RETURN_IF_ERROR(ctx.b.launchKernel(
            "rodinia_gaussian", {va.value(), n, k},
            (n - k) * (n - k)));
    }
    auto out = ctx.b.copyFromGpu(va.value(), n * n * sizeof(float));
    if (!out.isOk())
        return out.status();

    for (uint64_t k = 0; k + 1 < n; ++k) {
        float pivot = host[k * n + k];
        for (uint64_t i = k + 1; i < n; ++i) {
            float factor = host[i * n + k] / pivot;
            for (uint64_t j = k; j < n; ++j)
                host[i * n + j] -= factor * host[k * n + j];
        }
    }
    RodiniaResult result;
    result.verified = nearlyEqual(bytesToFloats(out.value()), host);
    return result;
}

Result<RodiniaResult>
runHotspot(Ctx &ctx, const RodiniaSize &size)
{
    uint64_t dim = std::min<uint64_t>(size.scale, 128);
    std::vector<float> temp = ctx.randomFloats(dim * dim, 20, 90);
    std::vector<float> power = ctx.randomFloats(dim * dim, 0, 2);
    auto va_a = ctx.uploadFloats(temp);
    auto va_b = ctx.uploadFloats(std::vector<float>(dim * dim, 0));
    auto va_p = ctx.uploadFloats(power);
    if (!va_a.isOk() || !va_b.isOk() || !va_p.isOk())
        return Status(ErrorCode::ResourceExhausted, "hotspot alloc");

    uint64_t src = va_a.value(), dst = va_b.value();
    for (uint32_t it = 0; it < size.iterations; ++it) {
        CRONUS_RETURN_IF_ERROR(ctx.b.launchKernel(
            "rodinia_hotspot", {src, dst, va_p.value(), dim, dim},
            dim * dim));
        std::swap(src, dst);
    }
    auto out = ctx.b.copyFromGpu(src, dim * dim * sizeof(float));
    if (!out.isOk())
        return out.status();

    std::vector<float> host = temp, next(dim * dim);
    for (uint32_t it = 0; it < size.iterations; ++it) {
        for (uint64_t r = 0; r < dim; ++r) {
            for (uint64_t c = 0; c < dim; ++c) {
                float center = host[r * dim + c];
                float up = r > 0 ? host[(r - 1) * dim + c] : center;
                float down = r + 1 < dim ? host[(r + 1) * dim + c]
                                         : center;
                float left = c > 0 ? host[r * dim + c - 1] : center;
                float right = c + 1 < dim ? host[r * dim + c + 1]
                                          : center;
                float lap =
                    (up + down + left + right) * 0.25f - center;
                next[r * dim + c] = center + 0.5f * lap +
                                    0.05f * power[r * dim + c];
            }
        }
        host.swap(next);
    }
    RodiniaResult result;
    result.verified = nearlyEqual(bytesToFloats(out.value()), host);
    return result;
}

Result<RodiniaResult>
runPathfinder(Ctx &ctx, const RodiniaSize &size)
{
    uint64_t cols = size.scale;
    uint64_t rows = std::max<uint32_t>(size.iterations, 2);
    std::vector<float> wall = ctx.randomFloats(rows * cols, 0, 10);
    std::vector<float> first(wall.begin(), wall.begin() + cols);

    auto va_wall = ctx.uploadFloats(wall);
    auto va_prev = ctx.uploadFloats(first);
    auto va_cur = ctx.uploadFloats(std::vector<float>(cols, 0));
    if (!va_wall.isOk() || !va_prev.isOk() || !va_cur.isOk())
        return Status(ErrorCode::ResourceExhausted, "pf alloc");

    uint64_t prev = va_prev.value(), cur = va_cur.value();
    for (uint64_t row = 1; row < rows; ++row) {
        CRONUS_RETURN_IF_ERROR(ctx.b.launchKernel(
            "rodinia_pathfinder",
            {prev, cur, va_wall.value(), cols, row}, cols * 3));
        std::swap(prev, cur);
    }
    auto out = ctx.b.copyFromGpu(prev, cols * sizeof(float));
    if (!out.isOk())
        return out.status();

    std::vector<float> hp = first, hc(cols);
    for (uint64_t row = 1; row < rows; ++row) {
        for (uint64_t j = 0; j < cols; ++j) {
            float best = hp[j];
            if (j > 0)
                best = std::min(best, hp[j - 1]);
            if (j + 1 < cols)
                best = std::min(best, hp[j + 1]);
            hc[j] = wall[row * cols + j] + best;
        }
        hp.swap(hc);
    }
    RodiniaResult result;
    result.verified = nearlyEqual(bytesToFloats(out.value()), hp);
    return result;
}

Result<RodiniaResult>
runBfs(Ctx &ctx, const RodiniaSize &size)
{
    uint64_t n = size.scale;
    uint64_t degree = 4;
    std::vector<int32_t> offsets(n + 1, 0);
    std::vector<int32_t> edges;
    for (uint64_t v = 0; v < n; ++v) {
        for (uint64_t d = 0; d < degree; ++d)
            edges.push_back(
                static_cast<int32_t>(ctx.rng.nextBelow(n)));
        offsets[v + 1] = static_cast<int32_t>(edges.size());
    }
    std::vector<int32_t> levels(n, -1);
    levels[0] = 0;

    auto va_off = ctx.uploadInts(offsets);
    auto va_edges = ctx.uploadInts(edges);
    auto va_levels = ctx.uploadInts(levels);
    if (!va_off.isOk() || !va_edges.isOk() || !va_levels.isOk())
        return Status(ErrorCode::ResourceExhausted, "bfs alloc");

    uint32_t max_level = size.iterations;
    for (uint32_t level = 0; level < max_level; ++level) {
        CRONUS_RETURN_IF_ERROR(ctx.b.launchKernel(
            "rodinia_bfs",
            {va_off.value(), va_edges.value(), va_levels.value(), n,
             level},
            edges.size()));
    }
    auto out = ctx.b.copyFromGpu(va_levels.value(),
                                 n * sizeof(int32_t));
    if (!out.isOk())
        return out.status();

    std::vector<int32_t> host(n, -1);
    host[0] = 0;
    for (uint32_t level = 0; level < max_level; ++level) {
        for (uint64_t v = 0; v < n; ++v) {
            if (host[v] != static_cast<int32_t>(level))
                continue;
            for (int32_t e = offsets[v]; e < offsets[v + 1]; ++e) {
                if (host[edges[e]] < 0)
                    host[edges[e]] = level + 1;
            }
        }
    }
    RodiniaResult result;
    result.verified = bytesToInts(out.value()) == host;
    return result;
}

Result<RodiniaResult>
runNw(Ctx &ctx, const RodiniaSize &size)
{
    uint64_t cols = size.scale;
    uint64_t rows = std::max<uint64_t>(size.iterations * 8, 8);
    std::vector<int32_t> seq_a(rows), seq_b(cols);
    for (auto &v : seq_a)
        v = static_cast<int32_t>(ctx.rng.nextBelow(4));
    for (auto &v : seq_b)
        v = static_cast<int32_t>(ctx.rng.nextBelow(4));
    std::vector<int32_t> first(cols);
    for (uint64_t j = 0; j < cols; ++j)
        first[j] = -static_cast<int32_t>(j);

    auto va_prev = ctx.uploadInts(first);
    auto va_cur = ctx.uploadInts(std::vector<int32_t>(cols, 0));
    auto va_a = ctx.uploadInts(seq_a);
    auto va_b = ctx.uploadInts(seq_b);
    if (!va_prev.isOk() || !va_cur.isOk() || !va_a.isOk() ||
        !va_b.isOk())
        return Status(ErrorCode::ResourceExhausted, "nw alloc");

    uint64_t prev = va_prev.value(), cur = va_cur.value();
    for (uint64_t row = 0; row < rows; ++row) {
        CRONUS_RETURN_IF_ERROR(ctx.b.launchKernel(
            "rodinia_nw",
            {prev, cur, va_a.value(), va_b.value(), cols, row},
            cols * 3));
        std::swap(prev, cur);
    }
    auto out = ctx.b.copyFromGpu(prev, cols * sizeof(int32_t));
    if (!out.isOk())
        return out.status();

    std::vector<int32_t> hp = first, hc(cols);
    const int32_t penalty = 1;
    for (uint64_t row = 0; row < rows; ++row) {
        hc[0] = hp[0] - penalty;
        for (uint64_t j = 1; j < cols; ++j) {
            int32_t match = seq_a[row] == seq_b[j] ? 2 : -1;
            int32_t best = hp[j - 1] + match;
            best = std::max(best, hp[j] - penalty);
            best = std::max(best, hc[j - 1] - penalty);
            hc[j] = best;
        }
        hp.swap(hc);
    }
    RodiniaResult result;
    result.verified = bytesToInts(out.value()) == hp;
    return result;
}

Result<RodiniaResult>
runSrad(Ctx &ctx, const RodiniaSize &size)
{
    uint64_t dim = std::min<uint64_t>(size.scale, 128);
    std::vector<float> img = ctx.randomFloats(dim * dim, 0, 255);
    auto va_a = ctx.uploadFloats(img);
    auto va_b = ctx.uploadFloats(std::vector<float>(dim * dim, 0));
    if (!va_a.isOk() || !va_b.isOk())
        return Status(ErrorCode::ResourceExhausted, "srad alloc");

    uint64_t src = va_a.value(), dst = va_b.value();
    for (uint32_t it = 0; it < size.iterations; ++it) {
        CRONUS_RETURN_IF_ERROR(ctx.b.launchKernel(
            "rodinia_srad", {src, dst, dim, dim}, dim * dim));
        std::swap(src, dst);
    }
    auto out = ctx.b.copyFromGpu(src, dim * dim * sizeof(float));
    if (!out.isOk())
        return out.status();

    std::vector<float> host = img, next(dim * dim);
    for (uint32_t it = 0; it < size.iterations; ++it) {
        for (uint64_t r = 0; r < dim; ++r) {
            for (uint64_t c = 0; c < dim; ++c) {
                float center = host[r * dim + c];
                float up = r > 0 ? host[(r - 1) * dim + c] : center;
                float left = c > 0 ? host[r * dim + c - 1] : center;
                float gx = up - center;
                float gy = left - center;
                float coeff = 1.0f / (1.0f + gx * gx + gy * gy);
                next[r * dim + c] =
                    center + 0.25f * coeff * (gx + gy);
            }
        }
        host.swap(next);
    }
    RodiniaResult result;
    result.verified = nearlyEqual(bytesToFloats(out.value()), host);
    return result;
}

Result<RodiniaResult>
runBackprop(Ctx &ctx, const RodiniaSize &size)
{
    uint64_t n_in = size.scale;
    uint64_t n_out = std::max<uint64_t>(size.scale / 4, 4);
    std::vector<float> in = ctx.randomFloats(n_in, -1, 1);
    std::vector<float> w = ctx.randomFloats(n_in * n_out, -0.1f,
                                            0.1f);
    auto va_in = ctx.uploadFloats(in);
    auto va_w = ctx.uploadFloats(w);
    auto va_out = ctx.uploadFloats(std::vector<float>(n_out, 0));
    if (!va_in.isOk() || !va_w.isOk() || !va_out.isOk())
        return Status(ErrorCode::ResourceExhausted, "bp alloc");

    for (uint32_t it = 0; it < size.iterations; ++it) {
        CRONUS_RETURN_IF_ERROR(ctx.b.launchKernel(
            "rodinia_backprop",
            {va_in.value(), va_w.value(), va_out.value(), n_in,
             n_out},
            n_in * n_out));
    }
    auto out = ctx.b.copyFromGpu(va_out.value(),
                                 n_out * sizeof(float));
    if (!out.isOk())
        return out.status();

    std::vector<float> host(n_out);
    for (uint64_t j = 0; j < n_out; ++j) {
        float acc = 0.0f;
        for (uint64_t i = 0; i < n_in; ++i)
            acc += in[i] * w[i * n_out + j];
        host[j] = std::tanh(acc);
    }
    RodiniaResult result;
    result.verified = nearlyEqual(bytesToFloats(out.value()), host);
    return result;
}

Result<RodiniaResult>
runLud(Ctx &ctx, const RodiniaSize &size)
{
    uint64_t n = std::min<uint64_t>(size.scale, 96);
    std::vector<float> a = ctx.randomFloats(n * n, 1.0f, 2.0f);
    for (uint64_t i = 0; i < n; ++i)
        a[i * n + i] += n;
    std::vector<float> host = a;

    auto va = ctx.uploadFloats(a);
    if (!va.isOk())
        return va.status();
    for (uint64_t k = 0; k + 1 < n; ++k) {
        CRONUS_RETURN_IF_ERROR(ctx.b.launchKernel(
            "rodinia_lud", {va.value(), n, k}, (n - k) * (n - k)));
    }
    auto out = ctx.b.copyFromGpu(va.value(), n * n * sizeof(float));
    if (!out.isOk())
        return out.status();

    for (uint64_t k = 0; k + 1 < n; ++k) {
        float pivot = host[k * n + k];
        for (uint64_t i = k + 1; i < n; ++i)
            host[i * n + k] /= pivot;
        for (uint64_t i = k + 1; i < n; ++i) {
            for (uint64_t j = k + 1; j < n; ++j)
                host[i * n + j] -= host[i * n + k] * host[k * n + j];
        }
    }
    RodiniaResult result;
    result.verified = nearlyEqual(bytesToFloats(out.value()), host);
    return result;
}

Result<RodiniaResult>
runKmeans(Ctx &ctx, const RodiniaSize &size)
{
    uint64_t n = size.scale;
    uint64_t k = 8, dim = 4;
    std::vector<float> points = ctx.randomFloats(n * dim, 0, 10);
    std::vector<float> centroids = ctx.randomFloats(k * dim, 0, 10);
    auto va_p = ctx.uploadFloats(points);
    auto va_c = ctx.uploadFloats(centroids);
    auto va_a = ctx.uploadInts(std::vector<int32_t>(n, -1));
    if (!va_p.isOk() || !va_c.isOk() || !va_a.isOk())
        return Status(ErrorCode::ResourceExhausted, "kmeans alloc");

    for (uint32_t it = 0; it < size.iterations; ++it) {
        CRONUS_RETURN_IF_ERROR(ctx.b.launchKernel(
            "rodinia_kmeans",
            {va_p.value(), va_c.value(), va_a.value(), n, k, dim},
            n * k * dim));
    }
    auto out = ctx.b.copyFromGpu(va_a.value(), n * sizeof(int32_t));
    if (!out.isOk())
        return out.status();

    std::vector<int32_t> host(n);
    for (uint64_t p = 0; p < n; ++p) {
        float best = 1e30f;
        int32_t best_c = 0;
        for (uint64_t c = 0; c < k; ++c) {
            float dist = 0.0f;
            for (uint64_t d = 0; d < dim; ++d) {
                float diff =
                    points[p * dim + d] - centroids[c * dim + d];
                dist += diff * diff;
            }
            if (dist < best) {
                best = dist;
                best_c = static_cast<int32_t>(c);
            }
        }
        host[p] = best_c;
    }
    RodiniaResult result;
    result.verified = bytesToInts(out.value()) == host;
    return result;
}

} // namespace

Result<RodiniaResult>
runRodinia(ComputeBackend &backend, const std::string &benchmark,
           const RodiniaSize &size)
{
    registerRodiniaKernels();
    Ctx ctx(backend, 0xc0ffee ^ std::hash<std::string>{}(benchmark));

    /* Warm up the backend (channels/boot), then time the run. */
    auto warm = backend.gpuAlloc(hw::kPageSize);
    if (!warm.isOk())
        return warm.status();
    SimTime start = backend.now();

    Result<RodiniaResult> result =
        Status(ErrorCode::NotFound, "unknown benchmark");
    if (benchmark == "gaussian")
        result = runGaussian(ctx, size);
    else if (benchmark == "hotspot")
        result = runHotspot(ctx, size);
    else if (benchmark == "pathfinder")
        result = runPathfinder(ctx, size);
    else if (benchmark == "bfs")
        result = runBfs(ctx, size);
    else if (benchmark == "nw")
        result = runNw(ctx, size);
    else if (benchmark == "srad")
        result = runSrad(ctx, size);
    else if (benchmark == "backprop")
        result = runBackprop(ctx, size);
    else if (benchmark == "lud")
        result = runLud(ctx, size);
    else if (benchmark == "kmeans")
        result = runKmeans(ctx, size);
    if (!result.isOk())
        return result;

    result.value().benchmark = benchmark;
    result.value().computeTimeNs = backend.now() - start;
    return result;
}

} // namespace cronus::workloads
