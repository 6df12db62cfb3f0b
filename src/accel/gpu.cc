#include "gpu.hh"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>

#include "base/logging.hh"

namespace cronus::accel
{

namespace
{

/** Extra per-active-peer contention penalty (Fig. 11a droop). */
constexpr double kContentionPenalty = 0.06;

} // namespace

/* ------------------------------------------------------------------ */
/* GpuAccessor                                                         */
/* ------------------------------------------------------------------ */

Result<uint8_t *>
GpuAccessor::mapRange(GpuVa va, uint64_t count, uint64_t elem_size,
                      bool write)
{
    if (count > std::numeric_limits<uint64_t>::max() / elem_size)
        return Status(ErrorCode::AccessFault, "GPU span size overflow");
    return dev.translate(ctxId, va, count * elem_size, write);
}

/* ------------------------------------------------------------------ */
/* GpuKernelRegistry                                                   */
/* ------------------------------------------------------------------ */

GpuKernelRegistry &
GpuKernelRegistry::instance()
{
    static GpuKernelRegistry registry;
    return registry;
}

void
GpuKernelRegistry::registerKernel(const std::string &name,
                                  GpuKernel kernel)
{
    kernels.emplace(name, std::move(kernel));
}

const GpuKernel *
GpuKernelRegistry::find(const std::string &name) const
{
    auto it = kernels.find(name);
    return it == kernels.end() ? nullptr : &it->second;
}

bool
GpuKernelRegistry::has(const std::string &name) const
{
    return kernels.count(name) > 0;
}

/* ------------------------------------------------------------------ */
/* GpuModuleImage                                                      */
/* ------------------------------------------------------------------ */

Bytes
GpuModuleImage::serialize() const
{
    ByteWriter w;
    w.putString(name);
    w.putU32(static_cast<uint32_t>(kernels.size()));
    for (const auto &k : kernels)
        w.putString(k);
    return w.take();
}

Result<GpuModuleImage>
GpuModuleImage::deserialize(const Bytes &data)
{
    ByteReader r(data);
    GpuModuleImage image;
    auto name = r.getString();
    if (!name.isOk())
        return name.status();
    image.name = name.value();
    auto count = r.getU32();
    if (!count.isOk())
        return count.status();
    if (count.value() > 4096)
        return Status(ErrorCode::InvalidArgument,
                      "implausible kernel count");
    for (uint32_t i = 0; i < count.value(); ++i) {
        auto k = r.getString();
        if (!k.isOk())
            return k.status();
        image.kernels.push_back(k.value());
    }
    return image;
}

/* ------------------------------------------------------------------ */
/* GpuDevice                                                           */
/* ------------------------------------------------------------------ */

GpuDevice::GpuDevice(const GpuConfig &config)
    : AttestedDevice(config.name, "nvidia,gtx2080-sim", 0x1000,
                     config.rotSeed),
      cfg(config), vram(config.vramBytes),
      vramFree{{0, config.vramBytes}}
{
}

Result<uint64_t>
GpuDevice::mmioRead(uint64_t offset)
{
    switch (offset) {
      case 0x0:  return kMagic;
      case 0x8:  return uint64_t(contexts.size());
      case 0x10: return cfg.vramBytes;
      case 0x18: return freeVram();
      default:
        return Status(ErrorCode::AccessFault, "gpu mmio oob read");
    }
}

Status
GpuDevice::mmioWrite(uint64_t offset, uint64_t value)
{
    (void)value;
    if (offset >= mmioSize())
        return Status(ErrorCode::AccessFault, "gpu mmio oob write");
    /* All control goes through the typed driver API; register writes
     * are accepted but ignored. */
    return Status::ok();
}

void
GpuDevice::reset(bool clear_memory)
{
    contexts.clear();
    vramFree = {{0, cfg.vramBytes}};
    /* Fresh zero pages: the old block is freed, not overwritten. */
    if (clear_memory)
        vram = ZeroedMemory<uint8_t>(cfg.vramBytes);
}

Result<GpuDevice::Context *>
GpuDevice::findContext(GpuContextId ctx)
{
    auto it = contexts.find(ctx);
    if (it == contexts.end())
        return Status(ErrorCode::NotFound, "no such GPU context");
    return &it->second;
}

Result<GpuContextId>
GpuDevice::createContext()
{
    if (contexts.size() >= kMaxContexts)
        return Status(ErrorCode::ResourceExhausted,
                      "GPU context limit reached");
    GpuContextId id = nextCtx++;
    contexts.emplace(id, Context{});
    return id;
}

Status
GpuDevice::destroyContext(GpuContextId ctx, bool scrub)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    for (const auto &[va, alloc] : c.value()->allocations) {
        if (scrub)
            std::memset(vram.data() + alloc.offset, 0, alloc.bytes);
        releaseVram(alloc.offset, alloc.bytes);
    }
    contexts.erase(ctx);
    return Status::ok();
}

uint64_t
GpuDevice::freeVram() const
{
    uint64_t freed = 0;
    for (const auto &[off, bytes] : vramFree)
        freed += bytes;
    return freed;
}

Result<GpuVa>
GpuDevice::malloc(GpuContextId ctx, uint64_t bytes)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    if (bytes == 0)
        return Status(ErrorCode::InvalidArgument, "zero allocation");
    uint64_t aligned = hw::pageAlignUp(bytes);

    /* First fit: the lowest free block that is large enough. */
    auto it = vramFree.begin();
    while (it != vramFree.end() && it->second < aligned)
        ++it;
    if (it == vramFree.end())
        return Status(ErrorCode::ResourceExhausted, "out of GPU memory");
    uint64_t offset = it->first;
    uint64_t rest = it->second - aligned;
    vramFree.erase(it);
    if (rest != 0)
        vramFree.emplace(offset + aligned, rest);

    Context &context = *c.value();
    GpuVa va = context.nextVa;
    context.nextVa += aligned;
    Status s = context.vaSpace.map(va, offset,
                                   aligned >> hw::kPageShift,
                                   hw::PagePerms::rw());
    CRONUS_ASSERT(s.isOk(), "gpu va map: " + s.toString());
    context.allocations[va] = Allocation{offset, aligned};
    return va;
}

Status
GpuDevice::free(GpuContextId ctx, GpuVa va)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    Context &context = *c.value();
    auto it = context.allocations.find(va);
    if (it == context.allocations.end())
        return Status(ErrorCode::NotFound, "no such GPU allocation");
    context.vaSpace.unmap(va, it->second.bytes >> hw::kPageShift);
    releaseVram(it->second.offset, it->second.bytes);
    context.allocations.erase(it);
    return Status::ok();
}

void
GpuDevice::releaseVram(uint64_t offset, uint64_t bytes)
{
    /* Merge with both neighbours, so adjacent frees serve one larger
     * allocation again. */
    auto next = vramFree.lower_bound(offset);
    if (next != vramFree.end() && offset + bytes == next->first) {
        bytes += next->second;
        next = vramFree.erase(next);
    }
    if (next != vramFree.begin()) {
        auto prev = std::prev(next);
        if (prev->first + prev->second == offset) {
            prev->second += bytes;
            return;
        }
    }
    vramFree.emplace_hint(next, offset, bytes);
}

Result<uint8_t *>
GpuDevice::translate(GpuContextId ctx, GpuVa va, uint64_t len,
                     bool write)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    if (len == 0)
        return Status(ErrorCode::InvalidArgument, "zero-length map");
    hw::Translation t = c.value()->vaSpace.translate(va, len, write);
    if (!t.ok())
        return Status(ErrorCode::AccessFault,
                      "GPU VA fault at 0x" +
                      detail::formatString("%llx",
                          static_cast<unsigned long long>(va)));
    if (len > cfg.vramBytes || t.phys > cfg.vramBytes - len)
        return Status(ErrorCode::AccessFault, "VRAM range overflow");
    return vram.data() + t.phys;
}

Status
GpuDevice::write(GpuContextId ctx, GpuVa va, const uint8_t *data,
                 uint64_t len)
{
    auto p = translate(ctx, va, len, true);
    if (!p.isOk())
        return p.status();
    std::memcpy(p.value(), data, len);
    return Status::ok();
}

Status
GpuDevice::read(GpuContextId ctx, GpuVa va, uint8_t *out,
                uint64_t len)
{
    auto p = translate(ctx, va, len, false);
    if (!p.isOk())
        return p.status();
    std::memcpy(out, p.value(), len);
    return Status::ok();
}

Result<Bytes>
GpuDevice::snapshotContext(GpuContextId ctx) const
{
    auto it = contexts.find(ctx);
    if (it == contexts.end())
        return Status(ErrorCode::NotFound, "no such GPU context");
    const Context &context = it->second;
    ByteWriter w;
    w.putU32(static_cast<uint32_t>(context.allocations.size()));
    for (const auto &[va, alloc] : context.allocations) {
        w.putU64(va);
        w.putU64(alloc.bytes);
        /* putBytes' layout, written straight from VRAM. */
        w.putU32(static_cast<uint32_t>(alloc.bytes));
        w.putRaw(vram.data() + alloc.offset, alloc.bytes);
    }
    return w.take();
}

Status
GpuDevice::restoreContext(GpuContextId ctx, const Bytes &snapshot)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    if (!c.value()->allocations.empty())
        return Status(ErrorCode::InvalidState,
                      "restore requires a fresh context");
    ByteReader r(snapshot);
    auto count = r.getU32();
    if (!count.isOk())
        return count.status();
    if (count.value() > (1u << 20))
        return Status(ErrorCode::InvalidArgument,
                      "implausible allocation count");
    for (uint32_t i = 0; i < count.value(); ++i) {
        auto va = r.getU64();
        if (!va.isOk())
            return va.status();
        auto bytes = r.getU64();
        if (!bytes.isOk())
            return bytes.status();
        auto contents = r.getBytes();
        if (!contents.isOk())
            return contents.status();
        if (contents.value().size() != bytes.value())
            return Status(ErrorCode::InvalidArgument,
                          "snapshot length mismatch");
        auto placed = malloc(ctx, bytes.value());
        if (!placed.isOk())
            return placed.status();
        if (placed.value() != va.value())
            return Status(ErrorCode::InvalidState,
                          "restored VA diverged from snapshot");
        CRONUS_RETURN_IF_ERROR(write(ctx, placed.value(),
                                     contents.value().data(),
                                     contents.value().size()));
    }
    return Status::ok();
}

Status
GpuDevice::loadModule(GpuContextId ctx, const GpuModuleImage &image)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    for (const auto &kernel : image.kernels) {
        if (!GpuKernelRegistry::instance().has(kernel))
            return Status(ErrorCode::NotFound,
                          "module references unknown kernel '" +
                          kernel + "'");
        c.value()->loadedKernels.insert(kernel);
    }
    return Status::ok();
}

uint32_t
GpuDevice::activeContexts(SimTime now) const
{
    uint32_t active = 0;
    for (const auto &[id, context] : contexts) {
        if (context.busyUntil > now)
            ++active;
    }
    return active;
}

Result<SimTime>
GpuDevice::launch(GpuContextId ctx, const std::string &kernel,
                  const std::vector<uint64_t> &args,
                  const LaunchDims &dims, SimTime now)
{
    auto c = findContext(ctx);
    if (!c.isOk())
        return c.status();
    Context &context = *c.value();
    if (!context.loadedKernels.count(kernel))
        return Status(ErrorCode::PermissionDenied,
                      "kernel '" + kernel +
                      "' not loaded in this context");
    const GpuKernel *info = GpuKernelRegistry::instance().find(kernel);
    CRONUS_ASSERT(info != nullptr, "registry lost kernel");

    /* Functional execution (checked through the context VA space). */
    GpuAccessor accessor(*this, ctx);
    Status s = info->body(accessor, args, dims);
    if (!s.isOk())
        return s;

    /* Timing: spatial-sharing model. Peers with in-flight work share
     * the SMs; packing is free until aggregate utilization exceeds
     * 1.0, then everything dilates, plus a per-peer contention
     * penalty. */
    double total_util = info->utilization;
    uint32_t peers = 0;
    for (const auto &[id, peer] : contexts) {
        if (id != ctx && peer.busyUntil > now) {
            total_util += peer.currentUtilization;
            ++peers;
        }
    }
    double dilation = std::max(1.0, total_util) *
                      (1.0 + kContentionPenalty * peers);

    double busy_ns = info->launchOverheadNs +
                     dims.workItems * info->nsPerItem * dilation;
    SimTime start = std::max(now, context.busyUntil);
    context.busyUntil = start + static_cast<SimTime>(busy_ns);
    context.currentUtilization = info->utilization;
    return context.busyUntil;
}

SimTime
GpuDevice::streamBusyUntil(GpuContextId ctx) const
{
    auto it = contexts.find(ctx);
    return it == contexts.end() ? 0 : it->second.busyUntil;
}

} // namespace cronus::accel
