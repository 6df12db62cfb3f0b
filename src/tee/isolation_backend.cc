#include "isolation_backend.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "base/logging.hh"

namespace cronus::tee
{
namespace
{

/** Regions per 16-entry unit when every region is an Off/TOR pair. */
constexpr size_t kPairsPerUnit = hw::Pmp::kEntries / 2;

/** Program region @p slot of @p unit as an Off/TOR pair over
 *  [lo, hi). The Off entry parks the low bound in its pmpaddr; the
 *  TOR entry reads it as its base even though the entry is Off --
 *  the standard RISC-V idiom for non-power-of-two ranges. */
void
programTorPair(hw::Pmp &unit, size_t slot, PhysAddr lo, PhysAddr hi)
{
    hw::PmpEntry bound;
    bound.mode = hw::PmpMode::Off;
    bound.addr = lo >> 2;
    Status s = unit.configure(slot * 2, bound);
    CRONUS_ASSERT(s.isOk(), "PMP bound entry: " + s.toString());

    hw::PmpEntry top;
    top.mode = hw::PmpMode::Tor;
    top.addr = hi >> 2;
    top.read = true;
    top.write = true;
    s = unit.configure(slot * 2 + 1, top);
    CRONUS_ASSERT(s.isOk(), "PMP top entry: " + s.toString());
}

} // namespace

BackendKind
resolveBackend(BackendSelect select)
{
    if (select == BackendSelect::Tz)
        return BackendKind::Tz;
    if (select == BackendSelect::Pmp)
        return BackendKind::Pmp;
    const char *env = std::getenv("CRONUS_BACKEND");
    if (env == nullptr || env[0] == '\0')
        return BackendKind::Tz;
    if (std::strcmp(env, "pmp") == 0)
        return BackendKind::Pmp;
    if (std::strcmp(env, "tz") != 0)
        warn("unknown CRONUS_BACKEND '" + std::string(env) +
             "', using tz");
    return BackendKind::Tz;
}

const char *
backendName(BackendKind kind)
{
    return kind == BackendKind::Pmp ? "pmp" : "tz";
}

PmpBackend::PmpBackend(PhysAddr untrusted_base,
                       uint64_t untrusted_bytes,
                       StatGroup &stat_group)
    : checks(&stat_group.counter("pmp_checks")),
      faults(&stat_group.counter("pmp_faults")),
      worldFaults(&stat_group.counter("pmp_world_faults")),
      reprograms(&stat_group.counter("pmp_reprograms"))
{
    /* The machine-level classifier concedes exactly the untrusted
     * DRAM range and is locked at boot: even machine-mode software
     * cannot widen it without a reset (the RISC-V analogue of the
     * TZASC lockDown). */
    hw::PmpEntry bound;
    bound.mode = hw::PmpMode::Off;
    bound.addr = untrusted_base >> 2;
    bound.locked = true;
    Status s = machinePmp.configure(0, bound);
    CRONUS_ASSERT(s.isOk(), "machine PMP bound: " + s.toString());

    hw::PmpEntry top;
    top.mode = hw::PmpMode::Tor;
    top.addr = (untrusted_base + untrusted_bytes) >> 2;
    top.read = true;
    top.write = true;
    top.locked = true;
    s = machinePmp.configure(1, top);
    CRONUS_ASSERT(s.isOk(), "machine PMP top: " + s.toString());
}

void
PmpBackend::rebuild(PartitionPmp &part)
{
    part.units.clear();
    size_t regions = 1 + part.windows.size();
    part.units.resize((regions + kPairsPerUnit - 1) / kPairsPerUnit);

    programTorPair(part.units[0], 0, part.base,
                   part.base + part.bytes);
    size_t index = 1;
    for (const auto &[gid, window] : part.windows) {
        programTorPair(part.units[index / kPairsPerUnit],
                       index % kPairsPerUnit, window.base,
                       window.base + window.bytes);
        ++index;
    }
    reprograms->inc();
}

bool
PmpBackend::unitsAllow(const hw::Pmp *units, size_t count,
                       PhysAddr addr, uint64_t len,
                       bool is_write) const
{
    /* A logical SPM access decomposes into per-page bus transactions
     * (the ring fast path already copies page-by-page), so each page
     * chunk must find *a* matching entry -- contiguous windows
     * compose instead of requiring one entry to span them. */
    hw::PmpAccess access =
        is_write ? hw::PmpAccess::Write : hw::PmpAccess::Read;
    while (len > 0) {
        uint64_t chunk = std::min<uint64_t>(
            len, hw::kPageSize - (addr & (hw::kPageSize - 1)));
        bool allowed = false;
        for (size_t i = 0; i < count; ++i) {
            if (units[i].check(addr, chunk, access).isOk()) {
                allowed = true;
                break;
            }
        }
        if (!allowed)
            return false;
        addr += chunk;
        len -= chunk;
    }
    return true;
}

Status
PmpBackend::partitionCreated(PartitionId pid, PhysAddr base,
                             uint64_t bytes)
{
    PartitionPmp &part = parts[pid];
    part.base = base;
    part.bytes = bytes;
    part.windows.clear();
    rebuild(part);
    return Status::ok();
}

void
PmpBackend::partitionScrubbed(PartitionId pid)
{
    auto it = parts.find(pid);
    if (it == parts.end())
        return;
    it->second.windows.clear();
    rebuild(it->second);
}

Status
PmpBackend::grantMapped(uint64_t gid, PartitionId peer,
                        PhysAddr base, uint64_t pages)
{
    auto it = parts.find(peer);
    if (it == parts.end())
        return Status(ErrorCode::NotFound,
                      "PMP: no configuration for partition " +
                          std::to_string(peer));
    it->second.windows[gid] = Window{base, pages * hw::kPageSize};
    rebuild(it->second);
    return Status::ok();
}

void
PmpBackend::grantUnmapped(uint64_t gid, PartitionId peer)
{
    auto it = parts.find(peer);
    if (it == parts.end())
        return;
    if (it->second.windows.erase(gid) > 0)
        rebuild(it->second);
}

Status
PmpBackend::checkAccess(PartitionId pid, PhysAddr addr, uint64_t len,
                        bool is_write)
{
    checks->inc();
    auto it = parts.find(pid);
    if (it == parts.end() ||
        !unitsAllow(it->second.units.data(), it->second.units.size(),
                    addr, len, is_write)) {
        faults->inc();
        return Status(ErrorCode::AccessFault,
                      "PMP: partition " + std::to_string(pid) +
                          " has no entry covering " +
                          std::to_string(addr));
    }
    return Status::ok();
}

Status
PmpBackend::classifyBus(hw::World from, PhysAddr addr, uint64_t len,
                        bool is_write)
{
    /* Trusted-domain traffic (the SPM and secure devices) plays the
     * M/S-mode role: the machine PMP does not constrain it, exactly
     * as secure-world traffic passes the TZASC unconditionally. */
    if (from == hw::World::Secure)
        return Status::ok();
    if (!unitsAllow(&machinePmp, 1, addr, len, is_write)) {
        worldFaults->inc();
        return Status(ErrorCode::AccessFault,
                      "PMP: untrusted access outside conceded DRAM");
    }
    return Status::ok();
}

std::unique_ptr<IsolationBackend>
makeBackend(BackendKind kind, PhysAddr untrusted_base,
            uint64_t untrusted_bytes, StatGroup &stat_group)
{
    if (kind == BackendKind::Pmp)
        return std::make_unique<PmpBackend>(
            untrusted_base, untrusted_bytes, stat_group);
    return std::make_unique<TzBackend>();
}

} // namespace cronus::tee
