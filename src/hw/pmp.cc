#include "pmp.hh"

#include "base/logging.hh"

namespace cronus::hw
{

Result<uint64_t>
Pmp::napotEncode(PhysAddr base, uint64_t size)
{
    if (size < 8 || (size & (size - 1)) != 0)
        return Status(ErrorCode::InvalidArgument,
                      "NAPOT size must be a power of two >= 8");
    if (base % size != 0)
        return Status(ErrorCode::InvalidArgument,
                      "NAPOT base must be naturally aligned");
    /* pmpaddr = (base >> 2) | ((size/2 - 1) >> 2)  -- the trailing
     * ones encode log2(size). */
    return (base >> 2) | ((size / 2 - 1) >> 2);
}

std::pair<PhysAddr, uint64_t>
Pmp::napotDecode(uint64_t addr)
{
    /* Count trailing ones. */
    int ones = 0;
    uint64_t v = addr;
    while (v & 1) {
        ++ones;
        v >>= 1;
    }
    uint64_t size = 8ull << ones;
    PhysAddr base = (addr & ~((1ull << (ones + 1)) - 1)) << 2;
    return {base, size};
}

Status
Pmp::configure(size_t index, const PmpEntry &entry)
{
    if (index >= kEntries)
        return Status(ErrorCode::InvalidArgument,
                      "PMP entry index out of range");
    if (entries[index].locked)
        return Status(ErrorCode::PermissionDenied,
                      "PMP entry is locked");
    entries[index] = entry;
    return Status::ok();
}

void
Pmp::reset()
{
    for (auto &entry : entries) {
        if (!entry.locked)
            entry = PmpEntry{};
    }
}

const PmpEntry &
Pmp::entry(size_t index) const
{
    CRONUS_ASSERT(index < kEntries, "PMP entry out of range");
    return entries[index];
}

bool
Pmp::matches(size_t index, PhysAddr addr, uint64_t len) const
{
    const PmpEntry &e = entries[index];
    PhysAddr lo = 0, hi = 0;
    switch (e.mode) {
      case PmpMode::Off:
        return false;
      case PmpMode::Na4:
        lo = e.addr << 2;
        hi = lo + 4;
        break;
      case PmpMode::Napot: {
        auto [base, size] = napotDecode(e.addr);
        lo = base;
        hi = base + size;
        break;
      }
      case PmpMode::Tor:
        lo = index == 0 ? 0 : (entries[index - 1].addr << 2);
        hi = e.addr << 2;
        break;
    }
    /* PMP requires the whole access inside the matching range. */
    return addr >= lo && addr + len <= hi;
}

Status
Pmp::check(PhysAddr addr, uint64_t len, PmpAccess access) const
{
    if (len == 0)
        len = 1;
    for (size_t i = 0; i < kEntries; ++i) {
        if (entries[i].mode == PmpMode::Off)
            continue;
        if (!matches(i, addr, len))
            continue;
        const PmpEntry &e = entries[i];
        bool allowed = (access == PmpAccess::Read && e.read) ||
                       (access == PmpAccess::Write && e.write) ||
                       (access == PmpAccess::Exec && e.exec);
        if (allowed)
            return Status::ok();
        return Status(ErrorCode::AccessFault,
                      "PMP entry " + std::to_string(i) +
                      " denies the access");
    }
    return Status(ErrorCode::AccessFault,
                  "no PMP entry matches (default deny)");
}

} // namespace cronus::hw
