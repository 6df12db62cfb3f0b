#include "phys_memory.hh"

#include <cstring>

namespace cronus::hw
{

uint8_t *
PhysicalMemory::pageFor(PhysAddr addr, bool create) const
{
    uint64_t idx = addr >> kPageShift;
    auto it = pages.find(idx);
    if (it != pages.end())
        return it->second.get();
    if (!create)
        return nullptr;
    auto block = std::make_unique<uint8_t[]>(kPageSize);
    std::memset(block.get(), 0, kPageSize);
    uint8_t *raw = block.get();
    pages.emplace(idx, std::move(block));
    return raw;
}

Status
PhysicalMemory::read(PhysAddr addr, uint8_t *out, uint64_t len) const
{
    if (!inRange(addr, len))
        return Status(ErrorCode::AccessFault,
                      "physical read out of range");
    while (len > 0) {
        uint64_t in_page = kPageSize - (addr & (kPageSize - 1));
        uint64_t take = std::min(len, in_page);
        const uint8_t *page = pageFor(addr, false);
        if (page)
            std::memcpy(out, page + (addr & (kPageSize - 1)), take);
        else
            std::memset(out, 0, take);
        addr += take;
        out += take;
        len -= take;
    }
    return Status::ok();
}

Result<Bytes>
PhysicalMemory::read(PhysAddr addr, uint64_t len) const
{
    Bytes out(len);
    Status s = read(addr, out.data(), len);
    if (!s.isOk())
        return s;
    return out;
}

Status
PhysicalMemory::write(PhysAddr addr, const uint8_t *data, uint64_t len)
{
    if (!inRange(addr, len))
        return Status(ErrorCode::AccessFault,
                      "physical write out of range");
    while (len > 0) {
        uint64_t in_page = kPageSize - (addr & (kPageSize - 1));
        uint64_t take = std::min(len, in_page);
        uint8_t *page = pageFor(addr, true);
        std::memcpy(page + (addr & (kPageSize - 1)), data, take);
        addr += take;
        data += take;
        len -= take;
    }
    return Status::ok();
}

Status
PhysicalMemory::write(PhysAddr addr, const Bytes &data)
{
    return write(addr, data.data(), data.size());
}

uint8_t *
PhysicalMemory::hostPage(PhysAddr addr)
{
    if (!inRange(addr, 1))
        return nullptr;
    return pageFor(addr, true);
}

Status
PhysicalMemory::clear(PhysAddr addr, uint64_t len)
{
    if (!inRange(addr, len))
        return Status(ErrorCode::AccessFault,
                      "physical clear out of range");
    while (len > 0) {
        uint64_t in_page = kPageSize - (addr & (kPageSize - 1));
        uint64_t take = std::min(len, in_page);
        uint8_t *page = pageFor(addr, false);
        if (page)
            std::memset(page + (addr & (kPageSize - 1)), 0, take);
        addr += take;
        len -= take;
    }
    return Status::ok();
}

} // namespace cronus::hw
