#include "shim_kernel.hh"

#include "base/logging.hh"

namespace cronus::mos
{

ShimKernel::ShimKernel(tee::Spm &spm, PartitionId partition_id,
                       uint64_t reserved_bytes)
    : partitionManager(spm), pid(partition_id)
{
    auto p = spm.partition(pid);
    CRONUS_ASSERT(p.isOk(), "ShimKernel for unknown partition");
    allocNext = p.value()->memBase + hw::pageAlignUp(reserved_bytes);
    allocEnd = p.value()->memBase + p.value()->memBytes;
    CRONUS_ASSERT(allocNext <= allocEnd,
                  "mOS reservation exceeds partition memory");
}

hw::Platform &
ShimKernel::platform()
{
    return partitionManager.monitor().platform();
}

Result<hw::Device *>
ShimKernel::ioremap(const std::string &device_name)
{
    return platform().accessDevice(device_name, hw::World::Secure);
}

void
ShimKernel::resetAllocator(uint64_t reserved_bytes)
{
    auto p = partitionManager.partition(pid);
    CRONUS_ASSERT(p.isOk(), "resetAllocator on unknown partition");
    allocNext = p.value()->memBase + hw::pageAlignUp(reserved_bytes);
    allocEnd = p.value()->memBase + p.value()->memBytes;
}

Result<PhysAddr>
ShimKernel::allocPages(uint64_t pages)
{
    uint64_t bytes = pages * hw::kPageSize;
    if (allocNext + bytes > allocEnd)
        return Status(ErrorCode::ResourceExhausted,
                      "partition memory exhausted");
    PhysAddr addr = allocNext;
    allocNext += bytes;
    return addr;
}

void
ShimKernel::freePages(PhysAddr base, uint64_t pages)
{
    if (base + pages * hw::kPageSize == allocNext)
        allocNext = base;
}

Result<Bytes>
ShimKernel::read(PhysAddr addr, uint64_t len)
{
    return partitionManager.read(pid, addr, len);
}

Status
ShimKernel::write(PhysAddr addr, const Bytes &data)
{
    return partitionManager.write(pid, addr, data);
}

Status
ShimKernel::write(PhysAddr addr, const uint8_t *data, uint64_t len)
{
    return partitionManager.write(pid, addr, data, len);
}

Status
ShimKernel::readInto(PhysAddr addr, uint8_t *out, uint64_t len)
{
    return partitionManager.readInto(pid, addr, out, len);
}

Status
ShimKernel::spinLock(PhysAddr addr)
{
    hw::Platform &plat = platform();
    /* Compare-and-swap loop on the lock word; in the deterministic
     * single-scheduler simulation at most a few spins happen. */
    for (int attempt = 0; attempt < 1024; ++attempt) {
        uint8_t word = 0;
        Status s = partitionManager.readInto(pid, addr, &word, 1);
        if (!s.isOk())
            return s;  /* PeerFailed propagates (A2) */
        plat.clock().advance(plat.costs().spinlockOpNs);
        if (word == 0) {
            const uint8_t one = 1;
            return partitionManager.write(pid, addr, &one, 1);
        }
    }
    return Status(ErrorCode::Timeout, "spinlock livelock");
}

Status
ShimKernel::spinUnlock(PhysAddr addr)
{
    hw::Platform &plat = platform();
    plat.clock().advance(plat.costs().spinlockOpNs);
    const uint8_t zero = 0;
    return partitionManager.write(pid, addr, &zero, 1);
}

Status
ShimKernel::dmaMap(hw::StreamId stream, hw::VirtAddr iova,
                   PhysAddr pa, uint64_t pages, uint64_t tag)
{
    hw::Platform &plat = platform();
    CRONUS_RETURN_IF_ERROR(plat.smmu().streamTable(stream).map(
        iova, pa, pages, hw::PagePerms::rw(), tag));
    plat.clock().advance(pages * plat.costs().smmuUpdateNs);
    return Status::ok();
}

void
ShimKernel::heartbeat()
{
    partitionManager.heartbeat(pid);
}

} // namespace cronus::mos
