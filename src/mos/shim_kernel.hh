/**
 * @file
 * Shim kernel: the LibOS layer an mOS provides to device drivers.
 *
 * The paper integrates off-the-shelf Linux drivers (.ko) into mOSes
 * by supplying standard kernel functions (ioremap, memory mapping,
 * locks) from a shim runtime (§IV-B). Drivers in this reproduction
 * are written against exactly this interface and nothing else, so
 * they are portable across partitions the same way.
 */

#ifndef CRONUS_MOS_SHIM_KERNEL_HH
#define CRONUS_MOS_SHIM_KERNEL_HH

#include <map>

#include "tee/spm.hh"

namespace cronus::mos
{

using tee::PartitionId;
using tee::PhysAddr;

class ShimKernel
{
  public:
    /**
     * @p reserved_bytes at the start of the partition's memory are
     * kept for the mOS itself; the rest is handed out by
     * allocPages().
     */
    ShimKernel(tee::Spm &spm, PartitionId pid,
               uint64_t reserved_bytes = 64 * hw::kPageSize);

    /* --- device access (ioremap) --- */

    /**
     * Map a device for driver use. The access is made from the
     * secure world; the TZPC still gates which devices exist there.
     */
    Result<hw::Device *> ioremap(const std::string &device_name);

    /* --- partition-memory management --- */

    /** Allocate @p pages whole pages from the partition's range. */
    Result<PhysAddr> allocPages(uint64_t pages);

    /**
     * Return @p pages at @p base to the allocator. The allocator is
     * a bump pointer, so only the most recent allocation is actually
     * reclaimed; interior frees stay unavailable until the next mOS
     * reload resets the allocator.
     */
    void freePages(PhysAddr base, uint64_t pages);

    /** Reset the allocator after an mOS reload (all allocations of
     *  the previous incarnation are gone with the scrub). */
    void resetAllocator(uint64_t reserved_bytes = 64 * hw::kPageSize);

    /** Checked access to partition memory (through stage-2). */
    Result<Bytes> read(PhysAddr addr, uint64_t len);
    Status write(PhysAddr addr, const Bytes &data);
    Status write(PhysAddr addr, const uint8_t *data, uint64_t len);

    /** Non-allocating read (memory fast path). */
    Status readInto(PhysAddr addr, uint8_t *out, uint64_t len);

    /* --- synchronization --- */

    /**
     * Spinlock on shared memory (the paper replaces mutexes with
     * spinlocks to avoid involving the untrusted OS, §IV-C). The
     * lock word lives at @p addr; returns PeerFailed if the word is
     * in failed shared memory (deadlock defense A2).
     */
    Status spinLock(PhysAddr addr);
    Status spinUnlock(PhysAddr addr);

    /* --- DMA --- */

    /** Install SMMU mappings for @p pages pages so the device can
     *  DMA at @p iova; maps none if any of them is already mapped. */
    Status dmaMap(hw::StreamId stream, hw::VirtAddr iova,
                  PhysAddr pa, uint64_t pages, uint64_t tag = 0);

    /* --- liveness --- */

    /** Tick the partition heartbeat (Supervisor hang detection input). */
    void heartbeat();

    PartitionId partitionId() const { return pid; }
    tee::Spm &spm() { return partitionManager; }
    hw::Platform &platform();

  private:
    tee::Spm &partitionManager;
    PartitionId pid;
    PhysAddr allocNext;
    PhysAddr allocEnd;
};

} // namespace cronus::mos

#endif // CRONUS_MOS_SHIM_KERNEL_HH
