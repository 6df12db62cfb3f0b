/**
 * @file
 * Pluggable isolation substrate behind the SPM (§VII-A).
 *
 * The SPM's *policy* -- partitions, share-once grants, proceed-trap
 * failover -- is substrate-independent. What differs between a
 * TrustZone SoC and a RISC-V PMP platform is the *mechanism* that
 * makes the policy stick in hardware: stage-2 tables + TZASC world
 * filtering on Arm, priority-ordered PMP entries per hart (plus an
 * M-mode PMP classifying untrusted traffic) on RISC-V.
 *
 * `IsolationBackend` is that mechanism seam. The SPM drives it with
 * region-programming hooks (partition create/scrub, grant map/unmap)
 * and consults it on every checked access; the backend additionally
 * classifies raw bus traffic (the TZASC world-check role). Stage-2
 * tables are retained under *both* backends -- they carry the
 * Invalidated-fault proceed-trap semantics and the software TLB --
 * so a backend is an additional physical filter, never a replacement
 * for the fault machinery. Backend checks charge no virtual time,
 * which keeps figure-bench output byte-identical across backends.
 */

#ifndef CRONUS_TEE_ISOLATION_BACKEND_HH
#define CRONUS_TEE_ISOLATION_BACKEND_HH

#include <map>
#include <memory>
#include <vector>

#include "base/stats.hh"
#include "base/status.hh"
#include "hw/pmp.hh"
#include "hw/types.hh"

namespace cronus::tee
{

using hw::PartitionId;
using hw::PhysAddr;

/** Configured backend choice (CronusConfig / test parameter). */
enum class BackendSelect : uint8_t
{
    Default,  ///< CRONUS_BACKEND env var, falling back to Tz
    Tz,
    Pmp,
};

/** Resolved substrate. */
enum class BackendKind : uint8_t
{
    Tz,
    Pmp,
};

/** Resolve a selection: Default consults CRONUS_BACKEND=tz|pmp. */
BackendKind resolveBackend(BackendSelect select);

const char *backendName(BackendKind kind);

class IsolationBackend
{
  public:
    virtual ~IsolationBackend() = default;

    virtual BackendKind kind() const = 0;
    const char *name() const { return backendName(kind()); }

    /** Program the substrate for a new/rebooted partition owning
     *  [base, base+bytes). */
    virtual Status partitionCreated(PartitionId pid, PhysAddr base,
                                    uint64_t bytes) = 0;

    /** Failover step 2: drop everything but the private region. */
    virtual void partitionScrubbed(PartitionId pid) = 0;

    /** Grant @p gid maps [base, base+pages*4K) of the owner's
     *  memory into @p peer (overlapped configuration, §VII-A). */
    virtual Status grantMapped(uint64_t gid, PartitionId peer,
                               PhysAddr base, uint64_t pages) = 0;

    /** The peer side of @p gid is torn down (revoke, retirement, or
     *  proceed-trap resolution). */
    virtual void grantUnmapped(uint64_t gid, PartitionId peer) = 0;

    /**
     * Substrate check for a secure-world access by @p pid. On the
     * TrustZone backend this is free: stage-2 + TZASC already
     * enforce, and secure traffic passes the TZASC unconditionally.
     */
    virtual Status checkAccess(PartitionId pid, PhysAddr addr,
                               uint64_t len, bool is_write) = 0;

    /**
     * World/secure-traffic classification for raw bus accesses.
     * Only consulted when wantsBusFilter() -- the TrustZone backend
     * leaves the TZASC in charge.
     */
    virtual Status classifyBus(hw::World from, PhysAddr addr,
                               uint64_t len, bool is_write) = 0;

    virtual bool wantsBusFilter() const = 0;
};

/**
 * TrustZone substrate: stage-2 tables + TZASC/TZPC, exactly the
 * pre-seam behaviour. Every hook is a no-op -- the SPM's stage-2
 * programming *is* the region programming, and the TZASC installed
 * in the Platform *is* the world classifier.
 */
class TzBackend final : public IsolationBackend
{
  public:
    BackendKind kind() const override { return BackendKind::Tz; }

    Status
    partitionCreated(PartitionId, PhysAddr, uint64_t) override
    {
        return Status::ok();
    }

    void partitionScrubbed(PartitionId) override {}

    Status
    grantMapped(uint64_t, PartitionId, PhysAddr, uint64_t) override
    {
        return Status::ok();
    }

    void grantUnmapped(uint64_t, PartitionId) override {}

    Status
    checkAccess(PartitionId, PhysAddr, uint64_t, bool) override
    {
        return Status::ok();
    }

    Status
    classifyBus(hw::World, PhysAddr, uint64_t, bool) override
    {
        return Status::ok();
    }

    bool wantsBusFilter() const override { return false; }
};

/**
 * RISC-V PMP substrate (§VII-A). Each partition gets a chain of
 * "virtual" 16-entry PMP units (what firmware would context-switch
 * per hart); regions become Off/TOR entry pairs so arbitrary
 * page-granular ranges fit without power-of-two alignment. The
 * private region is pair 0 of unit 0; every peer-side grant window
 * adds a pair (the owner side is already covered by its private
 * pair -- the overlap lives in the peer's configuration). A
 * partition that outgrows one unit spills into the next; the first
 * unit whose entries match decides, mirroring in-unit priority.
 *
 * Untrusted ("normal world" on Arm) traffic is classified by a
 * locked machine-level PMP granting exactly the untrusted DRAM
 * range -- the M-mode firmware filter HECTOR-V argues for instead
 * of implicit shared-bus trust.
 */
class PmpBackend final : public IsolationBackend
{
  public:
    /** @p untrusted_base/@p untrusted_bytes is the DRAM range the
     *  machine PMP concedes to untrusted software. */
    PmpBackend(PhysAddr untrusted_base, uint64_t untrusted_bytes,
               StatGroup &stat_group);

    BackendKind kind() const override { return BackendKind::Pmp; }

    Status partitionCreated(PartitionId pid, PhysAddr base,
                            uint64_t bytes) override;
    void partitionScrubbed(PartitionId pid) override;
    Status grantMapped(uint64_t gid, PartitionId peer, PhysAddr base,
                       uint64_t pages) override;
    void grantUnmapped(uint64_t gid, PartitionId peer) override;
    Status checkAccess(PartitionId pid, PhysAddr addr, uint64_t len,
                       bool is_write) override;
    Status classifyBus(hw::World from, PhysAddr addr, uint64_t len,
                       bool is_write) override;
    bool wantsBusFilter() const override { return true; }

  private:
    struct Window
    {
        PhysAddr base = 0;
        uint64_t bytes = 0;
    };

    struct PartitionPmp
    {
        PhysAddr base = 0;
        uint64_t bytes = 0;
        /** gid -> peer-side grant window. */
        std::map<uint64_t, Window> windows;
        /** Derived Off/TOR programming, rebuilt on any change. */
        std::vector<hw::Pmp> units;
    };

    /** Reprogram @p part's unit chain from its region list. */
    void rebuild(PartitionPmp &part);

    /** True if some unit allows the whole page-chunked access. */
    bool unitsAllow(const hw::Pmp *units, size_t count,
                    PhysAddr addr, uint64_t len, bool is_write) const;

    std::map<PartitionId, PartitionPmp> parts;
    hw::Pmp machinePmp;  ///< locked M-mode classifier
    Counter *checks;
    Counter *faults;
    Counter *worldFaults;
    Counter *reprograms;
};

/** Instantiate the substrate for @p kind. @p stat_group receives
 *  the backend's counters (none for Tz -- byte-identity). */
std::unique_ptr<IsolationBackend> makeBackend(
    BackendKind kind, PhysAddr untrusted_base,
    uint64_t untrusted_bytes, StatGroup &stat_group);

} // namespace cronus::tee

#endif // CRONUS_TEE_ISOLATION_BACKEND_HH
