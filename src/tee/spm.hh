/**
 * @file
 * Secure Partition Manager (S-EL2) model.
 *
 * The SPM isolates the secure world into partitions, each running
 * one MicroOS that manages exactly one device (§III-A). It owns the
 * stage-2 page tables, implements the inter-mOS shared-memory
 * workflow of Fig. 6 (including the page-shared-only-once rule), and
 * drives the proceed-trap failure recovery of §IV-D:
 *
 *   step 1  on failure, invalidate every surviving partition's
 *           stage-2 (and SMMU) entries for memory shared with the
 *           failed partition, then set r_f = 1 to block new shares;
 *   step 2  run the failure-clearing logic (scrub device + shared
 *           memory), reload the mOS, set r_f = 0;
 *   step 3  subsequent accesses to invalidated shared pages trap;
 *           the SPM unmaps/recovers the page and signals the
 *           accessing mEnclave so it neither leaks data (A1) nor
 *           deadlocks (A2).
 */

#ifndef CRONUS_TEE_SPM_HH
#define CRONUS_TEE_SPM_HH

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "crypto/sha256.hh"
#include "hw/page_table.hh"
#include "isolation_backend.hh"
#include "secure_monitor.hh"

namespace cronus::tee
{

using hw::PartitionId;
using hw::PhysAddr;

/** A MicroOS image, provided by the normal world and measured. */
struct MosImage
{
    std::string name;        ///< e.g. "cudav3.mos"
    std::string deviceType;  ///< "cpu" | "gpu" | "npu"
    Bytes code;              ///< opaque payload, measured

    crypto::Digest measure() const;
};

enum class PartitionState
{
    Ready,
    Failed,
};

/** An inter-mOS shared-memory grant. */
struct ShareGrant
{
    uint64_t id = 0;
    PartitionId owner = 0;
    PartitionId peer = 0;
    PhysAddr base = 0;       ///< page-aligned, inside owner's range
    uint64_t pages = 0;
    bool active = false;
    /** Set by failure step 1; cleared when the trap is delivered. */
    bool pendingTrap = false;
    /** Which side failed (valid while pendingTrap). */
    PartitionId failedSide = 0;
};

/** Everything the SPM tracks about one partition. */
struct Partition
{
    PartitionId id = 0;
    std::string deviceName;
    PhysAddr memBase = 0;
    uint64_t memBytes = 0;
    hw::PageTable stage2;
    PartitionState state = PartitionState::Ready;
    MosImage image;
    crypto::Digest mosHash{};
    /** r_f: blocks new memory sharing while set (§IV-D). */
    bool rf = false;
    /** Incremented on every (re)boot: a restarted partition is a
     *  different instance (TOCTOU defense surfaces this). */
    uint64_t incarnation = 1;
    /** Liveness counter ticked by the mOS; used by hang detection. */
    uint64_t heartbeat = 0;
};

/**
 * Delivered to the fault-signal handler when a trapped shared-memory
 * access is resolved (step 3).
 */
struct TrapSignal
{
    PartitionId accessor = 0;
    PartitionId failedPeer = 0;
    uint64_t grantId = 0;
    PhysAddr addr = 0;
};

/** One checked memory access, as presented to the access hook. */
struct SpmAccess
{
    PartitionId pid = 0;
    PhysAddr addr = 0;
    uint64_t len = 0;
    bool isWrite = false;
    /** 1-based ordinal of this access since the hook was installed;
     *  fault plans use it as a deterministic trigger point. */
    uint64_t seq = 0;
};

/** Grant lifecycle event, as presented to the grant hook. */
struct GrantEvent
{
    enum class Kind
    {
        Created,  ///< sharePages succeeded
        Revoked,  ///< revokeGrant tore it down (normal path)
        Retired,  ///< failure handling tore it down (trap/scrub)
    };
    Kind kind = Kind::Created;
    uint64_t id = 0;
    PartitionId owner = 0;
    PartitionId peer = 0;
};

class Spm
{
  public:
    /** @p backend_select picks the isolation substrate; Default
     *  resolves CRONUS_BACKEND=tz|pmp and falls back to TrustZone. */
    explicit Spm(SecureMonitor &monitor,
                 BackendSelect backend_select = BackendSelect::Default);
    ~Spm();

    /* ---------------- partition lifecycle ---------------- */

    /**
     * Create a partition running @p image and managing
     * @p device_name. Each device is managed by exactly one
     * partition and vice versa (§III-A).
     */
    Result<PartitionId> createPartition(const MosImage &image,
                                        const std::string &device_name,
                                        uint64_t mem_bytes);

    Result<const Partition *> partition(PartitionId pid) const;
    size_t partitionCount() const { return partitions.size(); }

    /** mOS liveness tick, read by recover::Supervisor's hang
     *  detection. */
    Status heartbeat(PartitionId pid);

    /** A partition panicked (hardware/software failure). */
    Status panic(PartitionId pid);

    /** Failure step 1 (see file comment). */
    Status failPartition(PartitionId pid);

    /** Failure step 2. Loads @p image (pass the old image for plain
     *  crash recovery, a new one for updates). @p charge_clock may
     *  be false when the caller already accounted the recovery time
     *  on the virtual clock (e.g. while simulating work proceeding
     *  concurrently on other partitions). */
    Status recoverPartition(PartitionId pid, const MosImage &image,
                            bool charge_clock = true);

    /** Deterministic virtual-time cost of recovering @p pid. */
    Result<SimTime> recoveryEstimate(PartitionId pid) const;

    /**
     * Recover several failed partitions; step 1 must already have
     * run for each. Step-2 work proceeds concurrently, so the clock
     * advances by the *maximum* single recovery cost (§IV-D,
     * "handling concurrent failures").
     */
    Status recoverConcurrently(const std::vector<PartitionId> &pids,
                               const std::vector<MosImage> &images);

    /* ---------------- checked memory access ---------------- */

    /**
     * Memory access issued from @p pid. Translated by the
     * partition's stage-2 table; an access to an invalidated shared
     * page takes the trap path and returns PeerFailed.
     */
    Result<Bytes> read(PartitionId pid, PhysAddr addr, uint64_t len);
    Status write(PartitionId pid, PhysAddr addr, const Bytes &data);
    Status write(PartitionId pid, PhysAddr addr, const uint8_t *data,
                 uint64_t len);

    /** Non-allocating read into a caller-provided buffer. Same
     *  checks, hooks and trap path as read(). */
    Status readInto(PartitionId pid, PhysAddr addr, uint8_t *out,
                    uint64_t len);

    /* ---------------- shared memory (Fig. 6) ---------------- */

    /**
     * Owner shares @p pages pages at @p base (inside its own range)
     * with @p peer. Enforces the share-once rule. Returns grant id.
     */
    Result<uint64_t> sharePages(PartitionId owner, PartitionId peer,
                                PhysAddr base, uint64_t pages);

    /** Tear down an active grant (normal termination path). */
    Status revokeGrant(uint64_t grant_id, PartitionId requester);

    Result<const ShareGrant *> grant(uint64_t grant_id) const;
    std::vector<uint64_t> grantsOf(PartitionId pid) const;

    /* ---------------- module-store residency ---------------- */

    /**
     * Reserve @p bytes of SPM-resident storage for the enclave
     * module store (measured module images cached across creates).
     * The reservation is carved from the secure-memory pool that
     * also backs partitions, so a store cannot starve partition
     * creation silently -- the usual ResourceExhausted surfaces.
     */
    Status reserveStoreBytes(uint64_t bytes);

    /** Return a reservation made by reserveStoreBytes. */
    void releaseStoreBytes(uint64_t bytes);

    /** Bytes currently reserved for module-store residency. */
    uint64_t storeBytesResident() const { return storeResident; }

    /* ---------------- fault signals ---------------- */

    using TrapHandler = std::function<void(const TrapSignal &)>;
    void setTrapHandler(TrapHandler handler)
    {
        trapHandler = std::move(handler);
    }

    /* ---------------- injection / audit hooks ---------------- */

    /**
     * Installed ahead of every read()/write() translation. A non-OK
     * return aborts the access with that status (fault injection);
     * the hook may also kill partitions (panic) before the access
     * proceeds, turning it into a proceed-trap. Resets the access
     * ordinal. Pass an empty function to uninstall.
     */
    using AccessHook = std::function<Status(const SpmAccess &)>;
    void setAccessHook(AccessHook hook)
    {
        accessHook = std::move(hook);
        accessSeq = 0;
    }

    /** Observes grant create/revoke/retire (invariant auditing). */
    using GrantHook = std::function<void(const GrantEvent &)>;
    void setGrantHook(GrantHook hook) { grantHook = std::move(hook); }

    SecureMonitor &monitor() { return sm; }
    StatGroup &statistics() { return stats; }

    /** The isolation substrate enforcing partition boundaries. */
    IsolationBackend &isolation() { return *backend; }

    /** Aggregated stage-2 software-TLB counters over all partitions
     *  (SMMU stream caches are reported by Platform::smmu()). */
    hw::TlbCounters tlbCounters() const;

    /** Cross-mOS message validation: the mOS part of an eid must
     *  name an existing Ready partition (§IV-A). */
    bool validateMosId(PartitionId pid) const;

  private:
    Result<Partition *> mutablePartition(PartitionId pid);
    /** Hook + lookup + state check shared by every access entry
     *  point; on success @p out names the Ready partition. */
    Status accessCheck(PartitionId pid, PhysAddr addr, uint64_t len,
                       bool is_write, Partition *&out);
    /** Software-TLB zero-copy fast path: host pointer for a
     *  single-page access whose translation and backing page are
     *  cached (byte counter bumped), or nullptr meaning
     *  "take the full translate + bus path". */
    uint8_t *fastPath(Partition &p, PhysAddr addr, uint64_t len,
                      bool is_write);
    Status handleInvalidatedAccess(Partition &accessor, PhysAddr addr);
    SimTime recoveryCost(const Partition &p) const;
    void scrubPartition(Partition &p, const MosImage &image);
    /** Return @p g's pages to the share-once budget, skipping any
     *  page a later grant holds: a stale release cannot free it. */
    void releasePages(const ShareGrant &g);

    SecureMonitor &sm;
    std::unique_ptr<IsolationBackend> backend;
    /** True when this Spm installed the Platform bus filter (so the
     *  destructor uninstalls exactly its own). */
    bool busFilterInstalled = false;
    std::map<PartitionId, Partition> partitions;
    std::map<uint64_t, ShareGrant> grants;
    /** Share-once budget: the grant holding each shared page. */
    std::map<PhysAddr, uint64_t> pageGrant;
    void notifyGrant(GrantEvent::Kind kind, const ShareGrant &g);

    /* One-entry partition-lookup cache for the access paths. Safe to
     * hold across calls: partitions are never erased and std::map
     * nodes are address-stable. */
    Partition *lastAccessed = nullptr;

    PartitionId nextPid = 1;
    uint64_t nextGrant = 1;
    PhysAddr nextSecureAlloc;
    uint64_t storeResident = 0;
    StatGroup stats;
    TrapHandler trapHandler;
    AccessHook accessHook;
    GrantHook grantHook;
    uint64_t accessSeq = 0;
};

} // namespace cronus::tee

#endif // CRONUS_TEE_SPM_HH
