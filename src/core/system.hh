/**
 * @file
 * CronusSystem: the top-level facade assembling a complete CRONUS
 * machine (Fig. 2) -- platform, devices, secure monitor, SPM,
 * normal world, one partition+MicroOS per device, dispatcher, and
 * the failover wiring.
 *
 * This is the public entry point a downstream user instantiates.
 */

#ifndef CRONUS_CORE_SYSTEM_HH
#define CRONUS_CORE_SYSTEM_HH

#include "accel/cpu.hh"
#include "accel/gpu.hh"
#include "accel/npu.hh"
#include "attestation.hh"
#include "base/sim_clock.hh"
#include "dispatcher.hh"
#include "module_store.hh"
#include "obs/metrics.hh"
#include "srpc.hh"
#include "tee/isolation_backend.hh"
#include "tee/normal_world.hh"

namespace cronus::core
{

/** Machine shape. */
struct CronusConfig
{
    uint32_t numGpus = 1;
    bool withNpu = true;
    uint64_t partitionMemBytes = 24ull << 20;
    /**
     * SPM-resident module-store capacity; 0 (the default) disables
     * the store. Opt-in because cache hits change virtual time;
     * figure benches that must stay byte-identical never set it.
     */
    uint64_t moduleStoreBytes = 0;
    /**
     * Isolation substrate: TrustZone (stage-2 + TZASC) or the
     * RISC-V PMP backend (§VII-A). Default defers to the
     * CRONUS_BACKEND=tz|pmp environment toggle; an explicit tz/pmp
     * here wins over the environment (test parameterization).
     */
    tee::BackendSelect backend = tee::BackendSelect::Default;
    /**
     * Fleet-shared virtual clock. When set, the node's Platform
     * charges all virtual time against this clock instead of its
     * own, so every SoC in a cluster::Cluster shares one timeline.
     * Null (the default) keeps the platform-owned clock; single-node
     * behavior is bit-for-bit unchanged. Pointee must outlive the
     * system.
     */
    SimClock *sharedClock = nullptr;
    /**
     * Node identity for fleet membership ("node3"). Consumed by
     * recover::Supervisor span/dump qualification and by cluster
     * credentials; empty for standalone systems. A non-empty name
     * also derives a per-node RoT seed ("platform-<name>") so fleet
     * peers attest distinct keys; the empty default keeps the seed
     * -- and every attestation vector -- bit-for-bit unchanged.
     */
    std::string nodeName;
};

/**
 * An application's handle to an mEnclave it owns: eid plus the DH
 * material needed to authenticate mECalls and channel setup.
 */
struct AppHandle
{
    Eid eid = 0;
    crypto::KeyPair ownerKeys;
    Bytes secret;        ///< secret_dhke with the enclave
    uint64_t nonce = 0;  ///< untrusted-path anti-replay counter
    MicroOS *host = nullptr;
};

class CronusSystem
{
  public:
    explicit CronusSystem(const CronusConfig &config = CronusConfig());

    /* --- component access --- */
    hw::Platform &platform() { return *plat; }
    const CronusConfig &config() const { return cfg; }
    /** Fleet node identity ("" for a standalone system). */
    const std::string &nodeName() const { return cfg.nodeName; }
    tee::SecureMonitor &monitor() { return *sm; }
    tee::Spm &spm() { return *partitionManager; }
    tee::NormalWorld &normalWorld() { return *nw; }
    EnclaveDispatcher &dispatcher() { return enclaveDispatcher; }

    /**
     * The machine-wide report: snapshot()["sources"] holds one
     * object per component -- platform, monitor, spm, tlb, smmu,
     * partitions, crypto, and modstore when the store is enabled.
     */
    obs::MetricsRegistry &metrics() { return metricsRegistry; }

    /** The MicroOS managing @p device_name ("cpu0", "gpu1", ...). */
    Result<MicroOS *> mosForDevice(const std::string &device_name);
    std::vector<MicroOS *> allMos();

    /* --- application-facing API --- */

    /**
     * Create an mEnclave from a manifest + image through the
     * dispatcher (untrusted), with DH ownership establishment.
     * @p device_name optionally pins a device (e.g. "gpu1").
     */
    Result<AppHandle> createEnclave(const std::string &manifest_json,
                                    const std::string &image_name,
                                    const Bytes &image,
                                    const std::string &device_name = "");

    /* --- module store + warm pool (cold-start amortization) --- */

    /** Whether the module store is active (moduleStoreBytes > 0). */
    bool moduleStoreEnabled() const { return modStore != nullptr; }

    /** The store; only valid when moduleStoreEnabled(). */
    ModuleStore &moduleStore() { return *modStore; }

    /**
     * createEnclave through the module store: a resident module
     * skips the manifest parse, image-hash check and measurement
     * SHA; a miss admits the module (charging exactly what the
     * legacy pipeline charges) and proceeds. Falls back to
     * createEnclave() when the store is disabled or cannot hold the
     * module (admission ResourceExhausted); verification errors
     * still fail.
     */
    Result<AppHandle> createEnclaveCached(
        const std::string &manifest_json,
        const std::string &image_name, const Bytes &image,
        const std::string &device_name = "");

    /**
     * Create an unbound enclave shell on @p device_type (optionally
     * pinned to @p device_name). Warm pools pre-create, pre-attest
     * and pre-connect shells; a request then binds a cached module
     * instead of running the full create->attest->dCheck pipeline.
     */
    Result<AppHandle> createEnclaveShell(
        const std::string &device_type, uint64_t mem_bytes,
        const std::string &device_name = "");

    /** Owner-authenticated bind of a cached module onto an owned
     *  shell (or rebind of a pooled enclave). */
    Status bindEnclaveModule(AppHandle &handle,
                             const ModuleRecord &record);

    /** Authenticated mECall over the untrusted path. */
    Result<Bytes> ecall(AppHandle &handle, const std::string &fn,
                        const Bytes &args);

    /** Destroy an owned enclave. */
    Status destroyEnclave(AppHandle &handle);

    /**
     * Connect @p caller (a CPU mEnclave handle) to @p callee with an
     * sRPC channel. The caller owns the callee (it created it), so
     * the callee's secret authenticates the channel.
     */
    Result<std::unique_ptr<SrpcChannel>> connect(
        const AppHandle &caller, const AppHandle &callee,
        const SrpcConfig &config = SrpcConfig());

    /** Remote attestation of an owned enclave. */
    Result<SignedAttestationReport> attest(const AppHandle &handle,
                                           const Bytes &challenge);

    /* --- application-data recovery (checkpoints, §III-B) --- */

    /** Sealed checkpoint of an owned enclave's state. */
    Result<Bytes> checkpointEnclave(AppHandle &handle);

    /**
     * Restore a checkpoint into @p handle. @p source_secret is the
     * secret of the enclave that produced the blob (pass
     * handle.secret when restoring into the same enclave; after a
     * partition failure, pass the dead enclave's secret and a fresh
     * handle -- the owner re-seals under the new secret).
     */
    Status restoreEnclave(AppHandle &handle, const Bytes &sealed,
                          const Bytes &source_secret);

    /** Expectation prefilled with this platform's trust anchors. */
    ClientExpectation expectationFor(const AppHandle &handle);

    /* --- failure injection / recovery (benches + tests) --- */
    Status injectPanic(const std::string &device_name);
    Status recover(const std::string &device_name,
                   bool charge_clock = true);
    /** Virtual-time cost recover() would charge. */
    Result<SimTime> recoveryEstimate(const std::string &device_name);

    /** Trap signals observed so far (failover wiring). */
    const std::vector<tee::TrapSignal> &trapSignals() const
    {
        return observedTraps;
    }

    /**
     * Observes every untrusted-path mECall after it returned:
     * (eid, fn, status, result payload -- empty on error). The
     * scenario fuzzer uses this to snapshot enclave outputs for its
     * reference-model oracle without touching the call path.
     */
    using EcallObserver = std::function<void(
        Eid, const std::string & /*fn*/, const Status &,
        const Bytes & /*result*/)>;
    void setEcallObserver(EcallObserver observer)
    {
        ecallObserver = std::move(observer);
    }

  private:
    struct PartitionRecord
    {
        tee::PartitionId pid;
        std::unique_ptr<MicroOS> os;
        tee::MosImage image;
        std::string vendor;
        crypto::Signature deviceEndorsement;
    };

    Result<PartitionRecord *> recordForDevice(
        const std::string &device_name);

    /** The secure-world step of a create, run against the chosen
     *  mOS's Enclave Manager with the new owner's DH public key. */
    using CreateStep = std::function<Result<EnclaveCreated>(
        EnclaveManager &, const crypto::PublicKey &)>;

    /**
     * What every create path shares: placement on @p device_type
     * (optionally pinned to @p device_name), world switch +
     * dispatch, a fresh owner key, @p step in the secure world, and
     * the owner's half of the DH.
     */
    Result<AppHandle> createOn(const std::string &device_type,
                               const std::string &device_name,
                               const CreateStep &step);

    CronusConfig cfg;
    obs::MetricsRegistry metricsRegistry;
    std::unique_ptr<hw::Platform> plat;
    std::unique_ptr<tee::SecureMonitor> sm;
    std::unique_ptr<tee::Spm> partitionManager;
    /* Declared after the Spm: the store's destructor releases its
     * SPM residency reservation. */
    std::unique_ptr<ModuleStore> modStore;
    std::unique_ptr<tee::NormalWorld> nw;
    EnclaveDispatcher enclaveDispatcher;
    std::vector<std::unique_ptr<PartitionRecord>> records;
    std::map<std::string, crypto::KeyPair> vendorKeys;
    std::vector<tee::TrapSignal> observedTraps;
    EcallObserver ecallObserver;
    /* Owner-key derivation counter shared by every create path, so
     * key sequences are identical whether enclaves arrive through
     * the legacy pipeline, the module store or a warm-pool shell.
     * Per-system (not process-global): cluster nodes must derive the
     * same sequences regardless of how creates interleave across
     * nodes. */
    uint64_t ownerCounter = 0;
};

} // namespace cronus::core

#endif // CRONUS_CORE_SYSTEM_HH
