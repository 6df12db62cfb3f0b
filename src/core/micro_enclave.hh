/**
 * @file
 * MicroEnclave, Enclave Manager and MicroOS (§IV-A).
 *
 * The Enclave Manager runs inside each mOS: it loads and initializes
 * mEnclaves from manifests (verifying image hashes), allocates eids
 * (8-bit mOS id + 24-bit enclave id), derives the per-enclave
 * ownership secret via Diffie-Hellman, authenticates owner requests
 * (mECalls over the untrusted path, bind, checkpoint, restore,
 * destroy) through one owner gate that refuses them while the
 * partition is not Ready, keeps resource books, and answers
 * local-attestation requests. Legacy, cached and shell creates share
 * one creation routine.
 *
 * MicroOS aggregates the Enclave Manager with the HAL and the shim
 * kernel for one partition.
 */

#ifndef CRONUS_CORE_MICRO_ENCLAVE_HH
#define CRONUS_CORE_MICRO_ENCLAVE_HH

#include <functional>
#include <memory>

#include "eid.hh"
#include "enclave_runtime.hh"
#include "manifest.hh"
#include "module_store.hh"
#include "tee/spm.hh"

namespace cronus::core
{

/** One loaded mEnclave. */
class MicroEnclave
{
  public:
    MicroEnclave(Eid enclave_id, Manifest mf,
                 crypto::Digest image_hash,
                 std::unique_ptr<EnclaveRuntime> rt,
                 Bytes secret, crypto::PublicKey owner)
        : eid(enclave_id), manifest(std::move(mf)),
          measurement(image_hash), runtime(std::move(rt)),
          secretDhke(std::move(secret)), ownerPub(owner) {}

    Eid id() const { return eid; }
    const Manifest &manifestOf() const { return manifest; }
    const crypto::Digest &measure() const { return measurement; }
    const Bytes &secret() const { return secretDhke; }
    const crypto::PublicKey &owner() const { return ownerPub; }

    /** Execute a declared mECall. */
    Result<Bytes> invoke(const std::string &fn, const Bytes &args);

    bool isAsync(const std::string &fn) const
    {
        return manifest.isAsync(fn);
    }

    Status destroy(bool scrub) { return runtime->meDestroy(scrub); }

    /**
     * Bind a module onto this enclave (manager-mediated): attach the
     * image to the runtime, then swap manifest + measurement so the
     * attested identity and the callable mECall surface change
     * together. Used for shells and for rebinding pooled enclaves.
     */
    Status bind(const Manifest &mf, const crypto::Digest &meas,
                const Bytes &image);

    /** Raw state snapshot/restore (sealed by the EnclaveManager). */
    Result<Bytes> snapshot() { return runtime->meSnapshot(); }
    Status restoreState(const Bytes &s)
    {
        return runtime->meRestore(s);
    }

  private:
    Eid eid;
    Manifest manifest;
    crypto::Digest measurement;
    std::unique_ptr<EnclaveRuntime> runtime;
    Bytes secretDhke;
    crypto::PublicKey ownerPub;
    /* One-entry declaresCall() memo for the streaming mECall hot
     * path. Sound because the manifest is part of the attested
     * identity and never changes after creation. */
    std::string lastDeclaredFn;
};

class MicroOS;

/** Result of a create(): what the owner needs to proceed. */
struct EnclaveCreated
{
    Eid eid = 0;
    /** Enclave-side DH public key; the owner combines it with its
     *  private key to derive secret_dhke. */
    crypto::PublicKey enclavePub;
};

/** A local attestation report (§IV-A), MACed with the SM's LSK. */
struct LocalAttestationReport
{
    Eid eid = 0;
    uint64_t partitionIncarnation = 0;
    crypto::Digest enclaveMeasurement{};
    crypto::Digest mosMeasurement{};
    Bytes challenge;
    /** HMAC(LSK, all of the above). */
    Bytes mac;

    Bytes macInput() const;
};

class EnclaveManager
{
  public:
    explicit EnclaveManager(MicroOS &os);

    /**
     * Create an mEnclave. @p manifest_json and @p image come from
     * the (untrusted) caller; the image hash is checked against the
     * manifest entry named @p image_name. @p owner_pub is the
     * caller's DH public key; the caller of create becomes the
     * enclave's owner.
     */
    Result<EnclaveCreated> create(const std::string &manifest_json,
                                  const std::string &image_name,
                                  const Bytes &image,
                                  const crypto::PublicKey &owner_pub);

    /**
     * Create an mEnclave from a module-store record. The record was
     * verified and measured at admission, so this skips the parse,
     * the hash check and the measurement SHA -- the cache win the
     * module store exists for. Everything else matches create().
     */
    Result<EnclaveCreated> createFromRecord(
        const ModuleRecord &record,
        const crypto::PublicKey &owner_pub);

    /**
     * Create an *unbound shell*: device context and DH ownership
     * only, no module. The shell reserves @p mem_bytes against the
     * partition budget (re-checked at bind when the module's quota
     * differs). Warm pools pre-create and pre-attest shells so a
     * request-time instantiation is a bind, not a create.
     */
    Result<EnclaveCreated> createShell(
        const crypto::PublicKey &owner_pub, uint64_t mem_bytes);

    /**
     * Owner-authenticated bind of a cached module onto a shell (or
     * rebind of a pooled enclave): @p tag =
     * HMAC(secret_dhke, eid||nonce||"bind"||digest). Swaps manifest
     * and measurement to the record's and adjusts the memory books;
     * admission is re-checked against the record's quota.
     */
    Status bindModule(Eid eid, const ModuleRecord &record,
                      uint64_t nonce, const Bytes &tag);

    /**
     * mECall over the untrusted path. The request must be
     * authenticated: @p tag = HMAC(secret_dhke, eid||nonce||fn||args)
     * with a strictly increasing @p nonce (anti-replay).
     */
    Result<Bytes> ecall(Eid eid, const std::string &fn,
                        const Bytes &args, uint64_t nonce,
                        const Bytes &tag);

    /** Compute the tag the untrusted path requires (owner side). */
    static Bytes authTag(const Bytes &secret, Eid eid, uint64_t nonce,
                         const std::string &fn, const Bytes &args);

    /**
     * mECall over a pre-authenticated channel (sRPC executor after
     * dCheck). Bypasses the per-call HMAC.
     */
    Result<Bytes> invokeLocal(Eid eid, const std::string &fn,
                              const Bytes &args);

    /** Generate a local-attestation report for @p eid. */
    Result<LocalAttestationReport> localAttest(Eid eid,
                                               const Bytes &challenge);

    /** Verify a report produced on the same machine. */
    static bool verifyLocalReport(const LocalAttestationReport &report,
                                  const Bytes &lsk);

    Status destroy(Eid eid, uint64_t nonce, const Bytes &tag);

    /**
     * Owner-authenticated checkpoint: serialize the enclave's state
     * and seal it with secret_dhke, so only the owner can restore
     * it -- including into a *fresh* enclave after a partition
     * failure (application-data recovery, §III-B).
     */
    Result<Bytes> checkpoint(Eid eid, uint64_t nonce,
                             const Bytes &tag);

    /** Owner-authenticated restore of a sealed checkpoint. */
    Status restore(Eid eid, uint64_t nonce, const Bytes &tag,
                   const Bytes &sealed);

    Result<const MicroEnclave *> enclave(Eid eid) const;
    size_t enclaveCount() const { return enclaves.size(); }

    /** Memory bookkeeping. */
    uint64_t memoryInUse() const { return memUsed; }

  private:
    /** What instantiate() loads. A null image leaves a shell;
     *  measuredBytes is 0 when the store measured at admission. */
    struct Module
    {
        Manifest manifest;
        crypto::Digest measurement{};
        const Bytes *image = nullptr;
        uint64_t measuredBytes = 0;
    };

    /**
     * The one creation routine: readiness, id space, @p load (so its
     * errors rank behind those two), admission, DH ownership,
     * meCreate, meBind when there is an image, the measurement SHA
     * over measuredBytes, then the books.
     */
    Result<EnclaveCreated> instantiate(
        const crypto::PublicKey &owner_pub,
        const std::function<Result<Module>()> &load);

    /**
     * The owner gate every owner request passes: a Ready partition,
     * an eid of this partition that exists, @p tag =
     * HMAC(secret_dhke, eid||nonce||fn||payload) in constant time,
     * and a strictly increasing @p nonce. @p verify_ns is charged
     * after the lookup, before the tag compare.
     */
    Result<MicroEnclave *> ownerGate(Eid eid, uint64_t nonce,
                                     const Bytes &tag,
                                     const std::string &fn,
                                     const Bytes &payload,
                                     SimTime verify_ns = 0);

    /** InvalidArgument unless @p device_type is this mOS's. */
    Status checkDeviceType(const std::string &device_type) const;
    /** ResourceExhausted unless trading @p released bytes of quota
     *  for @p claimed fits the partition budget. */
    Status admitMemory(uint64_t released, uint64_t claimed) const;
    std::unique_ptr<EnclaveRuntime> makeRuntime();

    MicroOS &mos;
    std::map<Eid, std::unique_ptr<MicroEnclave>> enclaves;
    std::map<Eid, uint64_t> lastNonce;
    uint32_t nextEnclaveId = 1;
    uint64_t memUsed = 0;
};

/**
 * One MicroOS: shim kernel + HAL + Enclave Manager for a partition.
 */
class MicroOS
{
  public:
    /**
     * @p device_type picks the HAL ("cpu"|"gpu"|"npu"); the HAL
     * drives @p device_name through the shim kernel.
     */
    MicroOS(tee::Spm &spm, tee::PartitionId pid,
            const std::string &device_type,
            const std::string &device_name);

    tee::PartitionId partitionId() const { return pid; }
    const std::string &deviceType() const { return devType; }
    const std::string &deviceName() const { return devName; }

    mos::ShimKernel &shimKernel() { return shim; }
    mos::Hal &hal() { return *halImpl; }
    EnclaveManager &enclaveManager() { return *manager; }

    /** The partition's current mOS measurement (from the SPM). */
    Result<crypto::Digest> mosMeasurement() const;
    Result<uint64_t> incarnation() const;

    /**
     * Called after the SPM reloaded this partition's mOS: all
     * in-memory mOS state (loaded enclaves, nonces, books) is gone.
     */
    void onReboot();

    /** Liveness tick. */
    void tick() { shim.heartbeat(); }

    tee::Spm &spm() { return partitionManager; }

  private:
    /** Build a fresh HAL for the device type and a fresh Enclave
     *  Manager (boot and every reboot). */
    void loadHalAndManager();

    tee::Spm &partitionManager;
    tee::PartitionId pid;
    std::string devType;
    std::string devName;
    mos::ShimKernel shim;
    std::unique_ptr<mos::Hal> halImpl;
    std::unique_ptr<EnclaveManager> manager;
};

} // namespace cronus::core

#endif // CRONUS_CORE_MICRO_ENCLAVE_HH
