/**
 * @file
 * Enclave module store (cold-start amortization).
 *
 * An uncached create() parses the manifest, hashes the image and
 * derives the enclave measurement on every call -- per enclave, even
 * when a fleet of workers loads the same payload. The module store
 * turns mOS payloads into content-addressed *modules*: admit() runs
 * the same verifier (verifyModule(), manifest.hh) exactly once, pins
 * the bytes in SPM-resident storage, and hands back a ModuleRecord
 * whose measurement every later instantiation reuses. A cache hit --
 * lookup() by digest -- skips the parse, the hash check and the
 * measurement SHA; the Enclave Manager's one creation pipeline then
 * loads the record exactly as it loads a verified pair, charging the
 * SHA over zero bytes. The trust argument is that the record's
 * measurement was computed *inside* the store at admission over the
 * exact bytes it still holds, so binding a cached record is
 * attestation-equivalent to a fresh load (DESIGN.md §10).
 *
 * Capacity is bounded: records are evicted LRU when the configured
 * byte budget would be exceeded, releasing their SPM reservation.
 * The store is an opt-in subsystem (CronusConfig::moduleStoreBytes,
 * default off) because hits change virtual time.
 */

#ifndef CRONUS_CORE_MODULE_STORE_HH
#define CRONUS_CORE_MODULE_STORE_HH

#include <list>
#include <map>

#include "manifest.hh"
#include "tee/spm.hh"

namespace cronus::core
{

/** One admitted module: verified bytes plus cached identity. */
struct ModuleRecord
{
    /** Content address: sha256(manifest_json || image). */
    crypto::Digest digest{};
    std::string manifestJson;
    Manifest manifest;
    std::string imageName;
    Bytes image;
    /** sha256(image), verified against the manifest at admission. */
    crypto::Digest imageHash{};
    /** measureEnclave(manifest, imageHash): exactly the
     *  measurement create() derives for this pair. */
    crypto::Digest measurement{};
    uint64_t hits = 0;

    /** Bytes this record pins in the SPM. */
    uint64_t residentBytes() const
    {
        return manifestJson.size() + image.size();
    }
};

class ModuleStore
{
  public:
    /** @p capacity_bytes bounds resident module bytes (LRU). */
    ModuleStore(tee::Spm &spm, uint64_t capacity_bytes);
    ~ModuleStore();

    ModuleStore(const ModuleStore &) = delete;
    ModuleStore &operator=(const ModuleStore &) = delete;

    /**
     * Verify (verifyModule()), measure and cache a module. Charges
     * the measurement SHA an uncached create() charges for this
     * pair, so the miss path costs what the uncached pipeline costs.
     * ResourceExhausted when the module cannot fit (larger than the
     * capacity, or no SPM room); nothing is charged then. On
     * re-admission of an already-resident module this is a lookup()
     * (no re-verification). The returned pointer stays valid until
     * the record is evicted.
     */
    Result<const ModuleRecord *> admit(const std::string &manifest_json,
                                       const std::string &image_name,
                                       const Bytes &image);

    /** Cache hit by content address; nullptr-free: NotFound when the
     *  digest is not resident. Bumps LRU recency and the hit count;
     *  charges nothing -- that is the point. */
    Result<const ModuleRecord *> lookup(const crypto::Digest &digest);

    /** Content address admit() will file a pair under. */
    static crypto::Digest digestOf(const std::string &manifest_json,
                                   const Bytes &image);

    size_t moduleCount() const { return records.size(); }
    uint64_t residentBytes() const { return resident; }
    uint64_t capacity() const { return capacityBytes; }

    StatGroup &statistics() { return stats; }

  private:
    struct Node
    {
        ModuleRecord record;
        /** Position in lru (most-recent at front). */
        std::list<crypto::Digest>::iterator lruIt;
    };

    void touch(Node &node);
    Status evictFor(uint64_t incoming_bytes);

    tee::Spm &spm;
    uint64_t capacityBytes;
    uint64_t resident = 0;
    std::map<crypto::Digest, Node> records;
    std::list<crypto::Digest> lru;
    StatGroup stats;
};

} // namespace cronus::core

#endif // CRONUS_CORE_MODULE_STORE_HH
