/**
 * @file
 * mEnclave manifest (the paper's Fig. 3).
 *
 * A manifest specifies the device type, image hashes, the list of
 * mECalls (the edl format instrumented with a sync/async flag for
 * sRPC, §IV-A), and resource capacities. Manifests arrive from the
 * untrusted normal world, so parsing is defensive and image hashes
 * are verified against the actual images at create time.
 */

#ifndef CRONUS_CORE_MANIFEST_HH
#define CRONUS_CORE_MANIFEST_HH

#include <map>
#include <string>
#include <vector>

#include "base/json.hh"
#include "crypto/sha256.hh"

namespace cronus::core
{

/** One mECall declaration. */
struct McallDecl
{
    std::string name;
    /** Async mECalls stream through sRPC without waiting. */
    bool async = false;

    bool operator==(const McallDecl &o) const
    {
        return name == o.name && async == o.async;
    }
};

class Manifest
{
  public:
    std::string deviceType;                       ///< "cpu"|"gpu"|"npu"
    std::map<std::string, std::string> images;    ///< file -> sha256 hex
    std::vector<McallDecl> mEcalls;
    uint64_t memoryBytes = 0;

    /**
     * Canonical JSON of a one-module manifest: @p device_type,
     * @p calls, a @p memory_bytes quota and, unless @p image_name is
     * empty, @p image declared under that name by its sha256 hex.
     * The one place that writes an image hash into a manifest.
     */
    static std::string build(const std::string &device_type,
                             const std::string &image_name,
                             const Bytes &image,
                             std::vector<McallDecl> calls,
                             uint64_t memory_bytes);

    /** Parse from JSON text (untrusted input). */
    static Result<Manifest> fromJson(const std::string &text);

    /** Canonical JSON (stable ordering), reparseable. */
    std::string toJson() const;

    /** Measurement included in attestation reports. */
    crypto::Digest measure() const;

    bool declaresCall(const std::string &name) const;
    /** Whether @p name is declared async; false if undeclared. */
    bool isAsync(const std::string &name) const;

    /** Parse "1G" / "64M" / "4096" memory size strings. */
    static Result<uint64_t> parseMemorySize(const std::string &text);
};

/**
 * Enclave measurement: sha256(manifest.measure() || image_hash). A
 * shell (no module bound yet) passes the zero image hash.
 */
crypto::Digest measureEnclave(const Manifest &manifest,
                              const crypto::Digest &image_hash);

/** A (manifest, image) pair that passed verifyModule(). */
struct VerifiedModule
{
    Manifest manifest;
    /** sha256(image); zero for a null image. */
    crypto::Digest imageHash{};
    crypto::Digest measurement{};
};

/**
 * Parse @p manifest_json, check @p image against the manifest entry
 * named @p image_name and derive the enclave measurement. A null
 * image under no name is allowed for fixed-function devices (§IV-A).
 * Pure (charges no virtual time): EnclaveManager::create and
 * ModuleStore::admit both verify through it.
 */
Result<VerifiedModule> verifyModule(const std::string &manifest_json,
                                    const std::string &image_name,
                                    const Bytes &image);

} // namespace cronus::core

#endif // CRONUS_CORE_MANIFEST_HH
