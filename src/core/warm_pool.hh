/**
 * @file
 * Warm pool of pre-attested enclave shells.
 *
 * The cold-start pipeline -- create, remote-attest, connect (local
 * attestation + grant + dCheck + executor spawn) -- is paid per
 * enclave. The warm pool moves all of it to prefill time: shells are
 * created unbound, attested once (the signed report is cached), and
 * optionally pre-connected to a driver enclave over sRPC. A request
 * then *binds* a module-store record onto a free shell and goes
 * straight to work -- enclave-per-request semantics at bind cost.
 *
 * Trust argument (DESIGN.md §10): the shell's attestation proves the
 * platform closure (DT, mOS, empty executor) once; the module's
 * identity is the store measurement pinned at admission; bind is
 * owner-authenticated (HMAC with secret_dhke over the module
 * digest) and SPM-mediated. The pre-connected channel stays valid
 * across binds because dCheck proved ownership of secret_dhke,
 * which is a property of the shell, not of the bound module.
 * Recycling is confined to one owner's trust domain: the pool's
 * shells all belong to the pool's creator.
 */

#ifndef CRONUS_CORE_WARM_POOL_HH
#define CRONUS_CORE_WARM_POOL_HH

#include "system.hh"

namespace cronus::core
{

/** One pooled shell: handle + cached attestation (+ channel). */
struct WarmShell
{
    AppHandle handle;
    /** Attestation from prefill; acquire() reuses it instead of
     *  re-running the remote-attestation round trip. */
    SignedAttestationReport report;
    /** Pre-connected sRPC channel from the pool's driver enclave;
     *  null when the pool was prefilled without a driver. */
    std::unique_ptr<SrpcChannel> channel;
    /** Module currently bound (all-zero digest: none). Affinity
     *  reuse skips the bind when the digests match. */
    crypto::Digest boundDigest{};
    bool inUse = false;
};

class WarmPool
{
  public:
    struct Config
    {
        std::string deviceType = "gpu";
        /** Optional device pin ("gpu1"); empty lets the dispatcher
         *  place shells. */
        std::string deviceName;
    };

    WarmPool(CronusSystem &system, Config config);

    /**
     * Create, attest and verify @p count shells. With @p driver
     * (a CPU enclave handle owned by the same application) each
     * shell is also pre-connected over sRPC, so acquire() skips the
     * per-request dCheck + grant + page-table setup too.
     */
    Status prefill(size_t count, const AppHandle *driver = nullptr);

    /**
     * Bind @p record onto a free shell and lease it out. A shell
     * whose previous lease bound the same digest is preferred and
     * skips the bind entirely. NotFound when the pool is empty,
     * ResourceExhausted when every shell is leased.
     */
    Result<WarmShell *> acquire(const ModuleRecord &record);

    /** Return a shell leased from this pool (binding is kept for
     *  affinity). InvalidState for any other pointer. */
    Status release(WarmShell *shell);

    size_t size() const { return shells.size(); }
    size_t available() const;

    StatGroup &statistics() { return stats; }

  private:
    CronusSystem &sys;
    Config cfg;
    std::vector<std::unique_ptr<WarmShell>> shells;
    StatGroup stats;
};

} // namespace cronus::core

#endif // CRONUS_CORE_WARM_POOL_HH
