#include "warm_pool.hh"

#include <algorithm>

namespace cronus::core
{

namespace
{

/** Memory quota of every shell. */
constexpr uint64_t kShellMemBytes = 4ull << 20;

bool
digestIsZero(const crypto::Digest &d)
{
    for (uint8_t b : d) {
        if (b != 0)
            return false;
    }
    return true;
}

} // namespace

WarmPool::WarmPool(CronusSystem &system, Config config)
    : sys(system), cfg(std::move(config))
{
}

Status
WarmPool::prefill(size_t count, const AppHandle *driver)
{
    for (size_t i = 0; i < count; ++i) {
        auto handle = sys.createEnclaveShell(cfg.deviceType,
                                             kShellMemBytes,
                                             cfg.deviceName);
        if (!handle.isOk())
            return handle.status();

        auto shell = std::make_unique<WarmShell>();
        shell->handle = handle.value();

        /* Attest once, at prefill: the challenge is derived from the
         * shell's identity so repeated prefills stay deterministic. */
        Bytes challenge = crypto::digestToBytes(crypto::sha256(
            "warm-pool-challenge:" +
            eidToString(shell->handle.eid)));
        challenge.resize(16);
        auto report = sys.attest(shell->handle, challenge);
        if (!report.isOk())
            return report.status();
        ClientExpectation expect =
            sys.expectationFor(shell->handle);
        expect.challenge = challenge;
        CRONUS_RETURN_IF_ERROR(
            verifyAttestation(report.value(), expect));
        shell->report = report.value();

        if (driver != nullptr) {
            auto channel = sys.connect(*driver, shell->handle);
            if (!channel.isOk())
                return channel.status();
            shell->channel = std::move(channel.value());
        }
        shells.push_back(std::move(shell));
        stats.counter("prefilled").inc();
    }
    return Status::ok();
}

size_t
WarmPool::available() const
{
    size_t free_count = 0;
    for (const auto &shell : shells) {
        if (!shell->inUse)
            ++free_count;
    }
    return free_count;
}

Result<WarmShell *>
WarmPool::acquire(const ModuleRecord &record)
{
    if (shells.empty())
        return Status(ErrorCode::NotFound, "warm pool not prefilled");

    /* Prefer a shell already bound to this module (affinity: the
     * bind is free), then any free shell. */
    WarmShell *candidate = nullptr;
    for (auto &shell : shells) {
        if (shell->inUse)
            continue;
        if (shell->boundDigest == record.digest) {
            candidate = shell.get();
            break;
        }
        if (candidate == nullptr)
            candidate = shell.get();
    }
    if (candidate == nullptr)
        return Status(ErrorCode::ResourceExhausted,
                      "all warm shells leased");

    if (candidate->boundDigest == record.digest &&
        !digestIsZero(candidate->boundDigest)) {
        stats.counter("affinity_hits").inc();
    } else {
        CRONUS_RETURN_IF_ERROR(
            sys.bindEnclaveModule(candidate->handle, record));
        candidate->boundDigest = record.digest;
        stats.counter("binds").inc();
    }
    candidate->inUse = true;
    stats.counter("acquires").inc();
    return candidate;
}

Status
WarmPool::release(WarmShell *shell)
{
    auto owned = std::find_if(
        shells.begin(), shells.end(),
        [shell](const auto &own) { return own.get() == shell; });
    if (owned == shells.end() || !shell->inUse)
        return Status(ErrorCode::InvalidState,
                      "shell is not leased from this pool");
    shell->inUse = false;
    stats.counter("releases").inc();
    return Status::ok();
}

} // namespace cronus::core
