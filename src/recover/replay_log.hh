/**
 * @file
 * Watermark + journal: the one home of §IV-D's recovery rule, kept
 * per callee by ResumableChannel and per fleet enclave by Cluster.
 * State is rebuilt by respawn() (restore the last sealed checkpoint
 * into a fresh enclave) and then re-issuing the journal in order
 * through the owner's transport. When to journal is the owner's
 * call: the channel before it sends, the fleet once a call is acked.
 */

#ifndef CRONUS_RECOVER_REPLAY_LOG_HH
#define CRONUS_RECOVER_REPLAY_LOG_HH

#include "core/system.hh"

namespace cronus::recover
{

class ReplayLog
{
  public:
    struct Call
    {
        std::string fn;
        Bytes args;
    };

    /** A checkpoint is due every @p checkpoint_every acked calls
     *  (0: never). */
    explicit ReplayLog(uint64_t checkpoint_every = 0)
        : every(checkpoint_every) {}

    void record(const std::string &fn, const Bytes &args)
    {
        calls.push_back(Call{fn, args});
    }

    /** Forget entry @p index: a call that completed with an
     *  application error must not run again. */
    void drop(size_t index)
    {
        calls.erase(calls.begin() + static_cast<ptrdiff_t>(index));
    }

    const std::vector<Call> &journal() const { return calls; }

    /** Count one acked call toward the auto-checkpoint cadence. */
    void ack() { ++sinceSeal; }
    bool checkpointDue() const
    {
        return every != 0 && sinceSeal >= every;
    }

    /** Advance the watermark to @p blob, sealed under @p secret:
     *  the journal empties and the cadence restarts. */
    void seal(Bytes blob, Bytes secret);
    bool hasWatermark() const { return !sealedBlob.empty(); }

    /** Wire size: the sealed blob plus each call with its framing. */
    uint64_t wireBytes() const;

    /** createEnclave(), then restore the watermark (if any) into
     *  the fresh enclave, re-sealed under its secret; a copy whose
     *  restore fails is destroyed again. */
    Result<core::AppHandle>
    respawn(core::CronusSystem &system, const std::string &manifest_json,
            const std::string &image_name, const Bytes &image,
            const std::string &device = "") const;

  private:
    uint64_t every;
    uint64_t sinceSeal = 0;
    Bytes sealedBlob;
    Bytes sealedSecret;
    std::vector<Call> calls;
};

} // namespace cronus::recover

#endif // CRONUS_RECOVER_REPLAY_LOG_HH
