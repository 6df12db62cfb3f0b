/**
 * @file
 * SharedRegion: one region of trusted shared memory between two
 * partitions (§IV-C), the foundation under sRPC and SharedPipe.
 *
 * The owner allocates the pages from its own partition and shares
 * them once with the peer through the SPM (Fig. 6). Both ends reach
 * the region only through checked SPM accesses. Every region opens
 * with the same header:
 *
 *   0x00  magic    u64, names the user (sRPC ring, pipe)
 *   0x08  head     u64, producer index (sRPC Rid, pipe head)
 *   0x10  tail     u64, consumer index (sRPC Sid, pipe tail)
 *   0x18  closed   u8, set by the owner on close
 *   0x20  dCheck   32-byte tag
 *   0x40  payload
 *
 * dCheck authenticates the share: the peer writes an HMAC of a
 * user-chosen input under *its* copy of secret_dhke into the header,
 * and the owner compares it in constant time with the tag its own
 * copy yields. A substituted enclave or mOS cannot forge it.
 *
 * Failure rule, the same for both ends: an access that returns
 * PeerFailed (the proceed-trap of a partition failure, §IV-D) or
 * InvalidState (the accessing partition itself is down) latches
 * failed(), runs the failure callback and returns PeerFailed. Every
 * other status passes through unchanged.
 *
 * The region is released (grant revoked, then pages freed) by
 * release() and by the destructor, so a user whose setup failed
 * gives everything back when it is destroyed.
 */

#ifndef CRONUS_CORE_SHARED_REGION_HH
#define CRONUS_CORE_SHARED_REGION_HH

#include <functional>

#include "micro_enclave.hh"

namespace cronus::core
{

class SharedRegion
{
  public:
    /* Header layout: byte offsets from base(). */
    static constexpr uint64_t kMagicOff = 0x00;
    static constexpr uint64_t kHeadOff = 0x08;
    static constexpr uint64_t kTailOff = 0x10;
    static constexpr uint64_t kClosedOff = 0x18;
    static constexpr uint64_t kDcheckOff = 0x20;
    static constexpr uint64_t kPayloadOff = 0x40;

    /**
     * Byte offset of a named header field ("magic", "rid", "sid",
     * "closed", "dcheck"; rid/sid are sRPC's names for head/tail).
     * Lets the fault injector corrupt a specific field without
     * replicating the layout.
     */
    static Result<uint64_t> headerFieldOffset(const std::string &field);

    /** The end an access is issued from. */
    enum class End
    {
        Owner,
        Peer,
    };

    SharedRegion(MicroOS &owner_os, MicroOS &peer_os)
        : ownerOs(owner_os), peerOs(peer_os) {}
    ~SharedRegion() { release(); }
    SharedRegion(const SharedRegion &) = delete;
    SharedRegion &operator=(const SharedRegion &) = delete;

    /** Run @p fn on every access the failure rule maps. */
    void setFailureCallback(std::function<void()> fn)
    {
        onFailure = std::move(fn);
    }

    /**
     * Allocate the header plus @p payload_bytes (rounded up to whole
     * pages) from the owner's partition, share the pages with the
     * peer and initialize the header with @p magic.
     */
    Status establish(uint64_t payload_bytes, uint64_t magic);

    /**
     * dCheck over @p input, which should bind grantId(): the peer
     * writes HMAC(@p peer_secret, input), the owner reads it back
     * and compares it with HMAC(@p owner_secret, input).
     */
    Status dcheck(const Bytes &peer_secret, const Bytes &owner_secret,
                  const Bytes &input);

    /* Checked accesses at byte offset @p off, under the failure
     * rule. Counters are little-endian u64s. */
    Status read(End end, uint64_t off, uint8_t *out, uint64_t len);
    Status write(End end, uint64_t off, const uint8_t *data,
                 uint64_t len);
    Result<uint64_t> readU64(End end, uint64_t off);
    Status writeU64(End end, uint64_t off, uint64_t value);

    /**
     * Revoke the grant and free the pages; idempotent. Returns true
     * when the grant was revoked by this call (false: none was made,
     * or the SPM already retired it on a partition failure).
     */
    bool release();

    bool failed() const { return isFailed; }
    uint64_t grantId() const { return grant; }
    /** Physical base of the region in the owner's partition. */
    tee::PhysAddr base() const { return regionBase; }
    /** Bytes after the header (the rounded-up payload area). */
    uint64_t payloadBytes() const { return regionBytes - kPayloadOff; }

  private:
    /** Apply the failure rule to the status of one access. */
    Status check(Status s);
    MicroOS &os(End end) { return end == End::Owner ? ownerOs : peerOs; }

    MicroOS &ownerOs;
    MicroOS &peerOs;
    tee::PhysAddr regionBase = 0;
    uint64_t regionBytes = 0;
    uint64_t grant = 0;
    bool isFailed = false;
    std::function<void()> onFailure;
};

} // namespace cronus::core

#endif // CRONUS_CORE_SHARED_REGION_HH
