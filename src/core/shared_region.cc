#include "shared_region.hh"

namespace cronus::core
{

Result<uint64_t>
SharedRegion::headerFieldOffset(const std::string &field)
{
    if (field == "magic")
        return kMagicOff;
    if (field == "rid")
        return kHeadOff;
    if (field == "sid")
        return kTailOff;
    if (field == "closed")
        return kClosedOff;
    if (field == "dcheck")
        return kDcheckOff;
    return Status(ErrorCode::InvalidArgument,
                  "unknown ring-header field '" + field + "'");
}

Status
SharedRegion::establish(uint64_t payload_bytes, uint64_t magic)
{
    regionBytes = hw::pageAlignUp(kPayloadOff + payload_bytes);
    auto pages = ownerOs.shimKernel().allocPages(regionBytes /
                                                 hw::kPageSize);
    if (!pages.isOk())
        return pages.status();
    regionBase = pages.value();

    auto grant_id = ownerOs.spm().sharePages(
        ownerOs.partitionId(), peerOs.partitionId(), regionBase,
        regionBytes / hw::kPageSize);
    if (!grant_id.isOk())
        return grant_id.status();
    grant = grant_id.value();

    CRONUS_RETURN_IF_ERROR(writeU64(End::Owner, kMagicOff, magic));
    CRONUS_RETURN_IF_ERROR(writeU64(End::Owner, kHeadOff, 0));
    CRONUS_RETURN_IF_ERROR(writeU64(End::Owner, kTailOff, 0));
    const uint8_t open = 0;
    return write(End::Owner, kClosedOff, &open, 1);
}

Status
SharedRegion::dcheck(const Bytes &peer_secret, const Bytes &owner_secret,
                     const Bytes &input)
{
    crypto::Digest tag = crypto::hmacSha256(peer_secret, input);
    CRONUS_RETURN_IF_ERROR(
        write(End::Peer, kDcheckOff, tag.data(), tag.size()));

    Bytes expected =
        crypto::digestToBytes(crypto::hmacSha256(owner_secret, input));
    Bytes observed(expected.size());
    CRONUS_RETURN_IF_ERROR(read(End::Owner, kDcheckOff, observed.data(),
                                observed.size()));
    if (!constantTimeEqual(observed, expected))
        return Status(ErrorCode::AuthFailed, "dCheck failed");
    return Status::ok();
}

Status
SharedRegion::check(Status s)
{
    if (s.code() != ErrorCode::PeerFailed &&
        s.code() != ErrorCode::InvalidState)
        return s;
    isFailed = true;
    if (onFailure)
        onFailure();
    if (s.code() == ErrorCode::InvalidState)
        return Status(ErrorCode::PeerFailed, "partition down");
    return s;
}

Status
SharedRegion::read(End end, uint64_t off, uint8_t *out, uint64_t len)
{
    MicroOS &from = os(end);
    return check(from.spm().readInto(from.partitionId(),
                                     regionBase + off, out, len));
}

Status
SharedRegion::write(End end, uint64_t off, const uint8_t *data,
                    uint64_t len)
{
    MicroOS &from = os(end);
    return check(from.spm().write(from.partitionId(), regionBase + off,
                                  data, len));
}

Result<uint64_t>
SharedRegion::readU64(End end, uint64_t off)
{
    uint8_t buf[8];
    CRONUS_RETURN_IF_ERROR(read(end, off, buf, sizeof(buf)));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(buf[i]) << (8 * i);
    return v;
}

Status
SharedRegion::writeU64(End end, uint64_t off, uint64_t value)
{
    uint8_t buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = (value >> (8 * i)) & 0xff;
    return write(end, off, buf, sizeof(buf));
}

bool
SharedRegion::release()
{
    bool revoked = false;
    if (grant != 0) {
        revoked = ownerOs.spm()
                      .revokeGrant(grant, ownerOs.partitionId())
                      .isOk();
        grant = 0;
    }
    if (regionBase != 0) {
        ownerOs.shimKernel().freePages(regionBase,
                                       regionBytes / hw::kPageSize);
        regionBase = 0;
    }
    return revoked;
}

} // namespace cronus::core
