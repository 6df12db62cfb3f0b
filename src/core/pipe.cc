#include "pipe.hh"

#include "base/logging.hh"

namespace cronus::core
{

namespace
{

using End = SharedRegion::End;
constexpr uint64_t kPipeMagic = 0x50495045e3e3e3e3ull;

} // namespace

Result<std::unique_ptr<SharedPipe>>
SharedPipe::create(MicroOS &writer_os, Eid /*writer_eid*/,
                   MicroOS &reader_os, Eid reader_eid,
                   const Bytes &secret, const PipeConfig &config)
{
    std::unique_ptr<SharedPipe> pipe(new SharedPipe(writer_os, reader_os));
    SharedRegion &region = pipe->region;
    CRONUS_RETURN_IF_ERROR(region.establish(config.capacity, kPipeMagic));
    pipe->capacity = region.payloadBytes();

    /* dCheck through the pipe itself: the reader enclave proves it
     * holds secret_dhke (same defense as sRPC setup). */
    auto reader = reader_os.enclaveManager().enclave(reader_eid);
    if (!reader.isOk())
        return reader.status();
    ByteWriter input;
    input.putString("pipe-dcheck");
    input.putU64(region.grantId());
    input.putU32(reader_eid);
    CRONUS_RETURN_IF_ERROR(
        region.dcheck(reader.value()->secret(), secret, input.data()));
    return pipe;
}

Result<uint64_t>
SharedPipe::write(const Bytes &data)
{
    if (region.failed())
        return Status(ErrorCode::PeerFailed, "pipe peer failed");
    if (writeClosed)
        return Status(ErrorCode::InvalidState, "write end closed");

    auto remote_tail = region.readU64(End::Owner, SharedRegion::kTailOff);
    if (!remote_tail.isOk())
        return remote_tail.status();
    tail = remote_tail.value();

    uint64_t free_bytes = capacity - (head - tail);
    uint64_t n = std::min<uint64_t>(free_bytes, data.size());
    for (uint64_t i = 0; i < n;) {
        uint64_t pos = (head + i) % capacity;
        uint64_t run = std::min(n - i, capacity - pos);
        CRONUS_RETURN_IF_ERROR(
            region.write(End::Owner, SharedRegion::kPayloadOff + pos,
                         data.data() + i, run));
        i += run;
    }
    platform.chargeMemcpy(n);
    head += n;
    CRONUS_RETURN_IF_ERROR(
        region.writeU64(End::Owner, SharedRegion::kHeadOff, head));
    return n;
}

Result<Bytes>
SharedPipe::read(uint64_t max)
{
    if (region.failed())
        return Status(ErrorCode::PeerFailed, "pipe peer failed");
    auto visible_head = available();
    if (!visible_head.isOk())
        return visible_head.status();

    uint64_t n = std::min(visible_head.value(), max);
    Bytes out(n);
    for (uint64_t i = 0; i < n;) {
        uint64_t pos = (tail + i) % capacity;
        uint64_t run = std::min(n - i, capacity - pos);
        CRONUS_RETURN_IF_ERROR(
            region.read(End::Peer, SharedRegion::kPayloadOff + pos,
                        out.data() + i, run));
        i += run;
    }
    platform.chargeMemcpy(n);
    tail += n;
    CRONUS_RETURN_IF_ERROR(
        region.writeU64(End::Peer, SharedRegion::kTailOff, tail));
    return out;
}

Result<uint64_t>
SharedPipe::available()
{
    auto remote_head = region.readU64(End::Peer, SharedRegion::kHeadOff);
    if (!remote_head.isOk())
        return remote_head.status();
    return remote_head.value() - tail;
}

Status
SharedPipe::closeWrite()
{
    if (writeClosed)
        return Status(ErrorCode::InvalidState, "already closed");
    writeClosed = true;
    const uint8_t closed_flag = 1;
    return region.write(End::Owner, SharedRegion::kClosedOff,
                        &closed_flag, 1);
}

Result<bool>
SharedPipe::endOfStream()
{
    uint8_t closed_flag = 0;
    CRONUS_RETURN_IF_ERROR(region.read(End::Peer, SharedRegion::kClosedOff,
                                       &closed_flag, 1));
    if (closed_flag == 0)
        return false;
    auto pending = available();
    if (!pending.isOk())
        return pending.status();
    return pending.value() == 0;
}

} // namespace cronus::core
