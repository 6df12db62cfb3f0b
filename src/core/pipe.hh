/**
 * @file
 * SharedPipe: a byte-stream pipe between mEnclaves over trusted
 * shared memory.
 *
 * §IV-C notes that, beyond RPC, trusted shared memory supports other
 * inter-enclave communication (pipes, peer-to-peer transfers). This
 * is that pipe: a single-producer single-consumer ring whose ends
 * live in different partitions. It stands on sRPC's foundation, a
 * SharedRegion: an SPM grant (share-once), authenticated by a dCheck
 * derived from the consumer enclave's ownership secret, where a
 * partition failure turns the next access into a trap that surfaces
 * as PeerFailed (crash safety per §IV-D; the *application* handles
 * data recovery, e.g. via checkpoints). Destroying the pipe revokes
 * its grant and frees its pages.
 */

#ifndef CRONUS_CORE_PIPE_HH
#define CRONUS_CORE_PIPE_HH

#include <memory>

#include "shared_region.hh"

namespace cronus::core
{

struct PipeConfig
{
    /** Data capacity in bytes (rounded up to whole pages). */
    uint64_t capacity = 64 * 1024;
};

class SharedPipe
{
  public:
    /**
     * Create a pipe from @p writer_eid (hosted by @p writer_os,
     * which owns the backing pages) to @p reader_eid. @p secret is
     * secret_dhke between the writer (owner/creator of the reader
     * enclave) and the reader enclave, used for the dCheck.
     */
    static Result<std::unique_ptr<SharedPipe>> create(
        MicroOS &writer_os, Eid writer_eid, MicroOS &reader_os,
        Eid reader_eid, const Bytes &secret,
        const PipeConfig &config = PipeConfig());

    /**
     * Write up to capacity; returns bytes accepted (0 if full).
     * PeerFailed if the reader's partition died.
     */
    Result<uint64_t> write(const Bytes &data);

    /** Read up to @p max bytes (possibly 0 if empty). */
    Result<Bytes> read(uint64_t max);

    /** Bytes currently buffered. */
    Result<uint64_t> available();

    /** Writer signals end-of-stream. */
    Status closeWrite();
    /** True once the writer closed and the buffer drained. */
    Result<bool> endOfStream();

    uint64_t grantId() const { return region.grantId(); }
    bool failed() const { return region.failed(); }

  private:
    SharedPipe(MicroOS &writer_os, MicroOS &reader_os)
        : platform(writer_os.spm().monitor().platform()),
          region(writer_os, reader_os) {}

    hw::Platform &platform;
    /** Owned by the writer's partition, shared to the reader's. */
    SharedRegion region;
    uint64_t capacity = 0;  ///< data bytes (whole pages less header)
    uint64_t head = 0;  ///< writer position (bytes, monotonic)
    uint64_t tail = 0;  ///< reader position (bytes, monotonic)
    bool writeClosed = false;
};

} // namespace cronus::core

#endif // CRONUS_CORE_PIPE_HH
