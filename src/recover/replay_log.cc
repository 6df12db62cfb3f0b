#include "replay_log.hh"

namespace cronus::recover
{

/** Journal entry framing on the wire (fn-name length, arg length,
 *  request id). */
constexpr uint64_t kCallFramingBytes = 16;

void
ReplayLog::seal(Bytes blob, Bytes secret)
{
    sealedBlob = std::move(blob);
    sealedSecret = std::move(secret);
    calls.clear();
    sinceSeal = 0;
}

uint64_t
ReplayLog::wireBytes() const
{
    uint64_t bytes = sealedBlob.size();
    for (const Call &c : calls)
        bytes += c.fn.size() + c.args.size() + kCallFramingBytes;
    return bytes;
}

Result<core::AppHandle>
ReplayLog::respawn(core::CronusSystem &system,
                   const std::string &manifest_json,
                   const std::string &image_name, const Bytes &image,
                   const std::string &device) const
{
    auto fresh =
        system.createEnclave(manifest_json, image_name, image, device);
    if (!fresh.isOk() || !hasWatermark())
        return fresh;
    core::AppHandle h = fresh.value();
    Status s = system.restoreEnclave(h, sealedBlob, sealedSecret);
    if (!s.isOk()) {
        (void)system.destroyEnclave(h);
        return s;
    }
    return h;
}

} // namespace cronus::recover
