#include "cpu_hal.hh"

namespace cronus::mos
{

Status
CpuHal::execute(uint64_t ctx, uint64_t work_units,
                const std::function<Status()> &fn)
{
    CRONUS_RETURN_IF_ERROR(ensureProbed());
    shim.heartbeat();
    auto cost = dev->execute(id(ctx), work_units, fn);
    if (!cost.isOk())
        return cost.status();
    shim.platform().clock().advance(cost.value());
    return Status::ok();
}

} // namespace cronus::mos
