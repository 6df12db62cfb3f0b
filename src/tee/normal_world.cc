#include "normal_world.hh"

namespace cronus::tee
{

Result<Bytes>
NormalWorld::read(hw::PhysAddr addr, uint64_t len)
{
    return sm.platform().busRead(hw::World::Normal, addr, len);
}

Status
NormalWorld::write(hw::PhysAddr addr, const Bytes &data)
{
    return sm.platform().busWrite(hw::World::Normal, addr, data);
}

} // namespace cronus::tee
