/**
 * @file
 * The untrusted normal world: a full-fledged OS stand-in.
 *
 * Its raw memory accesses go through the platform bus as
 * World::Normal, so TZASC filtering genuinely applies; the attack
 * suite and the fuzzer drive them to emulate a malicious OS. The
 * sRPC executor is the caller's own pump(), not a normal-world
 * thread: setting a channel up charges the one world switch that
 * asks the normal world for it.
 */

#ifndef CRONUS_TEE_NORMAL_WORLD_HH
#define CRONUS_TEE_NORMAL_WORLD_HH

#include "secure_monitor.hh"

namespace cronus::tee
{

class NormalWorld
{
  public:
    explicit NormalWorld(SecureMonitor &monitor) : sm(monitor) {}

    /** Raw access as the (possibly malicious) normal world. */
    Result<Bytes> read(hw::PhysAddr addr, uint64_t len);
    Status write(hw::PhysAddr addr, const Bytes &data);

  private:
    SecureMonitor &sm;
};

} // namespace cronus::tee

#endif // CRONUS_TEE_NORMAL_WORLD_HH
