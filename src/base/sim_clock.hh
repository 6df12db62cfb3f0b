/**
 * @file
 * Deterministic virtual clock and platform cost model.
 *
 * Every simulated operation in the platform charges virtual
 * nanoseconds to a SimClock. Figure benches report virtual time, so
 * results are exactly reproducible and independent of host load.
 *
 * Hardening: advance() aborts on uint64 overflow. The check is
 * always-on (one predictable compare) so a wrapped timeline cannot
 * slip through NDEBUG builds.
 */

#ifndef CRONUS_BASE_SIM_CLOCK_HH
#define CRONUS_BASE_SIM_CLOCK_HH

#include <cstdint>

namespace cronus
{

/** Virtual time in nanoseconds. */
using SimTime = uint64_t;

constexpr SimTime kNsPerUs = 1000;
constexpr SimTime kNsPerMs = 1000 * kNsPerUs;
constexpr SimTime kNsPerSec = 1000 * kNsPerMs;

namespace detail
{
/** Abort with a clock-invariant diagnostic (see sim_clock.cc). */
[[noreturn]] void clockInvariantFailure(const char *what,
                                        unsigned long long a,
                                        unsigned long long b);
} // namespace detail

/**
 * Monotonic virtual clock shared by one simulated platform.
 */
class SimClock
{
  public:
    SimTime now() const { return current; }

    /** Charge @p ns of virtual time. Aborts on uint64 overflow. */
    void advance(SimTime ns)
    {
        if (current + ns < current)
            detail::clockInvariantFailure(
                "SimClock::advance overflow", current, ns);
        current += ns;
    }

    /** Jump to an absolute time (must not move backwards). */
    void advanceTo(SimTime when)
    {
        if (when > current)
            current = when;
    }

    void reset() { current = 0; }

  private:
    SimTime current = 0;
};

/**
 * Calibrated virtual costs of platform operations.
 *
 * The absolute values are loosely calibrated to the paper's platform
 * (QEMU A53 + TrustZone); what matters for reproduction is the
 * *ratios* (e.g. an S-EL2 cross-partition RPC needs four EL switches,
 * encryption costs scale per byte, an mOS restart is ~100s of ms
 * while a machine reboot is minutes).
 */
struct CostModel
{
    /** Normal-world <-> secure-world switch through EL3. */
    SimTime worldSwitchNs = 2400;
    /** Context switches for one synchronous S-EL2 cross-partition
     *  RPC leg (the paper: at least four switches each way). */
    SimTime sel2RpcSwitchNs = 4 * 2400;
    /** Stage-2 page table entry update (map/unmap one page). */
    SimTime pageTableUpdateNs = 350;
    /** TLB invalidation broadcast. */
    SimTime tlbInvalidateNs = 1200;
    /** SMMU table entry update. */
    SimTime smmuUpdateNs = 500;
    /** Fault trap delivery + handler entry. */
    SimTime trapHandleNs = 3000;
    /** Ring-buffer enqueue/dequeue bookkeeping. */
    SimTime ringBufferOpNs = 120;
    /** Spinlock acquire/release on shared memory. */
    SimTime spinlockOpNs = 60;

    /** CPU memcpy, per byte. */
    double memcpyNsPerByte = 0.12;
    /** PCIe DMA, per byte (~12 GB/s effective). */
    double dmaNsPerByte = 0.08;
    /** AES-128-CTR software encryption, per byte. */
    double aesNsPerByte = 1.6;
    /** HMAC-SHA256, per byte. */
    double hmacNsPerByte = 1.1;
    /** SHA-256 measurement, per byte. */
    double shaNsPerByte = 1.0;
    /** Signature sign/verify (Schnorr, fixed cost). */
    SimTime signNs = 180 * kNsPerUs;
    SimTime verifyNs = 220 * kNsPerUs;
    /** Diffie-Hellman key agreement (per side). */
    SimTime dhNs = 250 * kNsPerUs;

    /** Booting / reloading one mOS image into a partition. */
    SimTime mosBootNs = 180 * kNsPerMs;
    /** Clearing device + shared memory state, per MiB. */
    SimTime deviceClearNsPerMiB = 2 * kNsPerMs;
    /** Whole-machine cold reboot (the Fig. 9 comparator). */
    SimTime machineRebootNs = 120 * kNsPerSec;
    /** SPM hang-detection polling period. */
    SimTime hangPollNs = 10 * kNsPerMs;

    /** Cost of a synchronous mECall dispatch through the normal
     *  world (enclave dispatcher hop). */
    SimTime dispatchNs = 5 * kNsPerUs;

    /** CPU-side driver cost of submitting one GPU kernel launch
     *  (command build + ioctl + doorbell; gdev-class driver). */
    SimTime gpuSubmitNs = 5 * kNsPerUs;
    /** CPU-side driver cost of issuing one GPU copy command. */
    SimTime gpuCopyCmdNs = 2500;
    /** CPU-side driver cost of submitting one NPU program. */
    SimTime npuSubmitNs = 3 * kNsPerUs;
};

} // namespace cronus

#endif // CRONUS_BASE_SIM_CLOCK_HH
