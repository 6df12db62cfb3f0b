/**
 * @file
 * RISC-V Physical Memory Protection (PMP) model.
 *
 * §VII-A: CRONUS applies directly to TEEs built on RISC-V PMP --
 * partition isolation maps to per-hart PMP configurations, SecureIO
 * to PMP entries over device MMIO, and shared TEE memory to
 * overlapped PMP configurations. This module models the PMP unit
 * (16 entries, priority-ordered, NA4/NAPOT/TOR address matching,
 * lockable entries). tee::PmpBackend programs it with per-partition
 * TOR pairs when the PMP isolation backend is selected.
 */

#ifndef CRONUS_HW_PMP_HH
#define CRONUS_HW_PMP_HH

#include <array>

#include "base/status.hh"
#include "types.hh"

namespace cronus::hw
{

/** PMP address-matching mode. */
enum class PmpMode : uint8_t
{
    Off,
    Tor,    ///< top-of-range: [prev entry addr, this addr)
    Na4,    ///< naturally aligned 4-byte region
    Napot,  ///< naturally aligned power-of-two region >= 8 bytes
};

enum class PmpAccess : uint8_t
{
    Read,
    Write,
    Exec,
};

/** One pmpcfg/pmpaddr pair (decoded form). */
struct PmpEntry
{
    PmpMode mode = PmpMode::Off;
    /** Encoded pmpaddr value (address >> 2, NAPOT-encoded). */
    uint64_t addr = 0;
    bool read = false;
    bool write = false;
    bool exec = false;
    /** Locked entries cannot be reconfigured until reset. */
    bool locked = false;
};

class Pmp
{
  public:
    static constexpr size_t kEntries = 16;

    /** NAPOT-encode a region (base/size must be power-of-two
     *  aligned, size >= 8). */
    static Result<uint64_t> napotEncode(PhysAddr base,
                                        uint64_t size);
    /** Decode a NAPOT pmpaddr into (base, size). */
    static std::pair<PhysAddr, uint64_t> napotDecode(uint64_t addr);

    /** Program entry @p index. Fails on locked entries. */
    Status configure(size_t index, const PmpEntry &entry);

    /** Clear all non-locked entries. */
    void reset();

    /**
     * Check an access. The lowest-numbered matching entry decides;
     * with no match the access fails (S/U-mode semantics).
     */
    Status check(PhysAddr addr, uint64_t len, PmpAccess access) const;

    const PmpEntry &entry(size_t index) const;

  private:
    /** Matching range of an entry given its predecessor. */
    bool matches(size_t index, PhysAddr addr, uint64_t len) const;

    std::array<PmpEntry, kEntries> entries{};
};

} // namespace cronus::hw

#endif // CRONUS_HW_PMP_HH
