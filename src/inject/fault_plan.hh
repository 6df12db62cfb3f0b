/**
 * @file
 * Deterministic fault plans for the simulated platform.
 *
 * A FaultPlan is a seeded, scriptable list of fault events. Each
 * event pairs a *trigger* (the Nth checked SPM access, optionally
 * filtered by partition and direction, or a virtual-time deadline)
 * with an *action* (kill a partition, fail the triggering access,
 * corrupt a named sRPC ring-header field, or skew the simulated
 * clock). A plan fires at the same access ordinals on every run, so
 * benches and tests replay failures exactly (§IV-D experiments); its
 * seed travels with its JSON.
 *
 * The plan is pure data; the FaultInjector (injector.hh) arms it
 * against a live Spm.
 */

#ifndef CRONUS_INJECT_FAULT_PLAN_HH
#define CRONUS_INJECT_FAULT_PLAN_HH

#include <string>
#include <vector>

#include "base/json.hh"
#include "base/sim_clock.hh"
#include "tee/spm.hh"

namespace cronus::inject
{

using tee::PartitionId;

/** Which checked accesses an access-counting trigger counts. */
struct AccessFilter
{
    /** Count only accesses by this partition (0 = any). */
    PartitionId pid = 0;
    /** Count reads, writes, or both. */
    bool countReads = true;
    bool countWrites = true;

    bool matches(const tee::SpmAccess &a) const
    {
        if (pid != 0 && a.pid != pid)
            return false;
        return a.isWrite ? countWrites : countReads;
    }

    static AccessFilter any() { return AccessFilter{}; }
    static AccessFilter readsBy(PartitionId p)
    {
        return AccessFilter{p, true, false};
    }
    static AccessFilter writesBy(PartitionId p)
    {
        return AccessFilter{p, false, true};
    }
};

struct FaultTrigger
{
    enum class Kind
    {
        /** Fire on the Nth access matching the filter (1-based). */
        NthAccess,
        /** Fire on the first matching access at or after a virtual
         *  time (the clock only advances via simulated work, so the
         *  trap point is still deterministic). */
        AtTime,
        /** Fire on the first matching access at/after `when` while
         *  the kill victim's partition is Ready at incarnation
         *  `nth`. Stacking one event per incarnation crashes every
         *  successive reboot — a deterministic crash-loop plan that
         *  drives a supervisor into its restart budget. */
        AtIncarnation,
        /** Fire on the Nth fleet migration (1-based), at the stage
         *  named by the action. Fleet-scoped: armed by the cluster's
         *  FleetInjector against Cluster::setStageHook; the SPM
         *  FaultInjector ignores these events. */
        NthMigration,
    };

    Kind kind = Kind::NthAccess;
    uint64_t nth = 1;
    SimTime when = 0;
    AccessFilter filter;
};

struct FaultAction
{
    enum class Kind
    {
        /** Panic a partition; the triggering access still proceeds,
         *  so the victim's peers discover the failure through the
         *  proceed-trap path (§IV-D). */
        KillPartition,
        /** Abort the triggering access with AccessFault. */
        FailAccess,
        /** Overwrite a named sRPC ring-header field of an attached
         *  channel with a 64-bit value (models corruption from a
         *  buggy or malicious peer). */
        CorruptHeader,
        /** Advance the simulated clock by a fixed skew (models a
         *  stalled device or timing perturbation). */
        SkewClock,
        /** Crash an entire SoC: every partition on the named node
         *  panics at once (power loss / fatal SoC error). Fleet-
         *  scoped -- armed by the FleetInjector, ignored by the SPM
         *  FaultInjector. */
        KillNode,
        /** Sever the interconnect link between two named nodes (or
         *  between a node and the fleet frontend when `nodeB` is
         *  empty): cross-node sRPC over the link fails with
         *  PeerFailed until the bench/test heals it. Fleet-scoped. */
        PartitionLink,
        /** Kill the migration source or destination node mid-
         *  migration, at the stage named by `stage` ("snapshot",
         *  "transfer", "reattest", "restore", "replay", "retire").
         *  The convergence oracle: afterwards exactly one of
         *  source/destination must hold the enclave. Fleet-scoped. */
        KillMigration,
    };

    Kind kind = Kind::KillPartition;
    PartitionId victim = 0;        ///< KillPartition
    std::string headerField;       ///< CorruptHeader ("rid", ...)
    uint64_t corruptValue = 0;     ///< CorruptHeader
    size_t channelIndex = 0;       ///< CorruptHeader (attach order)
    SimTime skewNs = 0;            ///< SkewClock
    std::string node;              ///< KillNode / PartitionLink
    std::string nodeB;             ///< PartitionLink (other end)
    std::string stage;             ///< KillMigration (stage name)
    bool killDst = false;          ///< KillMigration: dst, not src
};

/** True for events the SPM-level FaultInjector must not arm (they
 *  target fleet machinery: nodes, links, migration windows). */
bool isFleetEvent(const FaultTrigger &t, const FaultAction &a);

struct FaultEvent
{
    uint64_t id = 0;
    FaultTrigger trigger;
    FaultAction action;
};

/**
 * Builder for a deterministic fault schedule. All helpers return
 * *this for chaining.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(uint64_t seed = 1) : planSeed(seed) {}

    uint64_t seed() const { return planSeed; }

    /** Kill @p victim on the @p nth access matching @p f. */
    FaultPlan &killOnAccess(uint64_t nth, PartitionId victim,
                            AccessFilter f = AccessFilter::any());

    /** Kill @p victim on the first access at/after @p when. */
    FaultPlan &killAtTime(SimTime when, PartitionId victim);

    /** Kill @p victim's incarnation @p incarnation on its first
     *  matching access at/after @p when (crash-loop building block:
     *  one event per incarnation). */
    FaultPlan &killIncarnation(uint64_t incarnation, SimTime when,
                               PartitionId victim,
                               AccessFilter f = AccessFilter::any());

    /** Fail the @p nth matching access with AccessFault. */
    FaultPlan &failAccess(uint64_t nth,
                          AccessFilter f = AccessFilter::any());

    /** On the @p nth matching access, write @p value over header
     *  @p field of the channel attached at @p channel_index. */
    FaultPlan &corruptHeader(uint64_t nth, const std::string &field,
                             uint64_t value, size_t channel_index = 0,
                             AccessFilter f = AccessFilter::any());

    /** On the @p nth matching access, advance the clock @p skew_ns. */
    FaultPlan &skewClock(uint64_t nth, SimTime skew_ns,
                         AccessFilter f = AccessFilter::any());

    /* --- fleet-scoped events (cluster::FleetInjector) --- */

    /** Crash every partition on @p node at/after virtual @p when. */
    FaultPlan &killNodeAtTime(SimTime when, const std::string &node);

    /** Sever the @p a <-> @p b interconnect link at/after @p when
     *  (empty @p b = the fleet frontend link). */
    FaultPlan &partitionLinkAtTime(SimTime when, const std::string &a,
                                   const std::string &b);

    /** On the @p nth fleet migration, kill the source (or, with
     *  @p kill_dst, the destination) node when the migration reaches
     *  @p stage ("snapshot" ... "retire"). */
    FaultPlan &killMigration(uint64_t nth, const std::string &stage,
                             bool kill_dst = false);

    const std::vector<FaultEvent> &events() const { return schedule; }
    size_t size() const { return schedule.size(); }

    /** The schedule as JSON (audit reports, golden tests). */
    JsonValue toJson() const;

  private:
    FaultPlan &add(const FaultTrigger &t, const FaultAction &a);

    uint64_t planSeed;
    std::vector<FaultEvent> schedule;
};

} // namespace cronus::inject

#endif // CRONUS_INJECT_FAULT_PLAN_HH
