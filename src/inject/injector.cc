#include "injector.hh"

#include "base/bytes.hh"

namespace cronus::inject
{

FaultInjector::FaultInjector(tee::Spm &partition_manager,
                             FaultPlan plan)
    : spm(partition_manager), faultPlan(std::move(plan)),
      firedFlags(faultPlan.size(), false),
      matchCounts(faultPlan.size(), 0)
{
}

FaultInjector::~FaultInjector()
{
    /* The hook captures `this`; never leave it dangling. */
    if (hookArmed)
        disarm();
}

void
FaultInjector::arm()
{
    spm.setAccessHook([this](const tee::SpmAccess &a) {
        return onAccess(a);
    });
    hookArmed = true;
}

void
FaultInjector::disarm()
{
    spm.setAccessHook({});
    hookArmed = false;
}

size_t
FaultInjector::attachChannel(core::SrpcChannel &ch)
{
    channels.push_back(&ch);
    return channels.size() - 1;
}

Status
FaultInjector::onAccess(const tee::SpmAccess &access)
{
    /* Actions (panic, header pokes) may re-enter the Spm; those
     * internal accesses are not workload trap points. */
    if (inHook)
        return Status::ok();
    inHook = true;

    SimClock &clock = spm.monitor().platform().clock();
    const auto &events = faultPlan.events();
    Status verdict = Status::ok();
    for (size_t i = 0; i < events.size(); ++i) {
        if (firedFlags[i])
            continue;
        const FaultEvent &e = events[i];
        /* Node/link/migration events belong to the fleet layer; the
         * SPM-level injector leaves them unfired for the
         * FleetInjector to claim. */
        if (isFleetEvent(e.trigger, e.action))
            continue;
        if (!e.trigger.filter.matches(access))
            continue;
        bool fire = false;
        if (e.trigger.kind == FaultTrigger::Kind::NthAccess) {
            fire = ++matchCounts[i] == e.trigger.nth;
        } else if (e.trigger.kind == FaultTrigger::Kind::AtTime) {
            fire = clock.now() >= e.trigger.when;
        } else {
            /* AtIncarnation: wait until the victim's partition is
             * back up at the targeted incarnation; the event stays
             * pending across intermediate deaths and reboots. */
            auto victim = spm.partition(e.action.victim);
            fire = clock.now() >= e.trigger.when && victim.isOk() &&
                   victim.value()->state ==
                       tee::PartitionState::Ready &&
                   victim.value()->incarnation == e.trigger.nth;
        }
        if (!fire)
            continue;

        firedFlags[i] = true;
        FiredFault rec;
        rec.eventId = e.id;
        rec.seq = access.seq;
        rec.accessor = access.pid;
        rec.tBefore = clock.now();
        Status s = execute(e, access);
        rec.tAfter = clock.now();
        if (s.isOk()) {
            switch (e.action.kind) {
              case FaultAction::Kind::KillPartition:
                rec.description =
                    "killed partition " +
                    std::to_string(e.action.victim);
                break;
              case FaultAction::Kind::CorruptHeader:
                rec.description =
                    "corrupted header '" + e.action.headerField + "'";
                break;
              case FaultAction::Kind::SkewClock:
                rec.description =
                    "skewed clock +" +
                    std::to_string(e.action.skewNs) + "ns";
                break;
              default:
                rec.description = "fired";
                break;
            }
        } else {
            rec.description = s.message();
        }
        firedLog.push_back(rec);
        if (!s.isOk() &&
            e.action.kind == FaultAction::Kind::FailAccess) {
            verdict = s;
            break;  /* the access is aborted; stop evaluating */
        }
    }
    inHook = false;
    return verdict;
}

Status
FaultInjector::execute(const FaultEvent &e,
                       const tee::SpmAccess &access)
{
    hw::Platform &plat = spm.monitor().platform();
    switch (e.action.kind) {
      case FaultAction::Kind::KillPartition: {
        /* The triggering access proceeds afterwards: surviving
         * peers learn of the death through proceed-trap. */
        Status s = spm.panic(e.action.victim);
        (void)s;  /* killing an already-dead partition is a no-op */
        return Status::ok();
      }
      case FaultAction::Kind::FailAccess:
        return Status(ErrorCode::AccessFault,
                      "injected fault on access #" +
                      std::to_string(access.seq) + " by partition " +
                      std::to_string(access.pid));
      case FaultAction::Kind::CorruptHeader: {
        if (e.action.channelIndex >= channels.size())
            return Status(ErrorCode::InvalidState,
                          "corrupt_header: no channel attached at "
                          "index " +
                          std::to_string(e.action.channelIndex));
        core::SrpcChannel *ch = channels[e.action.channelIndex];
        auto off =
            core::SharedRegion::headerFieldOffset(e.action.headerField);
        if (!off.isOk())
            return off.status();
        ByteWriter w;
        w.putU64(e.action.corruptValue);
        /* Written straight to DRAM: corruption does not go through
         * stage-2, exactly like a rogue peer or bit flip. */
        return plat.dram().write(ch->ringBase() + off.value(),
                                 w.take());
      }
      case FaultAction::Kind::SkewClock:
        plat.clock().advance(e.action.skewNs);
        return Status::ok();
      case FaultAction::Kind::KillNode:
      case FaultAction::Kind::PartitionLink:
      case FaultAction::Kind::KillMigration:
        /* Unreachable: onAccess() filters fleet events out. */
        return Status(ErrorCode::Unsupported,
                      "fleet-scoped event on the SPM injector");
    }
    return Status(ErrorCode::InvalidArgument, "unknown fault action");
}

JsonValue
FaultInjector::report() const
{
    JsonArray fired;
    for (const FiredFault &f : firedLog) {
        JsonObject o;
        o["event"] = static_cast<int64_t>(f.eventId);
        o["seq"] = static_cast<int64_t>(f.seq);
        o["accessor"] = static_cast<int64_t>(f.accessor);
        o["t_before_ns"] = static_cast<int64_t>(f.tBefore);
        o["t_after_ns"] = static_cast<int64_t>(f.tAfter);
        o["description"] = f.description;
        fired.push_back(JsonValue(o));
    }
    JsonObject report;
    report["plan"] = faultPlan.toJson();
    report["fired"] = JsonValue(fired);
    report["pending"] =
        static_cast<int64_t>(faultPlan.size() - firedLog.size());
    return JsonValue(report);
}

} // namespace cronus::inject
