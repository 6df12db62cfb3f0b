#include "fault_plan.hh"

namespace cronus::inject
{

FaultPlan &
FaultPlan::add(const FaultTrigger &t, const FaultAction &a)
{
    FaultEvent e;
    e.id = schedule.size() + 1;
    e.trigger = t;
    e.action = a;
    schedule.push_back(e);
    return *this;
}

FaultPlan &
FaultPlan::killOnAccess(uint64_t nth, PartitionId victim,
                        AccessFilter f)
{
    FaultTrigger t;
    t.kind = FaultTrigger::Kind::NthAccess;
    t.nth = nth;
    t.filter = f;
    FaultAction a;
    a.kind = FaultAction::Kind::KillPartition;
    a.victim = victim;
    return add(t, a);
}

FaultPlan &
FaultPlan::killAtTime(SimTime when, PartitionId victim)
{
    FaultTrigger t;
    t.kind = FaultTrigger::Kind::AtTime;
    t.when = when;
    FaultAction a;
    a.kind = FaultAction::Kind::KillPartition;
    a.victim = victim;
    return add(t, a);
}

FaultPlan &
FaultPlan::killIncarnation(uint64_t incarnation, SimTime when,
                           PartitionId victim, AccessFilter f)
{
    FaultTrigger t;
    t.kind = FaultTrigger::Kind::AtIncarnation;
    t.nth = incarnation;
    t.when = when;
    t.filter = f;
    FaultAction a;
    a.kind = FaultAction::Kind::KillPartition;
    a.victim = victim;
    return add(t, a);
}

FaultPlan &
FaultPlan::failAccess(uint64_t nth, AccessFilter f)
{
    FaultTrigger t;
    t.kind = FaultTrigger::Kind::NthAccess;
    t.nth = nth;
    t.filter = f;
    FaultAction a;
    a.kind = FaultAction::Kind::FailAccess;
    return add(t, a);
}

FaultPlan &
FaultPlan::corruptHeader(uint64_t nth, const std::string &field,
                         uint64_t value, size_t channel_index,
                         AccessFilter f)
{
    FaultTrigger t;
    t.kind = FaultTrigger::Kind::NthAccess;
    t.nth = nth;
    t.filter = f;
    FaultAction a;
    a.kind = FaultAction::Kind::CorruptHeader;
    a.headerField = field;
    a.corruptValue = value;
    a.channelIndex = channel_index;
    return add(t, a);
}

FaultPlan &
FaultPlan::skewClock(uint64_t nth, SimTime skew_ns, AccessFilter f)
{
    FaultTrigger t;
    t.kind = FaultTrigger::Kind::NthAccess;
    t.nth = nth;
    t.filter = f;
    FaultAction a;
    a.kind = FaultAction::Kind::SkewClock;
    a.skewNs = skew_ns;
    return add(t, a);
}

FaultPlan &
FaultPlan::killNodeAtTime(SimTime when, const std::string &node)
{
    FaultTrigger t;
    t.kind = FaultTrigger::Kind::AtTime;
    t.when = when;
    FaultAction a;
    a.kind = FaultAction::Kind::KillNode;
    a.node = node;
    return add(t, a);
}

FaultPlan &
FaultPlan::partitionLinkAtTime(SimTime when, const std::string &na,
                               const std::string &nb)
{
    FaultTrigger t;
    t.kind = FaultTrigger::Kind::AtTime;
    t.when = when;
    FaultAction a;
    a.kind = FaultAction::Kind::PartitionLink;
    a.node = na;
    a.nodeB = nb;
    return add(t, a);
}

FaultPlan &
FaultPlan::killMigration(uint64_t nth, const std::string &stage,
                         bool kill_dst)
{
    FaultTrigger t;
    t.kind = FaultTrigger::Kind::NthMigration;
    t.nth = nth;
    FaultAction a;
    a.kind = FaultAction::Kind::KillMigration;
    a.stage = stage;
    a.killDst = kill_dst;
    return add(t, a);
}

bool
isFleetEvent(const FaultTrigger &t, const FaultAction &a)
{
    if (t.kind == FaultTrigger::Kind::NthMigration)
        return true;
    switch (a.kind) {
      case FaultAction::Kind::KillNode:
      case FaultAction::Kind::PartitionLink:
      case FaultAction::Kind::KillMigration:
        return true;
      default:
        return false;
    }
}

namespace
{

const char *
triggerKindName(FaultTrigger::Kind k)
{
    switch (k) {
      case FaultTrigger::Kind::NthAccess: return "nth_access";
      case FaultTrigger::Kind::AtTime: return "at_time";
      case FaultTrigger::Kind::AtIncarnation: return "at_incarnation";
      case FaultTrigger::Kind::NthMigration: return "nth_migration";
    }
    return "?";
}

const char *
actionKindName(FaultAction::Kind k)
{
    switch (k) {
      case FaultAction::Kind::KillPartition: return "kill_partition";
      case FaultAction::Kind::FailAccess: return "fail_access";
      case FaultAction::Kind::CorruptHeader: return "corrupt_header";
      case FaultAction::Kind::SkewClock: return "skew_clock";
      case FaultAction::Kind::KillNode: return "kill_node";
      case FaultAction::Kind::PartitionLink: return "partition_link";
      case FaultAction::Kind::KillMigration: return "kill_migration";
    }
    return "?";
}

} // namespace

JsonValue
FaultPlan::toJson() const
{
    JsonArray events;
    for (const FaultEvent &e : schedule) {
        JsonObject t;
        t["kind"] = triggerKindName(e.trigger.kind);
        if (e.trigger.kind != FaultTrigger::Kind::AtTime)
            t["nth"] = static_cast<int64_t>(e.trigger.nth);
        if (e.trigger.kind != FaultTrigger::Kind::NthAccess)
            t["when_ns"] = static_cast<int64_t>(e.trigger.when);
        if (e.trigger.filter.pid != 0)
            t["pid"] = static_cast<int64_t>(e.trigger.filter.pid);
        t["reads"] = e.trigger.filter.countReads;
        t["writes"] = e.trigger.filter.countWrites;

        JsonObject a;
        a["kind"] = actionKindName(e.action.kind);
        switch (e.action.kind) {
          case FaultAction::Kind::KillPartition:
            a["victim"] = static_cast<int64_t>(e.action.victim);
            break;
          case FaultAction::Kind::FailAccess:
            break;
          case FaultAction::Kind::CorruptHeader:
            a["field"] = e.action.headerField;
            a["value"] = static_cast<int64_t>(e.action.corruptValue);
            a["channel"] =
                static_cast<int64_t>(e.action.channelIndex);
            break;
          case FaultAction::Kind::SkewClock:
            a["skew_ns"] = static_cast<int64_t>(e.action.skewNs);
            break;
          case FaultAction::Kind::KillNode:
            a["node"] = e.action.node;
            break;
          case FaultAction::Kind::PartitionLink:
            a["node"] = e.action.node;
            a["node_b"] = e.action.nodeB;
            break;
          case FaultAction::Kind::KillMigration:
            a["stage"] = e.action.stage;
            a["kill_dst"] = e.action.killDst;
            break;
        }

        JsonObject ev;
        ev["id"] = static_cast<int64_t>(e.id);
        ev["trigger"] = JsonValue(t);
        ev["action"] = JsonValue(a);
        events.push_back(JsonValue(ev));
    }
    JsonObject plan;
    plan["seed"] = static_cast<int64_t>(planSeed);
    plan["events"] = JsonValue(events);
    return JsonValue(plan);
}

} // namespace cronus::inject
