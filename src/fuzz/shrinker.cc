#include "shrinker.hh"

namespace cronus::fuzz
{

namespace
{

/** Oracle runs one shrink may spend. */
constexpr uint32_t kMaxShrinkAttempts = 400;

/** Does @p sc still fail the oracles? Charges one attempt; once the
 *  budget is gone every candidate is treated as passing, which stops
 *  the shrink where it stands. */
bool
stillFails(const Scenario &sc, const FuzzOptions &opts,
           uint32_t &attempts)
{
    if (attempts >= kMaxShrinkAttempts)
        return false;
    ++attempts;
    FuzzOptions probe = opts;
    probe.shrink = false;
    probe.dumpFlightOnFailure = false;
    return !fuzzScenario(sc, probe).ok;
}

} // namespace

ShrinkResult
shrinkScenario(const Scenario &sc, const FuzzOptions &opts)
{
    ShrinkResult res;
    Scenario cur = sc;
    uint32_t attempts = 0;

    /* ddmin-lite over the op list. */
    size_t chunk = cur.ops.size() / 2;
    if (chunk == 0)
        chunk = 1;
    while (attempts < kMaxShrinkAttempts) {
        bool removed = false;
        size_t start = 0;
        while (start < cur.ops.size() &&
               attempts < kMaxShrinkAttempts) {
            Scenario cand = cur;
            size_t end = std::min(start + chunk, cand.ops.size());
            cand.ops.erase(cand.ops.begin() + start,
                           cand.ops.begin() + end);
            if (stillFails(cand, opts, attempts)) {
                cur = std::move(cand);
                removed = true;  /* same start: list shifted left */
            } else {
                start = end;
            }
        }
        if (chunk > 1)
            chunk = chunk / 2;
        else if (!removed)
            break;
    }

    /* Fault events one at a time. */
    for (size_t i = 0; i < cur.faults.size();) {
        Scenario cand = cur;
        cand.faults.erase(cand.faults.begin() + i);
        if (stillFails(cand, opts, attempts))
            cur = std::move(cand);
        else
            ++i;
    }

    /* Minimal machine: drop unreferenced enclaves/pipe. */
    Scenario norm = cur;
    norm.normalize();
    if (stillFails(norm, opts, attempts))
        cur = std::move(norm);

    res.attempts = attempts + 1;
    {
        FuzzOptions probe = opts;
        probe.shrink = false;
        probe.dumpFlightOnFailure = false;
        res.stillFails = !fuzzScenario(cur, probe).ok;
    }
    res.minimal = std::move(cur);
    return res;
}

} // namespace cronus::fuzz
