/**
 * @file
 * Statistics collection: counters and time series.
 */

#ifndef CRONUS_BASE_STATS_HH
#define CRONUS_BASE_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json.hh"
#include "sim_clock.hh"

namespace cronus
{

/** A monotonically increasing counter. */
class Counter
{
  public:
    void inc(uint64_t delta = 1) { total += delta; }
    uint64_t value() const { return total; }

  private:
    uint64_t total = 0;
};

/**
 * Time-bucketed event counts for throughput-over-time plots (Fig. 9).
 */
class ThroughputSeries
{
  public:
    explicit ThroughputSeries(SimTime bucket_ns = 100 * kNsPerMs)
        : bucketNs(bucket_ns) {}

    /** Record @p count events at virtual time @p when. */
    void record(SimTime when, uint64_t count = 1);

    /** Events per second for every bucket in [0, end]. */
    std::vector<double> ratesPerSecond(SimTime end) const;

  private:
    SimTime bucketNs;
    std::map<uint64_t, uint64_t> buckets;
};

/** Registry of named counters owned by one simulated component. */
class StatGroup
{
  public:
    Counter &counter(const std::string &name);
    uint64_t value(const std::string &name) const;

    /** All counters as a JSON object (metrics sources, audits). */
    JsonValue toJson() const;

  private:
    std::map<std::string, Counter> counters;
};

} // namespace cronus

#endif // CRONUS_BASE_STATS_HH
