#include "stats.hh"

namespace cronus
{

void
ThroughputSeries::record(SimTime when, uint64_t count)
{
    buckets[when / bucketNs] += count;
}

std::vector<double>
ThroughputSeries::ratesPerSecond(SimTime end) const
{
    size_t n = static_cast<size_t>(end / bucketNs) + 1;
    std::vector<double> rates(n, 0.0);
    double scale = static_cast<double>(kNsPerSec) /
                   static_cast<double>(bucketNs);
    for (const auto &[bucket, count] : buckets) {
        if (bucket < n)
            rates[bucket] = count * scale;
    }
    return rates;
}

Counter &
StatGroup::counter(const std::string &name)
{
    return counters[name];
}

uint64_t
StatGroup::value(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
}

JsonValue
StatGroup::toJson() const
{
    JsonObject out;
    for (const auto &[name, counter] : counters)
        out[name] = static_cast<int64_t>(counter.value());
    return JsonValue(std::move(out));
}

} // namespace cronus
