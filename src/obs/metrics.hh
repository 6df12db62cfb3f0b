/**
 * @file
 * Machine-wide metrics report.
 *
 * Component counters live where they are counted (a StatGroup, a
 * TlbCounters struct on the hot path). Each component contributes a
 * pull-source -- a closure that renders its counters as JSON -- and
 * snapshot() calls every source, so one call reports the whole
 * machine as `{"sources": {name: {...}, ...}}`.
 */

#ifndef CRONUS_OBS_METRICS_HH
#define CRONUS_OBS_METRICS_HH

#include <functional>
#include <map>
#include <string>
#include <utility>

#include "base/json.hh"

namespace cronus::obs
{

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Register the pull-source @p name; re-registering a name
     *  replaces the previous source. */
    using Source = std::function<JsonValue()>;
    void
    addSource(const std::string &name, Source source)
    {
        sources[name] = std::move(source);
    }

    /** Every source rendered now, keyed by name under "sources". */
    JsonValue
    snapshot() const
    {
        JsonObject out;
        for (const auto &[name, fn] : sources)
            out[name] = fn();
        JsonObject doc;
        doc["sources"] = JsonValue(std::move(out));
        return JsonValue(std::move(doc));
    }

  private:
    std::map<std::string, Source> sources;
};

} // namespace cronus::obs

#endif // CRONUS_OBS_METRICS_HH
