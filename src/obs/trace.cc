#include "trace.hh"

#include <cstdio>
#include <cstdlib>

#include "base/logging.hh"

namespace cronus::obs
{

namespace
{

/**
 * Trace-event timestamps are microseconds. Virtual nanoseconds divide
 * exactly by 1000.0 in double for every SimTime a run can reach, and
 * the JSON writer prints doubles with %.17g, so the conversion is
 * deterministic end to end.
 */
JsonValue
micros(SimTime ns)
{
    return JsonValue(static_cast<double>(ns) / 1000.0);
}

JsonValue
eventJson(const TraceEvent &ev)
{
    JsonObject o;
    o["name"] = ev.name;
    o["cat"] = ev.cat;
    o["ph"] = std::string(1, ev.phase);
    o["pid"] = static_cast<int64_t>(ev.platform);
    o["tid"] = static_cast<int64_t>(ev.track);
    o["ts"] = micros(ev.ts);
    if (ev.phase == 'X')
        o["dur"] = micros(ev.dur);
    else if (ev.phase == 'i')
        o["s"] = "t";  /* thread-scoped instant */
    if (!ev.args.empty())
        o["args"] = JsonValue(ev.args);
    return JsonValue(std::move(o));
}

} // namespace

Tracer::Tracer()
{
    if (envEnabled())
        traceMode = TraceMode::Full;
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

bool
Tracer::envEnabled()
{
    const char *v = std::getenv("CRONUS_TRACE");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
}

void
Tracer::ensureMode(TraceMode mode)
{
    if (static_cast<int>(mode) > static_cast<int>(traceMode))
        traceMode = mode;
}

void
Tracer::attachClock(const SimClock *clk)
{
    clockStack.push_back(clk);
    platformOrdinal = nextPlatformOrdinal++;
}

void
Tracer::detachClock(const SimClock *clk)
{
    /* Platforms usually die LIFO, but be robust to any order. */
    for (size_t i = clockStack.size(); i-- > 0;) {
        if (clockStack[i] == clk) {
            clockStack.erase(clockStack.begin() +
                             static_cast<ptrdiff_t>(i));
            break;
        }
    }
}

SimTime
Tracer::now() const
{
    return clockStack.empty() ? 0 : clockStack.back()->now();
}

uint32_t
Tracer::track(const std::string &name)
{
    auto it = trackIds.find(name);
    if (it != trackIds.end())
        return it->second;
    uint32_t id = static_cast<uint32_t>(trackNames.size()) + 1;
    trackIds.emplace(name, id);
    trackNames.push_back(name);
    return id;
}

uint32_t
Tracer::partitionTrack(uint64_t pid, const std::string &device)
{
    return track("p" + std::to_string(pid) + " " + device);
}

uint32_t
Tracer::enclaveTrack(uint64_t eid, const std::string &device)
{
    return track("e" + std::to_string(eid) + " " + device);
}

void
Tracer::record(TraceEvent ev)
{
    /* Ring mode keeps no other copy, so the event (and its args map)
     * moves into the ring. */
    if (mode() != TraceMode::Full) {
        ring.push(std::move(ev));
        return;
    }
    ring.push(ev);
    if (events.size() >= kMaxExportEvents) {
        ++dropped;
        return;
    }
    events.push_back(std::move(ev));
}

void
Tracer::instant(uint32_t track, const char *name, const char *cat,
                JsonObject args)
{
    if (!active())
        return;
    TraceEvent ev;
    ev.phase = 'i';
    ev.platform = platformOrdinal;
    ev.track = track;
    ev.ts = now();
    ev.name = name;
    ev.cat = cat;
    ev.args = std::move(args);
    record(std::move(ev));
}

void
Tracer::complete(uint32_t track, const char *name, const char *cat,
                 SimTime start, JsonObject args)
{
    if (!active())
        return;
    TraceEvent ev;
    ev.phase = 'X';
    ev.platform = platformOrdinal;
    ev.track = track;
    ev.ts = start;
    SimTime end = now();
    ev.dur = end >= start ? end - start : 0;
    ev.name = name;
    ev.cat = cat;
    ev.args = std::move(args);
    record(std::move(ev));
}

JsonValue
Tracer::flightJson() const
{
    JsonArray evs;
    for (const TraceEvent &ev : ring.snapshot())
        evs.push_back(eventJson(ev));
    JsonObject doc;
    doc["capacity"] = static_cast<int64_t>(ring.capacity());
    doc["totalRecorded"] = static_cast<int64_t>(ring.totalRecorded());
    doc["events"] = JsonValue(std::move(evs));
    JsonObject tracks;
    for (const auto &[name, id] : trackIds)
        tracks[std::to_string(id)] = name;
    doc["tracks"] = JsonValue(std::move(tracks));
    return JsonValue(std::move(doc));
}

void
Tracer::dumpFlight(const std::string &reason)
{
    dumpFlight(reason, flightJson());
}

void
Tracer::dumpFlight(const std::string &reason, const JsonValue &doc)
{
    if (dumps.size() >= kMaxRetainedDumps)
        dumps.erase(dumps.begin());
    dumps.push_back(FlightDump{reason, doc});
    if (dumpSink) {
        dumpSink(reason, doc);
        return;
    }
    uint64_t held = 0;
    if (doc.isObject() && doc["events"].isArray())
        held = doc["events"].asArray().size();
    warn(detail::formatString(
        "flight recorder dump (%s): last %llu events captured",
        reason.c_str(), static_cast<unsigned long long>(held)));
}

JsonValue
Tracer::traceJson() const
{
    JsonArray evs;
    /* Metadata first: one process_name per platform ordinal seen,
     * one thread_name per (platform, track) pair seen. */
    std::map<uint32_t, bool> platforms;
    std::map<std::pair<uint32_t, uint32_t>, bool> pairs;
    for (const TraceEvent &ev : events) {
        platforms[ev.platform] = true;
        pairs[{ev.platform, ev.track}] = true;
    }
    for (const auto &[plat, _] : platforms) {
        JsonObject meta;
        meta["name"] = "process_name";
        meta["ph"] = "M";
        meta["pid"] = static_cast<int64_t>(plat);
        meta["tid"] = 0;
        JsonObject args;
        args["name"] = "platform" + std::to_string(plat);
        meta["args"] = JsonValue(std::move(args));
        evs.push_back(JsonValue(std::move(meta)));
    }
    for (const auto &[key, _] : pairs) {
        const auto &[plat, track] = key;
        if (track == 0 || track > trackNames.size())
            continue;
        JsonObject meta;
        meta["name"] = "thread_name";
        meta["ph"] = "M";
        meta["pid"] = static_cast<int64_t>(plat);
        meta["tid"] = static_cast<int64_t>(track);
        JsonObject args;
        args["name"] = trackNames[track - 1];
        meta["args"] = JsonValue(std::move(args));
        evs.push_back(JsonValue(std::move(meta)));
    }
    for (const TraceEvent &ev : events)
        evs.push_back(eventJson(ev));
    JsonObject doc;
    doc["displayTimeUnit"] = "ns";
    doc["traceEvents"] = JsonValue(std::move(evs));
    if (dropped) {
        /* Never truncate silently. */
        doc["droppedEvents"] = static_cast<int64_t>(dropped);
    }
    return JsonValue(std::move(doc));
}

Status
Tracer::writeTraceFile(const std::string &path) const
{
    std::string text = traceJson().dump();
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return makeError(ErrorCode::InvalidArgument,
                         "cannot open trace file " + path);
    size_t n = std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (n != text.size())
        return makeError(ErrorCode::ResourceExhausted,
                         "short write to trace file " + path);
    return Status::ok();
}

uint64_t
Tracer::eventCount() const
{
    return events.size();
}

void
Tracer::clear()
{
    events.clear();
    dropped = 0;
    ring.clear();
    dumps.clear();
    trackIds.clear();
    trackNames.clear();
    /* Restart platform numbering so a fresh simulated universe in
     * the same process (tests run several back to back) stamps the
     * same platform ids as a fresh process would. */
    nextPlatformOrdinal = 0;
}

} // namespace cronus::obs
