/**
 * @file
 * Span-based virtual-time tracer.
 *
 * Every event is stamped from the platform's SimClock -- never from
 * wall clock -- so traces are deterministic: two identical runs
 * produce byte-identical trace JSON. The tracer itself never charges
 * virtual time (it only *reads* the clock), which is what keeps
 * figure-bench output byte-identical whether tracing is on or off --
 * the same discipline the software TLB established with
 * CRONUS_DISABLE_TLB.
 *
 * Three modes:
 *
 *   Off   (default)  spans and instants are no-ops;
 *   Ring             events feed only the bounded FlightRecorder --
 *                    cheap enough to leave on whenever an
 *                    InvariantAuditor is attached, so every audit
 *                    violation, fuzz-oracle failure or Supervisor
 *                    quarantine can dump the last-N-events timeline;
 *   Full             events are additionally accumulated for export
 *                    as a Chrome/Perfetto trace-event JSON document
 *                    (chrome://tracing or ui.perfetto.dev).
 *
 * CRONUS_TRACE=1 in the environment selects Full at first use;
 * components may programmatically raise the mode (never lower it)
 * with ensureMode().
 *
 * Track model: trace `pid` is the platform ordinal (Platform
 * registers its SimClock on construction), trace `tid` is a named
 * track -- one per partition ("p2 gpu0"), per enclave ("e65537 cpu0")
 * or per component ("dispatcher") -- resolved through the track
 * helpers below and emitted as thread_name metadata.
 */

#ifndef CRONUS_OBS_TRACE_HH
#define CRONUS_OBS_TRACE_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/sim_clock.hh"
#include "flight_recorder.hh"

namespace cronus::obs
{

enum class TraceMode
{
    Off,   ///< tracing disabled; spans/instants are no-ops
    Ring,  ///< events feed only the flight-recorder ring
    Full,  ///< ring + full event list for JSON export
};

class Tracer
{
  public:
    /** Process-wide tracer. First use resolves CRONUS_TRACE. */
    static Tracer &instance();

    TraceMode mode() const { return traceMode; }
    bool active() const { return mode() != TraceMode::Off; }
    bool exporting() const { return mode() == TraceMode::Full; }
    void setMode(TraceMode mode) { traceMode = mode; }
    /** Raise the mode to at least @p mode; never lowers it. */
    void ensureMode(TraceMode mode);
    /** CRONUS_TRACE set to a non-empty value other than "0". */
    static bool envEnabled();

    /* --- clock registration (Platform ctor/dtor) --- */

    /**
     * A platform came up: its SimClock becomes the stamping clock
     * and events are attributed to a fresh platform ordinal until
     * the next attach (or this clock's detach).
     */
    void attachClock(const SimClock *clk);
    void detachClock(const SimClock *clk);
    /** Virtual now for stamping: the innermost attached clock (0
     *  if none). */
    SimTime now() const;

    /* --- tracks --- */

    /** Id of the named track (memoized; ids are first-use order,
     *  so identical runs assign identical ids). */
    uint32_t track(const std::string &name);
    /** "p<pid> <device>" partition track. */
    uint32_t partitionTrack(uint64_t pid, const std::string &device);
    /** "e<eid> <device>" enclave track. */
    uint32_t enclaveTrack(uint64_t eid, const std::string &device);

    /* --- events --- */

    /** Instant event at virtual now. */
    void instant(uint32_t track, const char *name, const char *cat,
                 JsonObject args = JsonObject{});
    /** Complete event from @p start to virtual now. */
    void complete(uint32_t track, const char *name, const char *cat,
                  SimTime start, JsonObject args = JsonObject{});

    /* --- flight recorder --- */

    FlightRecorder &flight() { return ring; }
    /** Ring contents as a standalone JSON document. */
    JsonValue flightJson() const;
    /**
     * Emit a flight-recorder dump: snapshot the ring, retain it in
     * recentDumps() (bounded) and hand it to the dump sink. Called
     * by the InvariantAuditor on a violation, by the fuzz harness on
     * an oracle failure, and by the Supervisor on quarantine.
     */
    void dumpFlight(const std::string &reason);
    /** Same, but dump a previously captured flight document (the
     *  fuzz harness snapshots the ring before its baseline run). */
    void dumpFlight(const std::string &reason, const JsonValue &doc);

    struct FlightDump
    {
        std::string reason;
        JsonValue doc;
    };
    const std::vector<FlightDump> &recentDumps() const
    {
        return dumps;
    }
    /** Replace the default sink (a Logger warn line). Pass an empty
     *  function to restore the default. */
    using DumpSink =
        std::function<void(const std::string & /*reason*/,
                           const JsonValue & /*doc*/)>;
    void setDumpSink(DumpSink sink) { dumpSink = std::move(sink); }

    /* --- export --- */

    /** Chrome trace-event document ("traceEvents" + metadata). */
    JsonValue traceJson() const;
    Status writeTraceFile(const std::string &path) const;
    uint64_t eventCount() const;

    /** Drop events, tracks, ring and retained dumps (keeps mode and
     *  attached clocks). Tests and sequential benches use this to
     *  start a fresh byte-identical trace. */
    void clear();

  private:
    Tracer();
    void record(TraceEvent ev);

    /* Full-mode growth is bounded so a runaway trace degrades into
     * a truncated (and counted) document instead of an OOM. */
    static constexpr size_t kMaxExportEvents = 1u << 22;
    static constexpr size_t kMaxRetainedDumps = 8;

    TraceMode traceMode = TraceMode::Off;
    uint32_t nextPlatformOrdinal = 0;

    /* Stamping state: attached clocks, innermost last, and the
     * ordinal of the most recently attached platform. */
    std::vector<const SimClock *> clockStack;
    uint32_t platformOrdinal = 0;

    std::map<std::string, uint32_t> trackIds;
    std::vector<std::string> trackNames;  ///< index = id - 1

    std::vector<TraceEvent> events;
    uint64_t dropped = 0;
    FlightRecorder ring;
    std::vector<FlightDump> dumps;
    DumpSink dumpSink;
};

/**
 * RAII span: opens at construction, emits one complete event at
 * close()/destruction. Inert (no clock read, no allocation) when the
 * tracer is Off at construction time. Close order gives the natural
 * nesting: an inner span closes (and is emitted) before its outer
 * span, and Perfetto reconstructs the stack from ts/dur containment.
 */
class Span
{
  public:
    Span() = default;
    Span(uint32_t track, const char *name, const char *cat)
    {
        Tracer &tracer = Tracer::instance();
        if (!tracer.active())
            return;
        live_ = true;
        track_ = track;
        name_ = name;
        cat_ = cat;
        start_ = tracer.now();
    }
    Span(Span &&other) noexcept { *this = std::move(other); }
    Span &
    operator=(Span &&other) noexcept
    {
        if (this != &other) {
            close();
            live_ = other.live_;
            track_ = other.track_;
            start_ = other.start_;
            name_ = other.name_;
            cat_ = other.cat_;
            args_ = std::move(other.args_);
            other.live_ = false;
        }
        return *this;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    ~Span() { close(); }

    bool live() const { return live_; }

    /** Attach an argument (no-op on a dead span). */
    void
    arg(const char *key, int64_t value)
    {
        if (live_)
            args_[key] = value;
    }
    void
    arg(const char *key, const std::string &value)
    {
        if (live_)
            args_[key] = value;
    }

    void
    close()
    {
        if (!live_)
            return;
        live_ = false;
        Tracer::instance().complete(track_, name_, cat_, start_,
                                    std::move(args_));
    }

  private:
    bool live_ = false;
    uint32_t track_ = 0;
    SimTime start_ = 0;
    const char *name_ = "";
    const char *cat_ = "";
    JsonObject args_;
};

} // namespace cronus::obs

#endif // CRONUS_OBS_TRACE_HH
