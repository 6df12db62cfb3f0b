/**
 * @file
 * CLI front-end for the deterministic scenario fuzzer (src/fuzz/).
 *
 *   fuzz_runner                     run the default 50-seed corpus
 *   fuzz_runner --runs N            run seeds 1..N
 *   fuzz_runner --seed S            run one seed (prints the trace)
 *   fuzz_runner --replay FILE       re-run a scenario or trace JSON
 *                                   (its dialect comes from the file)
 *   fuzz_runner --plant-bug         enable the test-only planted bug
 *   fuzz_runner --no-shrink         skip minimization on failure
 *   fuzz_runner --diff-backends     replay seeds 1..N on both
 *                                   isolation substrates (tz and
 *                                   pmp) and flag any verdict
 *                                   divergence (no oracles, so no
 *                                   shrink or bug)
 *   fuzz_runner --cluster           generate multi-SoC fleet
 *                                   scenarios (fleet calls, live
 *                                   migration, node kill/drain)
 *                                   instead of single-node ones;
 *                                   composes with --runs, --seed
 *                                   and --diff-backends
 *   fuzz_runner --verdicts FILE     write one "seed=S PASS|FAIL
 *                                   oracles" line per corpus seed as
 *                                   it finishes (runs the whole
 *                                   corpus even past a failure, so
 *                                   the file lists every seed)
 *
 * A flag the chosen mode does not read is a usage error (exit 2),
 * never silently dropped: --seed takes neither --runs nor
 * --verdicts; --replay takes only --plant-bug and --no-shrink;
 * --diff-backends takes only --runs and --cluster.
 *
 * On any oracle failure it prints the seed, the failure list, the
 * full decision trace and (unless --no-shrink) the greedily
 * minimized repro scenario, then exits 1. The printed trace/minimal
 * JSON can be fed straight back to --replay.
 *
 * A failing --replay additionally runs with full tracing enabled and
 * writes FILE.trace.json (Perfetto trace of every replay run) and
 * FILE.flight.json (the flight-recorder tail of the faulted run)
 * next to the input, so a shrunken repro comes with its timeline.
 */

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzz.hh"
#include "obs/trace.hh"

using namespace cronus;
using namespace cronus::fuzz;

namespace
{

void
printFailure(const FuzzReport &rep)
{
    std::printf("FAIL seed=%llu (%zu oracle failure%s)\n",
                static_cast<unsigned long long>(rep.seed),
                rep.failures.size(),
                rep.failures.size() == 1 ? "" : "s");
    for (const FuzzFailure &f : rep.failures)
        std::printf("  [%s] %s\n", f.oracle.c_str(),
                    f.detail.c_str());
    std::printf("--- trace ---\n%s\n", rep.trace.dump().c_str());
    if (rep.shrunk)
        std::printf("--- minimal repro (%zu ops) ---\n%s\n",
                    rep.minimal.ops.size(),
                    rep.minimal.toJson().dump().c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: fuzz_runner [--seed S] [--runs N] "
                 "[--replay FILE] [--plant-bug] "
                 "[--no-shrink] [--diff-backends] "
                 "[--cluster] [--verdicts FILE]\n");
    return 2;
}

/** Parse all of @p text as an unsigned number in [@p min, @p max]
 *  (decimal, 0x hex or 0 octal); no sign, space or trailing text. */
bool
parseNumber(const char *text, uint64_t min, uint64_t max,
            uint64_t &out)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 0);
    if (errno != 0 || *end != '\0' || v < min || v > max)
        return false;
    out = v;
    return true;
}

/** "seed=S PASS" or "seed=S FAIL oracle1,oracle2" (oracle names
 *  sorted and deduplicated, so the line is order-independent). */
std::string
verdictLine(uint64_t seed, const FuzzReport &rep)
{
    std::string line =
        "seed=" + std::to_string(seed) + (rep.ok ? " PASS" : " FAIL ");
    if (rep.ok)
        return line;
    std::set<std::string> oracles;
    for (const FuzzFailure &f : rep.failures)
        oracles.insert(f.oracle);
    bool first = true;
    for (const std::string &o : oracles) {
        if (!first)
            line += ",";
        line += o;
        first = false;
    }
    return line;
}

int
replayFile(const std::string &path, const FuzzOptions &opts)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto sc = Scenario::parse(text.str());
    if (!sc.isOk()) {
        std::fprintf(stderr, "cannot parse %s: %s\n", path.c_str(),
                     sc.status().toString().c_str());
        return 2;
    }
    /* A replay is a debugging session: trace it fully so a failure
     * leaves a Perfetto timeline behind. */
    auto &tracer = obs::Tracer::instance();
    tracer.ensureMode(obs::TraceMode::Full);
    tracer.clear();
    FuzzReport rep = fuzzScenario(sc.value(), opts);
    if (!rep.ok) {
        printFailure(rep);
        const std::string tracePath = path + ".trace.json";
        Status ws = tracer.writeTraceFile(tracePath);
        if (ws.isOk())
            std::printf("trace written to %s\n", tracePath.c_str());
        else
            std::fprintf(stderr, "cannot write %s: %s\n",
                         tracePath.c_str(), ws.toString().c_str());
        const std::string flightPath = path + ".flight.json";
        std::ofstream fout(flightPath);
        if (fout) {
            fout << rep.flight.dump() << "\n";
            std::printf("flight recorder written to %s\n",
                        flightPath.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n",
                         flightPath.c_str());
        }
        return 1;
    }
    std::printf("PASS replay of %s (seed=%llu, %zu ops)\n",
                path.c_str(),
                static_cast<unsigned long long>(rep.seed),
                sc.value().ops.size());
    return 0;
}

/**
 * Differential substrate mode: seeds 1..@p runs, each replayed on the
 * TrustZone and the PMP backend; any field-level verdict mismatch is
 * a divergence (and an exit-1 failure).
 */
int
runDiffBackends(size_t runs, bool cluster)
{
    size_t divergent = 0;
    size_t done = 0;
    for (uint64_t seed : defaultCorpus(runs)) {
        Scenario sc = cluster ? generateClusterScenario(seed)
                              : generateScenario(seed);
        DiffReport rep = diffBackends(sc);
        if (!rep.ok) {
            ++divergent;
            std::printf(
                "DIVERGENCE seed=%llu (%zu field%s differ)\n",
                static_cast<unsigned long long>(seed),
                rep.divergences.size(),
                rep.divergences.size() == 1 ? "" : "s");
            for (const std::string &d : rep.divergences)
                std::printf("  %s\n", d.c_str());
            std::printf("--- scenario ---\n%s\n",
                        sc.toJson().dump().c_str());
        }
        ++done;
        if (done % 25 == 0 || done == runs)
            std::printf("... %zu/%zu seeds diffed\n", done, runs);
    }
    if (divergent) {
        std::printf("FAIL %zu/%zu seeds diverged between backends\n",
                    divergent, runs);
        return 1;
    }
    std::printf("PASS %zu seeds, tz and pmp verdicts identical\n",
                runs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzOptions opts;
    uint64_t seed = 0;
    bool haveSeed = false;
    size_t runs = 50;
    bool haveRuns = false;
    bool diffMode = false;
    bool cluster = false;
    std::string replayPath;
    std::string verdictsPath;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        /* A malformed number is a usage error, never a silent run. */
        auto number = [&](uint64_t min, uint64_t max, uint64_t &out) {
            const char *text = next();
            if (parseNumber(text, min, max, out))
                return true;
            std::fprintf(stderr, "bad value for %s: '%s'\n",
                         arg.c_str(), text);
            return false;
        };
        if (arg == "--seed") {
            if (!number(0, UINT64_MAX, seed))
                return usage();
            haveSeed = true;
        } else if (arg == "--runs") {
            uint64_t n = 0;
            if (!number(1, SIZE_MAX, n))
                return usage();
            runs = n;
            haveRuns = true;
        } else if (arg == "--replay") {
            replayPath = next();
        } else if (arg == "--plant-bug") {
            opts.plantBug = true;
        } else if (arg == "--no-shrink") {
            opts.shrink = false;
        } else if (arg == "--diff-backends") {
            diffMode = true;
        } else if (arg == "--cluster") {
            cluster = true;
        } else if (arg == "--verdicts") {
            verdictsPath = next();
        } else {
            return usage();
        }
    }
    /* A flag the chosen mode would not read is a usage error. */
    bool replay = !replayPath.empty();
    bool verdicts = !verdictsPath.empty();
    if ((haveSeed && (haveRuns || verdicts)) ||
        (replay && (haveSeed || haveRuns || verdicts || diffMode ||
                    cluster)) ||
        (diffMode && (haveSeed || verdicts || opts.plantBug ||
                      !opts.shrink)))
        return usage();

    /* In cluster mode every seed goes through the fleet scenario
     * generator; the oracle/shrink/diff pipeline is unchanged. */
    auto runSeed = [&](uint64_t s) {
        return cluster ? fuzzScenario(generateClusterScenario(s), opts)
                       : fuzzSeed(s, opts);
    };

    if (replay)
        return replayFile(replayPath, opts);

    if (diffMode)
        return runDiffBackends(runs, cluster);

    if (haveSeed) {
        FuzzReport rep = runSeed(seed);
        if (!rep.ok) {
            printFailure(rep);
            return 1;
        }
        std::printf("PASS seed=%llu\n%s\n",
                    static_cast<unsigned long long>(seed),
                    rep.trace.dump().c_str());
        return 0;
    }

    auto reproHint = [&](uint64_t s) {
        std::printf("reproduce with: fuzz_runner --seed %llu%s%s\n",
                    static_cast<unsigned long long>(s),
                    cluster ? " --cluster" : "",
                    opts.plantBug ? " --plant-bug" : "");
    };

    /* Open the verdict file before the first seed, so a bad path
     * fails before any work. */
    std::ofstream vout;
    if (!verdictsPath.empty()) {
        vout.open(verdictsPath);
        if (!vout) {
            std::fprintf(stderr, "cannot write %s\n",
                         verdictsPath.c_str());
            return 2;
        }
    }

    /* Stdout stops at the first failure. Without --verdicts so does
     * the run; with it, the rest of the corpus still runs so the
     * file holds a line for every seed. */
    bool failed = false;
    size_t done = 0;
    for (uint64_t s : defaultCorpus(runs)) {
        FuzzReport rep = runSeed(s);
        if (vout.is_open())
            vout << verdictLine(s, rep) << std::endl;
        if (failed)
            continue;
        if (!rep.ok) {
            printFailure(rep);
            reproHint(s);
            if (!vout.is_open())
                return 1;
            failed = true;
            continue;
        }
        ++done;
        if (done % 25 == 0 || done == runs)
            std::printf("... %zu/%zu seeds ok\n", done, runs);
    }
    if (failed)
        return 1;
    std::printf("PASS %zu seeds, no oracle failures\n", done);
    return 0;
}
