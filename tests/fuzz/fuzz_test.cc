/**
 * @file
 * Fuzz-loop acceptance tests: seed -> scenario determinism, trace
 * byte-for-byte replayability, the fixed seed corpus, and the
 * planted-bug end-to-end check (the reference oracle must catch the
 * bug and the shrinker must reduce it to a handful of ops).
 */

#include <gtest/gtest.h>

#include "fuzz/fuzz.hh"
#include "fuzz/shrinker.hh"

using namespace cronus;
using namespace cronus::fuzz;

namespace
{

std::string
firstFailure(const FuzzReport &rep)
{
    if (rep.failures.empty())
        return "(none)";
    return rep.failures[0].oracle + ": " + rep.failures[0].detail;
}

} // namespace

TEST(FuzzScenario, GeneratorIsDeterministic)
{
    Scenario a = generateScenario(42);
    Scenario b = generateScenario(42);
    EXPECT_EQ(a.toJson().dump(), b.toJson().dump());
    Scenario c = generateScenario(43);
    EXPECT_NE(a.toJson().dump(), c.toJson().dump());
}

TEST(FuzzScenario, JsonRoundTrips)
{
    for (uint64_t seed : {1ULL, 5ULL, 7ULL, 12ULL, 31ULL}) {
        Scenario sc = generateScenario(seed);
        std::string text = sc.toJson().dump();
        auto back = Scenario::parse(text);
        ASSERT_TRUE(back.isOk()) << "seed " << seed;
        EXPECT_EQ(back.value().toJson().dump(), text)
            << "seed " << seed;
    }
}

/* A replayed scenario is untrusted input: a required field that is
 * missing or has the wrong type is InvalidArgument, not an abort. */
TEST(FuzzScenario, MalformedRequiredFieldIsInvalidArgument)
{
    EXPECT_EQ(Scenario::parse(R"({"seed":1,"enclaves":[],)"
                              R"("faults":[],"ops":[]})")
                  .code(),
              ErrorCode::InvalidArgument);

    Scenario sc;
    sc.seed = 1;
    sc.numGpus = 1;
    EnclavePlan plan;
    plan.deviceType = "gpu";
    plan.deviceName = "gpu0";
    sc.enclaves.push_back(plan);
    FaultSpec kill;
    kill.victim = "gpu0";
    sc.faults.push_back(kill);
    ASSERT_TRUE(Scenario::fromJson(sc.toJson()).isOk());

    /* {list holding the field ("" = top level), field} */
    const std::pair<const char *, const char *> required[] = {
        {"", "num_gpus"},     {"", "pipe_enclave"},
        {"enclaves", "elems"}, {"enclaves", "slots"},
        {"enclaves", "slot_bytes"}, {"faults", "nth"},
    };
    for (const auto &[list, field] : required) {
        for (bool drop : {true, false}) {
            JsonValue doc = sc.toJson();
            JsonObject &holder =
                *list == '\0'
                    ? doc.asObject()
                    : doc.asObject().at(list).asArray()[0].asObject();
            if (drop)
                holder.erase(field);
            else
                holder[field] = JsonValue(std::string("7"));
            EXPECT_EQ(Scenario::fromJson(doc).code(),
                      ErrorCode::InvalidArgument)
                << field << (drop ? " dropped" : " as a string");
        }
    }
}

/* Churn ops against the live-count reference model: creates report
 * the count after, destroy-with-none-live is InvalidState, and the
 * final grant/TLB bookkeeping stays clean (finalCheck). */
TEST(FuzzScenario, ChurnOpsMatchLiveCountModel)
{
    Scenario sc;
    sc.seed = 1;
    sc.numGpus = 1;
    EnclavePlan plan;
    plan.deviceType = "gpu";
    plan.deviceName = "gpu0";
    sc.enclaves.push_back(plan);
    sc.ops = {
        {OpKind::ChurnDestroy, 0},  /* nothing live yet */
        {OpKind::ChurnCreate, 0},
        {OpKind::ChurnCreate, 0},
        {OpKind::ChurnDestroy, 0},
        {OpKind::ChurnCreate, 0},
        {OpKind::ChurnDestroy, 0},
        {OpKind::ChurnDestroy, 0},
        {OpKind::ChurnDestroy, 0},  /* drained again */
    };

    FuzzOptions opts;
    opts.shrink = false;
    FuzzReport rep = fuzzScenario(sc, opts);
    EXPECT_TRUE(rep.ok) << firstFailure(rep);

    std::vector<ExpectedOp> expected = referenceRun(sc);
    ASSERT_EQ(expected.size(), sc.ops.size());
    EXPECT_EQ(expected[0].code, "InvalidState");
    EXPECT_EQ(expected[7].code, "InvalidState");
    ByteWriter two;
    two.putU64(2);
    EXPECT_EQ(expected[2].output, two.data());
}

TEST(FuzzScenario, ChunkBytesIsAPureFunction)
{
    EXPECT_EQ(chunkBytes(33, 7), chunkBytes(33, 7));
    EXPECT_NE(chunkBytes(33, 7), chunkBytes(33, 8));
    EXPECT_EQ(chunkBytes(0, 7).size(), 0u);
}

/* Seed 5 expands to the largest machine shape (2 GPUs + NPU + pipe)
 * with two scheduled kills -- the best single-seed coverage of the
 * trace schema. */
TEST(FuzzRunner, TraceIsByteForByteDeterministic)
{
    Scenario sc = generateScenario(5);
    RunOptions opts;
    RunReport r1 = runScenario(sc, opts);
    RunReport r2 = runScenario(sc, opts);
    ASSERT_TRUE(r1.setupOk);
    EXPECT_EQ(r1.toJson(sc, opts).dump(), r2.toJson(sc, opts).dump());
}

TEST(FuzzRunner, TraceDocumentReplaysAsScenario)
{
    Scenario sc = generateScenario(5);
    RunOptions opts;
    RunReport r = runScenario(sc, opts);
    auto replay = Scenario::parse(r.toJson(sc, opts).dump());
    ASSERT_TRUE(replay.isOk());
    EXPECT_EQ(replay.value().toJson().dump(), sc.toJson().dump());
}

TEST(FuzzOracles, DefaultCorpusPasses)
{
    for (uint64_t seed : defaultCorpus(10)) {
        FuzzReport rep = fuzzSeed(seed);
        EXPECT_TRUE(rep.ok)
            << "seed " << seed << " failed: " << firstFailure(rep);
    }
}

/* Seed 12 generates an untainted GpuVecAdd -> GpuReadback(buf 2)
 * sequence, which is exactly what exposes the planted bug (the seed
 * is grammar-dependent: re-probe with
 * `fuzz_runner --seed S --plant-bug` after extending OpKind). */
TEST(FuzzOracles, PlantedBugIsCaughtAndShrunk)
{
    FuzzOptions opts;
    opts.plantBug = true;
    FuzzReport rep = fuzzSeed(12, opts);
    ASSERT_FALSE(rep.ok) << "planted bug went undetected";

    bool referenceCaught = false;
    for (const FuzzFailure &f : rep.failures)
        referenceCaught |= f.oracle == "reference";
    EXPECT_TRUE(referenceCaught) << firstFailure(rep);

    ASSERT_TRUE(rep.shrunk);
    EXPECT_LE(rep.minimal.ops.size(), 10u);

    /* The minimized repro must still fail on its own. */
    FuzzOptions probe = opts;
    probe.shrink = false;
    EXPECT_FALSE(fuzzScenario(rep.minimal, probe).ok);
}

TEST(FuzzOracles, ReportJsonCarriesSeedTraceAndRepro)
{
    FuzzOptions opts;
    opts.plantBug = true;
    FuzzReport rep = fuzzSeed(12, opts);
    ASSERT_FALSE(rep.ok);
    JsonValue doc = rep.toJson();
    const JsonObject &o = doc.asObject();
    EXPECT_EQ(o.at("seed").asInt(), 12);
    EXPECT_FALSE(o.at("ok").asBool());
    EXPECT_FALSE(o.at("failures").asArray().empty());
    EXPECT_TRUE(o.count("trace"));
    ASSERT_TRUE(o.count("minimal"));
    /* The embedded repro is itself a parseable scenario. */
    auto repro = Scenario::fromJson(o.at("minimal"));
    ASSERT_TRUE(repro.isOk());
    EXPECT_EQ(repro.value().toJson().dump(),
              rep.minimal.toJson().dump());
}

TEST(FuzzShrinker, NormalizeDropsUnreferencedMachine)
{
    Scenario sc = generateScenario(5);
    ASSERT_GE(sc.enclaves.size(), 2u);
    /* Keep only ops touching enclave 0 (plus driver/attack ops). */
    std::vector<ScenarioOp> kept;
    for (const ScenarioOp &op : sc.ops) {
        if (op.enclave == 0)
            kept.push_back(op);
    }
    sc.ops = std::move(kept);
    sc.faults.clear();
    sc.withPipe = false;
    sc.normalize();
    EXPECT_EQ(sc.enclaves.size(), 1u);
    for (const ScenarioOp &op : sc.ops)
        EXPECT_EQ(op.enclave, 0u);
}
