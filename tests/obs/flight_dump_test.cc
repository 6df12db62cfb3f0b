/** End-to-end flight-recorder dumps: an InvariantAuditor violation
 *  on a real machine auto-emits the last-N-events timeline. */

#include <gtest/gtest.h>

#include "../core/test_fixtures.hh"
#include "crypto/aes.hh"
#include "crypto/sha256.hh"
#include "inject/invariant_auditor.hh"
#include "obs/trace.hh"

namespace cronus::obs
{
namespace
{

using core::testing::CronusTest;

class FlightDumpTest : public CronusTest
{
  protected:
    void
    TearDown() override
    {
        Tracer &t = Tracer::instance();
        t.setDumpSink({});
        t.clear();
        t.setMode(TraceMode::Off);
    }
};

TEST_F(FlightDumpTest, SystemWiresComponentMetricSources)
{
    /* CronusSystem registers every component as a pull-source at
     * construction; one snapshot covers the whole machine. */
    auto cpu = makeCpuEnclave().value();
    ASSERT_TRUE(
        system->ecall(cpu, "echo", Bytes{1, 2, 3}).isOk());

    JsonValue snap = system->metrics().snapshot();
    for (const char *src :
         {"platform", "monitor", "spm", "tlb", "smmu", "partitions",
          "crypto"})
        EXPECT_TRUE(snap["sources"].has(src)) << src;
    /* 0/1 gauges: which implementation ran the bulk crypto. */
    EXPECT_EQ(snap["sources"]["crypto"]["aes.hw"].asInt(),
              crypto::aesNiAvailable() ? 1 : 0);
    EXPECT_EQ(snap["sources"]["crypto"]["sha256.hw"].asInt(),
              crypto::shaNiAvailable() ? 1 : 0);
    EXPECT_GT(snap["sources"]["monitor"]["world_switches"].asInt(),
              0);
    EXPECT_TRUE(snap["sources"]["tlb"].has("hits"));
}

TEST_F(FlightDumpTest, AuditorViolationDumpsFlightRecorder)
{
    Tracer &t = Tracer::instance();
    t.setMode(TraceMode::Off);
    t.clear();

    /* Attaching an auditor raises the tracer to at least Ring so a
     * violation can always ship its timeline. */
    inject::InvariantAuditor auditor;
    EXPECT_TRUE(t.active());
    auditor.attachSpm(system->spm());

    std::vector<std::string> reasons;
    JsonValue captured;
    t.setDumpSink([&](const std::string &r, const JsonValue &doc) {
        reasons.push_back(r);
        captured = doc;
    });

    auto cpu = makeCpuEnclave().value();
    auto gpu = makeGpuEnclave().value();
    auto cpu_pid = cpu.host->partitionId();
    auto gpu_pid = gpu.host->partitionId();

    /* A raw share with no teardown: finalCheck must flag the leak
     * and the flag must dump the ring. */
    tee::PhysAddr base =
        system->spm().partition(cpu_pid).value()->memBase;
    ASSERT_TRUE(
        system->spm().sharePages(cpu_pid, gpu_pid, base, 1).isOk());
    EXPECT_FALSE(auditor.finalCheck().isOk());

    ASSERT_FALSE(reasons.empty());
    EXPECT_NE(reasons[0].find("invariant violation"),
              std::string::npos);
    /* The dump carries the events leading up to the violation --
     * at minimum the spm.grant instant from sharePages. */
    ASSERT_TRUE(captured["events"].isArray());
    EXPECT_GT(captured["events"].asArray().size(), 0u);
    bool saw_grant = false;
    for (const JsonValue &ev : captured["events"].asArray())
        saw_grant |= ev["name"].asString() == "spm.grant";
    EXPECT_TRUE(saw_grant);
    EXPECT_FALSE(t.recentDumps().empty());
}

} // namespace
} // namespace cronus::obs
