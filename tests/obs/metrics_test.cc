/** MetricsRegistry: pull-sources rendered by snapshot. */

#include <gtest/gtest.h>

#include "obs/metrics.hh"

namespace cronus::obs
{
namespace
{

TEST(MetricsTest, SnapshotRendersAllKindsAndSources)
{
    MetricsRegistry reg;
    EXPECT_TRUE(reg.snapshot()["sources"].asObject().empty());

    int64_t grants = 4;
    reg.addSource("spm", [&grants]() {
        JsonObject o;
        o["grants"] = grants;
        return JsonValue(std::move(o));
    });
    reg.addSource("tlb", []() {
        JsonObject o;
        o["hits"] = int64_t{7};
        return JsonValue(std::move(o));
    });

    JsonValue snap = reg.snapshot();
    EXPECT_EQ(snap["sources"]["spm"]["grants"].asInt(), 4);
    EXPECT_EQ(snap["sources"]["tlb"]["hits"].asInt(), 7);

    /* Sources are pulled at snapshot time, not at registration. */
    grants = 5;
    EXPECT_EQ(reg.snapshot()["sources"]["spm"]["grants"].asInt(), 5);

    /* Re-registering a name replaces the previous source. */
    reg.addSource("tlb", []() {
        JsonObject o;
        o["hits"] = int64_t{9};
        return JsonValue(std::move(o));
    });
    snap = reg.snapshot();
    EXPECT_EQ(snap["sources"].asObject().size(), 2u);
    EXPECT_EQ(snap["sources"]["tlb"]["hits"].asInt(), 9);
}

} // namespace
} // namespace cronus::obs
