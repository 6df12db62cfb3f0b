/** Unit tests for manifest parsing and measurement. */

#include <gtest/gtest.h>

#include "core/enclave_runtime.hh"
#include "core/manifest.hh"

namespace cronus::core
{
namespace
{

const char *kGoodManifest = R"({
    "device_type": "gpu",
    "images": {
        "mat.cubin": "654c28186756aa92",
        "cudart.so": "2814c867aa955265"
    },
    "mEcalls": [
        {"name": "cuLaunchKernel", "async": true},
        {"name": "cuMemcpyDtoH", "async": false},
        "cuCtxSynchronize"
    ],
    "resources": { "memory": "1G" }
})";

TEST(ManifestTest, ParsesPaperStyleManifest)
{
    auto m = Manifest::fromJson(kGoodManifest);
    ASSERT_TRUE(m.isOk()) << m.status().toString();
    EXPECT_EQ(m.value().deviceType, "gpu");
    EXPECT_EQ(m.value().images.at("mat.cubin"), "654c28186756aa92");
    EXPECT_EQ(m.value().memoryBytes, 1ull << 30);
    EXPECT_TRUE(m.value().declaresCall("cuLaunchKernel"));
    EXPECT_TRUE(m.value().isAsync("cuLaunchKernel"));
    EXPECT_FALSE(m.value().isAsync("cuMemcpyDtoH"));
    EXPECT_FALSE(m.value().isAsync("cuCtxSynchronize"));
    EXPECT_FALSE(m.value().declaresCall("cuEvil"));
}

TEST(ManifestTest, MemorySizeParsing)
{
    EXPECT_EQ(Manifest::parseMemorySize("4096").value(), 4096u);
    EXPECT_EQ(Manifest::parseMemorySize("16K").value(), 16384u);
    EXPECT_EQ(Manifest::parseMemorySize("2M").value(), 2u << 20);
    EXPECT_EQ(Manifest::parseMemorySize("1GB").value(), 1ull << 30);
    EXPECT_FALSE(Manifest::parseMemorySize("").isOk());
    EXPECT_FALSE(Manifest::parseMemorySize("G").isOk());
    EXPECT_FALSE(Manifest::parseMemorySize("1T").isOk());
    EXPECT_FALSE(Manifest::parseMemorySize("99999999999999999999")
                     .isOk());
}

TEST(ManifestTest, RejectsBadManifests)
{
    EXPECT_FALSE(Manifest::fromJson("not json").isOk());
    EXPECT_FALSE(Manifest::fromJson("{}").isOk());
    /* Unknown device type. */
    EXPECT_FALSE(Manifest::fromJson(R"({
        "device_type": "fpga",
        "mEcalls": ["x"],
        "resources": {"memory": "1M"}
    })").isOk());
    /* No mECalls. */
    EXPECT_FALSE(Manifest::fromJson(R"({
        "device_type": "cpu",
        "mEcalls": [],
        "resources": {"memory": "1M"}
    })").isOk());
    /* Missing memory. */
    EXPECT_FALSE(Manifest::fromJson(R"({
        "device_type": "cpu",
        "mEcalls": ["f"],
        "resources": {}
    })").isOk());
    /* Zero memory. */
    EXPECT_FALSE(Manifest::fromJson(R"({
        "device_type": "cpu",
        "mEcalls": ["f"],
        "resources": {"memory": "0"}
    })").isOk());
    /* Bad mEcall entry. */
    EXPECT_FALSE(Manifest::fromJson(R"({
        "device_type": "cpu",
        "mEcalls": [42],
        "resources": {"memory": "1M"}
    })").isOk());
}

TEST(ManifestTest, RoundTripPreservesMeasurement)
{
    auto m = Manifest::fromJson(kGoodManifest).value();
    auto again = Manifest::fromJson(m.toJson());
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(crypto::digestHex(m.measure()),
              crypto::digestHex(again.value().measure()));
}

TEST(ManifestTest, MeasurementSensitiveToContent)
{
    auto a = Manifest::fromJson(kGoodManifest).value();
    auto b = a;
    b.images["mat.cubin"] = "ffffffffffffffff";
    EXPECT_NE(crypto::digestHex(a.measure()),
              crypto::digestHex(b.measure()));
    auto c = a;
    c.mEcalls[0].async = false;
    EXPECT_NE(crypto::digestHex(a.measure()),
              crypto::digestHex(c.measure()));
}

TEST(ManifestTest, BuildMatchesAHandBuiltManifestByteForByte)
{
    struct Case
    {
        std::string device;
        std::string imageName;
        Bytes image;
        std::vector<McallDecl> calls;
        uint64_t memory;
    };
    const std::vector<Case> cases = {
        {"cpu", "app.so", toBytes("cpu image bytes"),
         {{"process", false}}, 4ull << 20},
        {"gpu", "app.cubin", toBytes("gpu module bytes"),
         CudaRuntime::manifestCalls(), 8ull << 20},
        {"npu", "", Bytes{}, NpuRuntime::manifestCalls(), 256ull << 10},
    };
    for (const Case &c : cases) {
        Manifest hand;
        hand.deviceType = c.device;
        if (!c.imageName.empty())
            hand.images[c.imageName] =
                crypto::digestHex(crypto::sha256(c.image));
        hand.mEcalls = c.calls;
        hand.memoryBytes = c.memory;

        const std::string built = Manifest::build(
            c.device, c.imageName, c.image, c.calls, c.memory);
        EXPECT_EQ(built, hand.toJson()) << c.device;

        auto verified = verifyModule(built, c.imageName, c.image);
        ASSERT_TRUE(verified.isOk())
            << c.device << ": " << verified.status().toString();
        EXPECT_EQ(verified.value().measurement,
                  measureEnclave(hand, c.image.empty()
                                           ? crypto::Digest{}
                                           : crypto::sha256(c.image)))
            << c.device;
    }
}

} // namespace
} // namespace cronus::core
