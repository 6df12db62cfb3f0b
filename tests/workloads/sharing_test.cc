/** Tests for the spatial-sharing and multi-GPU drivers (fig09 checks
 *  the failover driver's claims itself). */

#include <gtest/gtest.h>

#include "workloads/sharing.hh"

namespace cronus::workloads
{
namespace
{

TEST(SpatialSharingTest, TwoEnclavesRaiseThroughput)
{
    SpatialConfig one;
    one.enclaves = 1;
    SpatialConfig two;
    two.enclaves = 2;
    auto r1 = runSpatialSharing(one);
    auto r2 = runSpatialSharing(two);
    ASSERT_TRUE(r1.isOk()) << r1.status().toString();
    ASSERT_TRUE(r2.isOk()) << r2.status().toString();
    double gain = r2.value().imagesPerSecond /
                  r1.value().imagesPerSecond;
    /* The paper reports up to 63.4% gain at two enclaves. */
    EXPECT_GT(gain, 1.3);
    EXPECT_LT(gain, 2.0);
}

TEST(SpatialSharingTest, FourEnclavesShowContention)
{
    SpatialConfig two;
    two.enclaves = 2;
    SpatialConfig four;
    four.enclaves = 4;
    auto r2 = runSpatialSharing(two);
    auto r4 = runSpatialSharing(four);
    ASSERT_TRUE(r2.isOk());
    ASSERT_TRUE(r4.isOk());
    /* Resource contention: 4 enclaves do not beat 2. */
    EXPECT_LT(r4.value().imagesPerSecond,
              r2.value().imagesPerSecond * 1.05);
}

TEST(DataParallelTest, P2pScalesWithGpus)
{
    DistributedConfig one;
    one.gpus = 1;
    DistributedConfig four;
    four.gpus = 4;
    auto r1 = runDataParallel(one);
    auto r4 = runDataParallel(four);
    ASSERT_TRUE(r1.isOk()) << r1.status().toString();
    ASSERT_TRUE(r4.isOk()) << r4.status().toString();
    EXPECT_LT(r4.value().perIterationNs,
              r1.value().perIterationNs);
}

TEST(DataParallelTest, TransportOrdering)
{
    /* P2P over trusted PCIe shared memory beats secure-memory
     * staging beats encrypted staging (Fig. 11b). */
    auto run = [](GradTransport transport) {
        DistributedConfig cfg;
        cfg.gpus = 2;
        cfg.transport = transport;
        return runDataParallel(cfg).value().perIterationNs;
    };
    SimTime p2p = run(GradTransport::P2pPcie);
    SimTime staged = run(GradTransport::SecureMemStaging);
    SimTime encrypted = run(GradTransport::EncryptedStaging);
    EXPECT_LT(p2p, staged);
    EXPECT_LT(staged, encrypted);
}

TEST(DataParallelTest, TransportNames)
{
    EXPECT_STREQ(gradTransportName(GradTransport::P2pPcie),
                 "p2p-pcie");
    EXPECT_STREQ(gradTransportName(GradTransport::SecureMemStaging),
                 "secure-mem");
    EXPECT_STREQ(gradTransportName(GradTransport::EncryptedStaging),
                 "encrypted");
}

} // namespace
} // namespace cronus::workloads
