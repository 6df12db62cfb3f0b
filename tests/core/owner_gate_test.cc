/**
 * The Enclave Manager's owner gate under a crashed mOS: between a
 * partition panic and its recovery, owner requests (mECall,
 * checkpoint, restore, destroy, bind) are refused before they charge
 * anything or reach the enclave's runtime.
 */

#include "test_fixtures.hh"

#include "crypto/aes.hh"

namespace cronus::core
{
namespace
{

using testing::CronusTest;

class OwnerGateTest : public CronusTest
{
  protected:
    /** One owned enclave per device, created on a healthy machine. */
    Result<AppHandle>
    makeEnclaveOn(const std::string &device)
    {
        if (device == "cpu0")
            return makeCpuEnclave();
        if (device == "gpu0")
            return makeGpuEnclave();
        return makeNpuEnclave();
    }

    /** The first mECall each enclave's manifest declares. */
    static std::string
    firstCall(const std::string &device)
    {
        if (device == "cpu0")
            return "echo";
        if (device == "gpu0")
            return CudaRuntime::apiSurface().front();
        return NpuRuntime::apiSurface().front();
    }
};

TEST_F(OwnerGateTest, CrashedPartitionRefusesOwnerRequests)
{
    for (const std::string device : {"cpu0", "gpu0", "npu0"}) {
        SCOPED_TRACE(device);
        auto created = makeEnclaveOn(device);
        ASSERT_TRUE(created.isOk()) << created.status().toString();
        AppHandle handle = created.value();
        EnclaveManager &mgr = handle.host->enclaveManager();
        size_t enclaves = mgr.enclaveCount();
        uint64_t memory = mgr.memoryInUse();
        /* Any sealed blob will do: the gate must refuse a restore
         * before it opens anything. */
        Bytes sealed = crypto::sealMessage(handle.secret, 1,
                                           toBytes("state"));

        ASSERT_TRUE(system->injectPanic(device).isOk());

        /* Straight to the manager: a refusal charges nothing. */
        SimClock &clock = system->platform().clock();
        SimTime before = clock.now();
        std::string fn = firstCall(device);
        uint64_t nonce = handle.nonce + 1;
        EXPECT_EQ(mgr.ecall(handle.eid, fn, Bytes{}, nonce,
                            EnclaveManager::authTag(handle.secret,
                                                    handle.eid, nonce,
                                                    fn, Bytes{}))
                      .code(),
                  ErrorCode::InvalidState);
        EXPECT_EQ(mgr.checkpoint(handle.eid, nonce,
                                 EnclaveManager::authTag(
                                     handle.secret, handle.eid, nonce,
                                     "checkpoint", Bytes{}))
                      .code(),
                  ErrorCode::InvalidState);
        EXPECT_EQ(mgr.restore(handle.eid, nonce,
                              EnclaveManager::authTag(
                                  handle.secret, handle.eid, nonce,
                                  "restore", sealed),
                              sealed)
                      .code(),
                  ErrorCode::InvalidState);
        EXPECT_EQ(mgr.destroy(handle.eid, nonce,
                              EnclaveManager::authTag(
                                  handle.secret, handle.eid, nonce,
                                  "destroy", Bytes{}))
                      .code(),
                  ErrorCode::InvalidState);
        EXPECT_EQ(clock.now(), before);

        /* The same through the facade. */
        EXPECT_EQ(system->ecall(handle, fn, Bytes{}).code(),
                  ErrorCode::InvalidState);
        EXPECT_EQ(system->checkpointEnclave(handle).code(),
                  ErrorCode::InvalidState);
        EXPECT_EQ(system->restoreEnclave(handle, sealed, handle.secret)
                      .code(),
                  ErrorCode::InvalidState);
        EXPECT_EQ(system->destroyEnclave(handle).code(),
                  ErrorCode::InvalidState);

        /* Nothing was torn down behind the refusals. */
        EXPECT_EQ(mgr.enclaveCount(), enclaves);
        EXPECT_EQ(mgr.memoryInUse(), memory);
        ASSERT_TRUE(system->recover(device).isOk());
    }
}

TEST_F(OwnerGateTest, CrashedPartitionRefusesBind)
{
    CronusSystem stored([] {
        CronusConfig cfg;
        cfg.moduleStoreBytes = 1ull << 20;
        return cfg;
    }());
    auto shell = stored.createEnclaveShell("cpu", 4ull << 20);
    ASSERT_TRUE(shell.isOk()) << shell.status().toString();
    auto record = stored.moduleStore().admit(
        testing::cpuManifest(), "app.so", testing::cpuImageBytes());
    ASSERT_TRUE(record.isOk());

    ASSERT_TRUE(stored.injectPanic("cpu0").isOk());
    EXPECT_EQ(stored.bindEnclaveModule(shell.value(), *record.value())
                  .code(),
              ErrorCode::InvalidState);
}

TEST_F(OwnerGateTest, FreshCreateAfterRecoverWorks)
{
    for (const std::string device : {"cpu0", "gpu0", "npu0"}) {
        SCOPED_TRACE(device);
        ASSERT_TRUE(makeEnclaveOn(device).isOk());
        ASSERT_TRUE(system->injectPanic(device).isOk());
        EXPECT_EQ(makeEnclaveOn(device).code(),
                  ErrorCode::InvalidState);
        ASSERT_TRUE(system->recover(device).isOk());

        auto fresh = makeEnclaveOn(device);
        ASSERT_TRUE(fresh.isOk()) << fresh.status().toString();
        EXPECT_EQ(fresh.value().host->enclaveManager().enclaveCount(),
                  1u);
        if (device == "cpu0") {
            auto echoed = system->ecall(fresh.value(), "echo",
                                        toBytes("after recover"));
            ASSERT_TRUE(echoed.isOk()) << echoed.status().toString();
            EXPECT_EQ(echoed.value(), toBytes("after recover"));
        }
        if (device != "npu0") {
            auto sealed = system->checkpointEnclave(fresh.value());
            EXPECT_TRUE(sealed.isOk()) << sealed.status().toString();
        }
        EXPECT_TRUE(system->destroyEnclave(fresh.value()).isOk());
    }
}

} // namespace
} // namespace cronus::core
