/** Module store, enclave shells + bind, and the warm pool. */

#include "core/warm_pool.hh"
#include "test_fixtures.hh"

namespace cronus::core
{
namespace
{

using testing::cpuImageBytes;
using testing::cpuManifest;
using testing::gpuImageBytes;
using testing::gpuManifest;
using testing::manifestJson;

CronusConfig
storeConfig(uint64_t store_bytes)
{
    CronusConfig cfg;
    cfg.moduleStoreBytes = store_bytes;
    return cfg;
}

/** Like CronusTest, but with the module store switched on. */
class ModuleStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Logger::instance().setQuiet(true);
        testing::registerTestCpuFunctions();
        accel::registerBuiltinKernels();
        system = std::make_unique<CronusSystem>(
            storeConfig(16ull << 20));
    }

    std::unique_ptr<CronusSystem> system;
};

/* ---------------- store mechanics ---------------- */

TEST_F(ModuleStoreTest, DigestIsAContentAddress)
{
    auto a = ModuleStore::digestOf(cpuManifest(), cpuImageBytes());
    auto b = ModuleStore::digestOf(cpuManifest(), cpuImageBytes());
    EXPECT_EQ(a, b);

    auto other_manifest =
        ModuleStore::digestOf(gpuManifest(), cpuImageBytes());
    auto other_image =
        ModuleStore::digestOf(cpuManifest(), gpuImageBytes());
    EXPECT_NE(a, other_manifest);
    EXPECT_NE(a, other_image);
}

TEST_F(ModuleStoreTest, AdmitVerifiesAndCachesIdentity)
{
    auto &store = system->moduleStore();
    auto admitted =
        store.admit(cpuManifest(), "app.so", cpuImageBytes());
    ASSERT_TRUE(admitted.isOk());
    const ModuleRecord *rec = admitted.value();

    EXPECT_EQ(rec->imageHash, crypto::sha256(cpuImageBytes()));
    EXPECT_EQ(rec->digest,
              ModuleStore::digestOf(cpuManifest(), cpuImageBytes()));

    /* The cached measurement is exactly what the legacy pipeline
     * derives: sha256(manifest.measure() || sha256(image)). */
    crypto::Sha256 expected;
    expected.update(
        crypto::digestToBytes(rec->manifest.measure()));
    expected.update(crypto::digestToBytes(rec->imageHash));
    EXPECT_EQ(rec->measurement, expected.finalize());

    EXPECT_EQ(store.moduleCount(), 1u);
    EXPECT_EQ(store.residentBytes(), rec->residentBytes());
    EXPECT_EQ(system->spm().storeBytesResident(),
              rec->residentBytes());
}

TEST_F(ModuleStoreTest, AdmitRejectsUnverifiableModules)
{
    auto &store = system->moduleStore();

    /* Image name the manifest never declared. */
    auto bad_name =
        store.admit(cpuManifest(), "other.so", cpuImageBytes());
    EXPECT_FALSE(bad_name.isOk());

    /* Image bytes that do not match the declared hash. */
    Bytes tampered = cpuImageBytes();
    tampered.push_back(0x5a);
    auto bad_hash = store.admit(cpuManifest(), "app.so", tampered);
    ASSERT_FALSE(bad_hash.isOk());
    EXPECT_EQ(bad_hash.status().code(),
              ErrorCode::IntegrityViolation);

    EXPECT_EQ(store.moduleCount(), 0u);
    EXPECT_EQ(system->spm().storeBytesResident(), 0u);
}

TEST_F(ModuleStoreTest, LookupMissesThenHitsAndReAdmissionIsAHit)
{
    auto &store = system->moduleStore();
    auto digest =
        ModuleStore::digestOf(cpuManifest(), cpuImageBytes());

    auto miss = store.lookup(digest);
    ASSERT_FALSE(miss.isOk());
    EXPECT_EQ(miss.status().code(), ErrorCode::NotFound);

    ASSERT_TRUE(
        store.admit(cpuManifest(), "app.so", cpuImageBytes())
            .isOk());
    auto hit = store.lookup(digest);
    ASSERT_TRUE(hit.isOk());
    EXPECT_EQ(hit.value()->hits, 1u);

    /* Admitting resident bytes again must not duplicate them. */
    auto again =
        store.admit(cpuManifest(), "app.so", cpuImageBytes());
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(again.value(), hit.value());
    EXPECT_EQ(store.moduleCount(), 1u);
    EXPECT_EQ(again.value()->hits, 2u);
}

TEST_F(ModuleStoreTest, EvictsLruWhenCapacityWouldBeExceeded)
{
    std::string mf_a = cpuManifest();
    std::string mf_b = gpuManifest();
    uint64_t bytes_a = mf_a.size() + cpuImageBytes().size();
    uint64_t bytes_b = mf_b.size() + gpuImageBytes().size();

    /* Room for both modules but not for a third copy of A under a
     * distinct digest (manifest with a different memory figure). */
    std::string mf_c =
        manifestJson("cpu", {{"app.so", cpuImageBytes()}},
                     {{"echo", false}}, "2M");
    uint64_t bytes_c = mf_c.size() + cpuImageBytes().size();

    ModuleStore store(system->spm(), bytes_a + bytes_b +
                                         bytes_c / 2);
    ASSERT_TRUE(
        store.admit(mf_a, "app.so", cpuImageBytes()).isOk());
    ASSERT_TRUE(
        store.admit(mf_b, "test.cubin", gpuImageBytes()).isOk());

    /* Touch A so B is the least recently used. */
    ASSERT_TRUE(
        store.lookup(ModuleStore::digestOf(mf_a, cpuImageBytes()))
            .isOk());

    ASSERT_TRUE(
        store.admit(mf_c, "app.so", cpuImageBytes()).isOk());
    EXPECT_TRUE(
        store.lookup(ModuleStore::digestOf(mf_a, cpuImageBytes()))
            .isOk());
    EXPECT_FALSE(
        store.lookup(ModuleStore::digestOf(mf_b, gpuImageBytes()))
            .isOk());
    EXPECT_EQ(store.moduleCount(), 2u);
    EXPECT_EQ(store.residentBytes(), bytes_a + bytes_c);
    EXPECT_LE(store.residentBytes(), store.capacity());
}

TEST_F(ModuleStoreTest, RejectsModuleLargerThanCapacity)
{
    ModuleStore store(system->spm(), 16);
    auto admitted =
        store.admit(cpuManifest(), "app.so", cpuImageBytes());
    ASSERT_FALSE(admitted.isOk());
    EXPECT_EQ(admitted.status().code(),
              ErrorCode::ResourceExhausted);
    EXPECT_EQ(store.residentBytes(), 0u);
}

TEST_F(ModuleStoreTest, DestructionReleasesSpmResidency)
{
    uint64_t before = system->spm().storeBytesResident();
    {
        ModuleStore store(system->spm(), 8ull << 20);
        ASSERT_TRUE(
            store.admit(cpuManifest(), "app.so", cpuImageBytes())
                .isOk());
        EXPECT_GT(system->spm().storeBytesResident(), before);
    }
    EXPECT_EQ(system->spm().storeBytesResident(), before);
}

/* ---------------- cached create ---------------- */

TEST_F(ModuleStoreTest, CachedHitSkipsTheMeasurementSha)
{
    auto &clock = system->platform().clock();
    const auto &costs = system->platform().costs();

    SimTime t0 = clock.now();
    auto legacy = system->createEnclave(cpuManifest(), "app.so",
                                        cpuImageBytes());
    ASSERT_TRUE(legacy.isOk());
    SimTime legacy_cost = clock.now() - t0;

    /* Miss path: admission charges exactly the legacy SHA, so cost
     * parity holds on first touch... */
    t0 = clock.now();
    auto miss = system->createEnclaveCached(
        cpuManifest(), "app.so", cpuImageBytes());
    ASSERT_TRUE(miss.isOk());
    SimTime miss_cost = clock.now() - t0;
    EXPECT_EQ(miss_cost, legacy_cost);

    /* ...and the hit path is cheaper by exactly that SHA. */
    t0 = clock.now();
    auto hit = system->createEnclaveCached(
        cpuManifest(), "app.so", cpuImageBytes());
    ASSERT_TRUE(hit.isOk());
    SimTime hit_cost = clock.now() - t0;

    auto sha_cost = static_cast<SimTime>(
        (cpuManifest().size() + cpuImageBytes().size()) *
        costs.shaNsPerByte);
    EXPECT_EQ(hit_cost, legacy_cost - sha_cost);
    EXPECT_LT(hit_cost, miss_cost);
}

TEST_F(ModuleStoreTest, CachedCreateAttestsLikeLegacyCreate)
{
    auto legacy = system->createEnclave(cpuManifest(), "app.so",
                                        cpuImageBytes());
    auto cached = system->createEnclaveCached(
        cpuManifest(), "app.so", cpuImageBytes());
    ASSERT_TRUE(legacy.isOk());
    ASSERT_TRUE(cached.isOk());

    Bytes challenge = toBytes("modstore-challenge");
    auto lr = system->attest(legacy.value(), challenge);
    auto cr = system->attest(cached.value(), challenge);
    ASSERT_TRUE(lr.isOk());
    ASSERT_TRUE(cr.isOk());
    EXPECT_EQ(lr.value().report.enclaveMeasurement,
              cr.value().report.enclaveMeasurement);

    /* The cached instance passes the same remote verification. */
    auto expect = system->expectationFor(cached.value());
    expect.challenge = challenge;
    EXPECT_TRUE(verifyAttestation(cr.value(), expect).isOk());

    /* And it is a live, callable enclave. */
    auto out = system->ecall(cached.value(), "echo",
                             toBytes("hello"));
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(out.value(), toBytes("hello"));
}

TEST_F(ModuleStoreTest, OversizedModuleFallsBackToTheLegacyPipeline)
{
    /* A 16-byte store cannot hold any module: admission runs out of
     * room, and the create proceeds uncached. */
    CronusSystem tiny(storeConfig(16));
    auto &clock = tiny.platform().clock();
    ASSERT_TRUE(tiny.createEnclave(cpuManifest(), "app.so",
                                   cpuImageBytes())
                    .isOk());

    SimTime t0 = clock.now();
    ASSERT_TRUE(tiny.createEnclave(cpuManifest(), "app.so",
                                   cpuImageBytes())
                    .isOk());
    SimTime legacy_cost = clock.now() - t0;

    t0 = clock.now();
    auto cached = tiny.createEnclaveCached(cpuManifest(), "app.so",
                                           cpuImageBytes());
    ASSERT_TRUE(cached.isOk()) << cached.status().toString();
    EXPECT_EQ(clock.now() - t0, legacy_cost);

    EXPECT_EQ(tiny.moduleStore().moduleCount(), 0u);
    EXPECT_EQ(tiny.moduleStore().residentBytes(), 0u);
    EXPECT_EQ(tiny.spm().storeBytesResident(), 0u);
    auto out = tiny.ecall(cached.value(), "echo", toBytes("big"));
    ASSERT_TRUE(out.isOk()) << out.status().toString();
    EXPECT_EQ(out.value(), toBytes("big"));

    /* Verification errors still fail rather than fall back. */
    Bytes tampered = cpuImageBytes();
    tampered.push_back(0x5a);
    EXPECT_EQ(tiny.createEnclaveCached(cpuManifest(), "app.so",
                                       tampered)
                  .code(),
              ErrorCode::IntegrityViolation);
}

/* ---------------- shells + bind ---------------- */

TEST_F(ModuleStoreTest, ShellIsInertUntilAModuleIsBound)
{
    auto shell =
        system->createEnclaveShell("cpu", 4ull << 20);
    ASSERT_TRUE(shell.isOk());

    /* The shell's empty manifest exposes no mECalls. */
    auto before = system->ecall(shell.value(), "echo",
                                toBytes("x"));
    ASSERT_FALSE(before.isOk());
    EXPECT_EQ(before.status().code(), ErrorCode::PermissionDenied);

    auto rec = system->moduleStore().admit(
        cpuManifest(), "app.so", cpuImageBytes());
    ASSERT_TRUE(rec.isOk());
    ASSERT_TRUE(
        system->bindEnclaveModule(shell.value(), *rec.value())
            .isOk());

    auto after = system->ecall(shell.value(), "echo",
                               toBytes("x"));
    ASSERT_TRUE(after.isOk());
    EXPECT_EQ(after.value(), toBytes("x"));

    /* Bind swapped the attested identity to the module's. */
    Bytes challenge = toBytes("shell-challenge");
    auto report = system->attest(shell.value(), challenge);
    ASSERT_TRUE(report.isOk());
    EXPECT_EQ(report.value().report.enclaveMeasurement,
              rec.value()->measurement);
}

TEST_F(ModuleStoreTest, RebindResetsEnclaveState)
{
    auto shell =
        system->createEnclaveShell("cpu", 4ull << 20);
    ASSERT_TRUE(shell.isOk());
    auto rec = system->moduleStore().admit(
        cpuManifest(), "app.so", cpuImageBytes());
    ASSERT_TRUE(rec.isOk());
    ASSERT_TRUE(
        system->bindEnclaveModule(shell.value(), *rec.value())
            .isOk());

    ByteWriter w;
    w.putU64(41);
    ASSERT_TRUE(
        system->ecall(shell.value(), "accumulate", w.data())
            .isOk());

    /* Enclave-per-request: a rebind starts from fresh state, so the
     * accumulator does not see the previous lease's total. */
    ASSERT_TRUE(
        system->bindEnclaveModule(shell.value(), *rec.value())
            .isOk());
    auto out =
        system->ecall(shell.value(), "accumulate", w.data());
    ASSERT_TRUE(out.isOk());
    ByteReader r(out.value());
    EXPECT_EQ(r.getU64().value(), 41u);
}

TEST_F(ModuleStoreTest, BindIsOwnerAuthenticatedAndReplayProof)
{
    auto shell =
        system->createEnclaveShell("cpu", 4ull << 20);
    ASSERT_TRUE(shell.isOk());
    auto rec = system->moduleStore().admit(
        cpuManifest(), "app.so", cpuImageBytes());
    ASSERT_TRUE(rec.isOk());

    /* Wrong secret -> AuthFailed. */
    AppHandle thief = shell.value();
    thief.secret = toBytes("not-the-dhke-secret");
    auto forged = system->bindEnclaveModule(thief, *rec.value());
    ASSERT_FALSE(forged.isOk());
    EXPECT_EQ(forged.code(), ErrorCode::AuthFailed);

    /* A recorded (nonce, tag) pair cannot be replayed. */
    auto &handle = shell.value();
    ASSERT_TRUE(
        system->bindEnclaveModule(handle, *rec.value()).isOk());
    uint64_t used_nonce = handle.nonce;
    Bytes tag = EnclaveManager::authTag(
        handle.secret, handle.eid, used_nonce, "bind",
        crypto::digestToBytes(rec.value()->digest));
    auto replay = handle.host->enclaveManager().bindModule(
        handle.eid, *rec.value(), used_nonce, tag);
    ASSERT_FALSE(replay.isOk());
    EXPECT_EQ(replay.code(), ErrorCode::IntegrityViolation);
}

TEST_F(ModuleStoreTest, BindRejectsDeviceTypeMismatch)
{
    auto shell =
        system->createEnclaveShell("cpu", 4ull << 20);
    ASSERT_TRUE(shell.isOk());
    auto rec = system->moduleStore().admit(
        gpuManifest(), "test.cubin", gpuImageBytes());
    ASSERT_TRUE(rec.isOk());

    auto bound =
        system->bindEnclaveModule(shell.value(), *rec.value());
    ASSERT_FALSE(bound.isOk());
    EXPECT_EQ(bound.code(), ErrorCode::InvalidArgument);
}

TEST_F(ModuleStoreTest, BindAdmissionUsesTheQuotaDelta)
{
    /* Fill the CPU partition (24M) to 20M with legacy enclaves,
     * leaving room for a 2M shell (22M used). */
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(system
                        ->createEnclave(cpuManifest(), "app.so",
                                        cpuImageBytes())
                        .isOk());
    }
    auto shell =
        system->createEnclaveShell("cpu", 2ull << 20);
    ASSERT_TRUE(shell.isOk());

    /* Swapping the shell's 2M for a 4M module fits (24M)... */
    auto small = system->moduleStore().admit(
        cpuManifest(), "app.so", cpuImageBytes());
    ASSERT_TRUE(small.isOk());
    EXPECT_TRUE(
        system->bindEnclaveModule(shell.value(), *small.value())
            .isOk());

    /* ...but an 8M module would put the partition at 28M. */
    std::string big_mf =
        manifestJson("cpu", {{"app.so", cpuImageBytes()}},
                     {{"echo", false}}, "8M");
    auto big = system->moduleStore().admit(big_mf, "app.so",
                                           cpuImageBytes());
    ASSERT_TRUE(big.isOk());
    auto bound =
        system->bindEnclaveModule(shell.value(), *big.value());
    ASSERT_FALSE(bound.isOk());
    EXPECT_EQ(bound.code(), ErrorCode::ResourceExhausted);

    /* The failed bind kept the previous binding callable. */
    EXPECT_TRUE(
        system->ecall(shell.value(), "echo", toBytes("y")).isOk());
}

/* ---------------- warm pool ---------------- */

TEST_F(ModuleStoreTest, WarmPoolBindsCachedModulesOntoShells)
{
    auto driver = system->createEnclave(cpuManifest(), "app.so",
                                        cpuImageBytes());
    ASSERT_TRUE(driver.isOk());

    WarmPool::Config cfg;
    cfg.deviceType = "gpu";
    WarmPool pool(*system, cfg);
    ASSERT_TRUE(pool.prefill(2, &driver.value()).isOk());
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.available(), 2u);

    auto rec = system->moduleStore().admit(
        gpuManifest(), "test.cubin", gpuImageBytes());
    ASSERT_TRUE(rec.isOk());

    auto lease = pool.acquire(*rec.value());
    ASSERT_TRUE(lease.isOk());
    WarmShell *shell = lease.value();
    EXPECT_EQ(pool.available(), 1u);
    EXPECT_EQ(shell->boundDigest, rec.value()->digest);

    /* The prefilled channel survives the bind: dCheck proved
     * ownership of the shell's secret, not of the module. */
    ASSERT_NE(shell->channel, nullptr);
    auto va = shell->channel->callSync(
        "cuMemAlloc", CudaRuntime::encodeMemAlloc(16));
    ASSERT_TRUE(va.isOk());

    ASSERT_TRUE(pool.release(shell).isOk());
    EXPECT_EQ(pool.available(), 2u);

    /* Re-acquiring the same digest reuses the binding. */
    auto again = pool.acquire(*rec.value());
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(again.value(), shell);
    EXPECT_EQ(pool.statistics().counter("affinity_hits").value(),
              1u);
    EXPECT_EQ(pool.statistics().counter("binds").value(), 1u);

    /* Both shells leased -> the pool is dry. */
    ASSERT_TRUE(pool.acquire(*rec.value()).isOk());
    auto dry = pool.acquire(*rec.value());
    ASSERT_FALSE(dry.isOk());
    EXPECT_EQ(dry.status().code(), ErrorCode::ResourceExhausted);

    EXPECT_FALSE(pool.release(nullptr).isOk());
}

TEST_F(ModuleStoreTest, WarmPoolAcquireBeforePrefillIsNotFound)
{
    WarmPool pool(*system, WarmPool::Config{});
    auto rec = system->moduleStore().admit(
        gpuManifest(), "test.cubin", gpuImageBytes());
    ASSERT_TRUE(rec.isOk());
    auto lease = pool.acquire(*rec.value());
    ASSERT_FALSE(lease.isOk());
    EXPECT_EQ(lease.status().code(), ErrorCode::NotFound);
}

TEST_F(ModuleStoreTest, WarmPoolRefusesToReleaseAnotherPoolsShell)
{
    WarmPool mine(*system, WarmPool::Config{});
    WarmPool other(*system, WarmPool::Config{});
    ASSERT_TRUE(mine.prefill(1).isOk());
    ASSERT_TRUE(other.prefill(1).isOk());
    auto rec = system->moduleStore().admit(
        gpuManifest(), "test.cubin", gpuImageBytes());
    ASSERT_TRUE(rec.isOk());

    auto lease = other.acquire(*rec.value());
    ASSERT_TRUE(lease.isOk());
    WarmShell *foreign = lease.value();

    /* Releasing the other pool's shell here must neither succeed
     * nor free it: its holder is still using it. */
    Status s = mine.release(foreign);
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::InvalidState);
    EXPECT_TRUE(foreign->inUse);
    EXPECT_EQ(other.available(), 0u);
    EXPECT_EQ(mine.available(), 1u);
    EXPECT_EQ(mine.statistics().counter("releases").value(), 0u);

    /* The owning pool still takes it back. */
    EXPECT_TRUE(other.release(foreign).isOk());
    EXPECT_EQ(other.available(), 1u);
}

/* ---------------- store-less system ---------------- */

TEST_F(ModuleStoreTest, StorelessSystemUsesTheLegacyPath)
{
    CronusSystem storeless(storeConfig(0));
    EXPECT_FALSE(storeless.moduleStoreEnabled());

    /* createEnclaveCached degrades to the legacy pipeline. */
    auto enclave = storeless.createEnclaveCached(
        cpuManifest(), "app.so", cpuImageBytes());
    ASSERT_TRUE(enclave.isOk());
    auto out = storeless.ecall(enclave.value(), "echo",
                               toBytes("z"));
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(out.value(), toBytes("z"));
}

TEST_F(ModuleStoreTest, DefaultConfigLeavesTheStoreOff)
{
    CronusSystem plain;
    EXPECT_FALSE(plain.moduleStoreEnabled());
}

} // namespace
} // namespace cronus::core
