#include "system.hh"

#include "base/logging.hh"
#include "crypto/aes.hh"
#include "crypto/sha256.hh"

namespace cronus::core
{

namespace
{

/** Machine shape of every node: per-GPU VRAM and the two halves of
 *  physical memory. */
constexpr uint64_t kGpuVramBytes = 64ull << 20;
constexpr uint64_t kNormalMemBytes = 128ull << 20;
constexpr uint64_t kSecureMemBytes = 192ull << 20;

JsonValue
tlbJson(const hw::TlbCounters &c)
{
    JsonObject o;
    o["hits"] = static_cast<int64_t>(c.hits);
    o["misses"] = static_cast<int64_t>(c.misses);
    o["fills"] = static_cast<int64_t>(c.fills);
    o["shootdowns"] = static_cast<int64_t>(c.shootdowns);
    return JsonValue(std::move(o));
}

} // namespace

CronusSystem::CronusSystem(const CronusConfig &config) : cfg(config)
{
    hw::PlatformConfig pc;
    pc.normalMemBytes = kNormalMemBytes;
    pc.secureMemBytes = kSecureMemBytes;
    pc.externalClock = cfg.sharedClock;
    /* Named fleet members carry distinct root-of-trust identities;
     * anonymous (single-node) systems keep the default seed. */
    if (!cfg.nodeName.empty())
        pc.rotSeed = toBytes("platform-" + cfg.nodeName);
    plat = std::make_unique<hw::Platform>(pc);

    /* Vendor PKI: ARM for the CPU, NVIDIA for GPUs, VTA for NPUs. */
    vendorKeys["arm"] = crypto::deriveKeyPair(toBytes("vendor-arm"));
    vendorKeys["nvidia"] =
        crypto::deriveKeyPair(toBytes("vendor-nvidia"));
    vendorKeys["vta"] = crypto::deriveKeyPair(toBytes("vendor-vta"));

    /* Devices. */
    struct DevicePlan
    {
        std::string name;
        std::string type;
        std::string vendor;
        crypto::PublicKey rotKey;
    };
    std::vector<DevicePlan> plan;

    {
        accel::CpuConfig cc;
        auto *dev = static_cast<accel::CpuDevice *>(
            plat->registerDevice(std::make_unique<accel::CpuDevice>(cc),
                                 32));
        plan.push_back({cc.name, "cpu", "arm", dev->devicePublicKey()});
    }
    for (uint32_t i = 0; i < cfg.numGpus; ++i) {
        accel::GpuConfig gc;
        gc.name = "gpu" + std::to_string(i);
        gc.vramBytes = kGpuVramBytes;
        gc.rotSeed = toBytes("gpu-rot-" + std::to_string(i));
        auto *dev = static_cast<accel::GpuDevice *>(
            plat->registerDevice(std::make_unique<accel::GpuDevice>(gc),
                                 40 + i));
        plan.push_back({gc.name, "gpu", "nvidia",
                        dev->devicePublicKey()});
    }
    if (cfg.withNpu) {
        accel::NpuConfig nc;
        auto *dev = static_cast<accel::NpuDevice *>(
            plat->registerDevice(std::make_unique<accel::NpuDevice>(nc),
                                 60));
        plan.push_back({nc.name, "npu", "vta", dev->devicePublicKey()});
    }

    /* Secure boot with all devices assigned to the secure world. */
    sm = std::make_unique<tee::SecureMonitor>(*plat);
    Status booted = sm->bootAllSecure();
    CRONUS_ASSERT(booted.isOk(), "secure boot: " + booted.toString());

    partitionManager = std::make_unique<tee::Spm>(*sm, cfg.backend);
    nw = std::make_unique<tee::NormalWorld>(*sm);

    /* Module store: opt-in (cache hits change virtual time). */
    if (cfg.moduleStoreBytes > 0)
        modStore = std::make_unique<ModuleStore>(
            *partitionManager, cfg.moduleStoreBytes);

    /* Failover wiring: record trap signals for inspection. */
    partitionManager->setTrapHandler([this](const tee::TrapSignal &s) {
        observedTraps.push_back(s);
    });

    /* One partition + MicroOS per device. */
    for (const auto &entry : plan) {
        tee::MosImage image{entry.type + "-" + entry.name + ".mos",
                            entry.type,
                            toBytes("mos-code:" + entry.name)};
        auto pid = partitionManager->createPartition(
            image, entry.name, cfg.partitionMemBytes);
        CRONUS_ASSERT(pid.isOk(),
                      "partition: " + pid.status().toString());

        auto record = std::make_unique<PartitionRecord>();
        record->pid = pid.value();
        record->os = std::make_unique<MicroOS>(
            *partitionManager, pid.value(), entry.type, entry.name);
        record->image = image;
        record->vendor = entry.vendor;
        record->deviceEndorsement = crypto::sign(
            vendorKeys[entry.vendor], entry.rotKey.toBytes());
        enclaveDispatcher.registerPartition(record->os.get());
        records.push_back(std::move(record));
    }

    /* One machine-wide report: each component renders its own
     * counters as a pull-source of the registry. The closures
     * capture `this`; the registry is destroyed with the system. */
    metricsRegistry.addSource("platform", [this] {
        JsonObject o = plat->stats().toJson().asObject();
        o["virtual_time_ns"] =
            static_cast<int64_t>(plat->clock().now());
        return JsonValue(std::move(o));
    });
    metricsRegistry.addSource("monitor", [this] {
        return sm->statistics().toJson();
    });
    metricsRegistry.addSource("spm", [this] {
        JsonObject o = partitionManager->statistics().toJson().asObject();
        o["trap_signals"] = static_cast<int64_t>(observedTraps.size());
        return JsonValue(std::move(o));
    });
    metricsRegistry.addSource("tlb", [this] {
        return tlbJson(partitionManager->tlbCounters());
    });
    metricsRegistry.addSource("smmu", [this] {
        return tlbJson(plat->smmu().tlbCounters());
    });
    /* Per-partition enclave load, keyed "p<pid>". */
    metricsRegistry.addSource("partitions", [this] {
        JsonObject partitions;
        for (const auto &record : records) {
            JsonObject entry;
            entry["device"] = record->os->deviceName();
            entry["type"] = record->os->deviceType();
            entry["enclaves"] = static_cast<int64_t>(
                record->os->enclaveManager().enclaveCount());
            entry["memory_in_use"] = static_cast<int64_t>(
                record->os->enclaveManager().memoryInUse());
            auto incarnation = record->os->incarnation();
            entry["incarnation"] = static_cast<int64_t>(
                incarnation.isOk() ? incarnation.value() : 0);
            partitions["p" + std::to_string(record->pid)] =
                JsonValue(std::move(entry));
        }
        return JsonValue(std::move(partitions));
    });
    if (modStore != nullptr) {
        metricsRegistry.addSource("modstore", [this] {
            JsonObject o = modStore->statistics().toJson().asObject();
            o["modules"] =
                static_cast<int64_t>(modStore->moduleCount());
            o["resident_bytes"] =
                static_cast<int64_t>(modStore->residentBytes());
            o["capacity_bytes"] =
                static_cast<int64_t>(modStore->capacity());
            return JsonValue(std::move(o));
        });
    }
    /* Which host implementation ran the bulk crypto (1 = AES-NI /
     * SHA-NI), so host-time numbers say what produced them. */
    metricsRegistry.addSource("crypto", [] {
        JsonObject o;
        o["aes.hw"] = static_cast<int64_t>(crypto::aesNiAvailable());
        o["sha256.hw"] = static_cast<int64_t>(crypto::shaNiAvailable());
        return JsonValue(std::move(o));
    });
}

Result<CronusSystem::PartitionRecord *>
CronusSystem::recordForDevice(const std::string &device_name)
{
    for (auto &record : records) {
        if (record->os->deviceName() == device_name)
            return record.get();
    }
    return Status(ErrorCode::NotFound,
                  "no partition for device '" + device_name + "'");
}

Result<MicroOS *>
CronusSystem::mosForDevice(const std::string &device_name)
{
    auto record = recordForDevice(device_name);
    if (!record.isOk())
        return record.status();
    return record.value()->os.get();
}

std::vector<MicroOS *>
CronusSystem::allMos()
{
    std::vector<MicroOS *> out;
    for (auto &record : records)
        out.push_back(record->os.get());
    return out;
}

Result<AppHandle>
CronusSystem::createOn(const std::string &device_type,
                       const std::string &device_name,
                       const CreateStep &step)
{
    auto os = enclaveDispatcher.partitionFor(device_type, device_name);
    if (!os.isOk())
        return os.status();

    /* Creation crosses into the secure world. */
    sm->worldSwitch();
    plat->clock().advance(plat->costs().dispatchNs);

    AppHandle handle;
    handle.ownerKeys = crypto::deriveKeyPair(
        toBytes("app-owner-" + std::to_string(ownerCounter++)));
    auto created =
        step(os.value()->enclaveManager(), handle.ownerKeys.pub);
    sm->worldSwitch();
    if (!created.isOk())
        return created.status();

    handle.eid = created.value().eid;
    handle.secret = crypto::dhSharedSecret(handle.ownerKeys.priv,
                                           created.value().enclavePub);
    plat->clock().advance(plat->costs().dhNs);
    handle.host = os.value();
    return handle;
}

Result<AppHandle>
CronusSystem::createEnclave(const std::string &manifest_json,
                            const std::string &image_name,
                            const Bytes &image,
                            const std::string &device_name)
{
    /* Peek at the manifest to pick a partition (the dispatcher is
     * allowed to read it; it is untrusted data anyway). */
    auto manifest = Manifest::fromJson(manifest_json);
    if (!manifest.isOk())
        return manifest.status();
    return createOn(manifest.value().deviceType, device_name,
                    [&](EnclaveManager &mgr, const crypto::PublicKey &pub) {
                        return mgr.create(manifest_json, image_name,
                                          image, pub);
                    });
}

Result<AppHandle>
CronusSystem::createEnclaveCached(const std::string &manifest_json,
                                  const std::string &image_name,
                                  const Bytes &image,
                                  const std::string &device_name)
{
    if (modStore == nullptr)
        return createEnclave(manifest_json, image_name, image,
                             device_name);

    /* Content addressing stands in for "the client knows its
     * module's digest": resolving it charges nothing. */
    auto record =
        modStore->lookup(ModuleStore::digestOf(manifest_json, image));
    if (!record.isOk()) {
        record = modStore->admit(manifest_json, image_name, image);
        /* A module the store cannot hold still loads, uncached:
         * admission charged nothing before running out of room. */
        if (record.code() == ErrorCode::ResourceExhausted)
            return createEnclave(manifest_json, image_name, image,
                                 device_name);
        if (!record.isOk())
            return record.status();
    }

    /* The record's parsed manifest also spares the dispatcher its
     * routing re-parse. */
    const ModuleRecord &module = *record.value();
    return createOn(module.manifest.deviceType, device_name,
                    [&](EnclaveManager &mgr, const crypto::PublicKey &pub) {
                        return mgr.createFromRecord(module, pub);
                    });
}

Result<AppHandle>
CronusSystem::createEnclaveShell(const std::string &device_type,
                                 uint64_t mem_bytes,
                                 const std::string &device_name)
{
    return createOn(device_type, device_name,
                    [&](EnclaveManager &mgr, const crypto::PublicKey &pub) {
                        return mgr.createShell(pub, mem_bytes);
                    });
}

Status
CronusSystem::bindEnclaveModule(AppHandle &handle,
                                const ModuleRecord &record)
{
    auto os = enclaveDispatcher.route(handle.eid);
    if (!os.isOk())
        return os.status();
    uint64_t nonce = ++handle.nonce;
    Bytes digest_bytes = crypto::digestToBytes(record.digest);
    Bytes tag = EnclaveManager::authTag(handle.secret, handle.eid,
                                        nonce, "bind", digest_bytes);
    plat->clock().advance(static_cast<SimTime>(
        digest_bytes.size() * plat->costs().hmacNsPerByte));
    sm->worldSwitch();
    plat->clock().advance(plat->costs().dispatchNs);
    Status bound = os.value()->enclaveManager().bindModule(
        handle.eid, record, nonce, tag);
    sm->worldSwitch();
    return bound;
}

Result<Bytes>
CronusSystem::ecall(AppHandle &handle, const std::string &fn,
                    const Bytes &args)
{
    auto os = enclaveDispatcher.route(handle.eid);
    if (!os.isOk())
        return os.status();
    uint64_t nonce = ++handle.nonce;
    Bytes tag = EnclaveManager::authTag(handle.secret, handle.eid,
                                        nonce, fn, args);
    plat->clock().advance(static_cast<SimTime>(
        args.size() * plat->costs().hmacNsPerByte));
    sm->worldSwitch();
    plat->clock().advance(plat->costs().dispatchNs);
    auto result = os.value()->enclaveManager().ecall(handle.eid, fn,
                                                     args, nonce, tag);
    sm->worldSwitch();
    if (ecallObserver)
        ecallObserver(handle.eid, fn, result.status(),
                      result.isOk() ? result.value() : Bytes{});
    return result;
}

Status
CronusSystem::destroyEnclave(AppHandle &handle)
{
    auto os = enclaveDispatcher.route(handle.eid);
    if (!os.isOk())
        return os.status();
    uint64_t nonce = ++handle.nonce;
    Bytes tag = EnclaveManager::authTag(handle.secret, handle.eid,
                                        nonce, "destroy", Bytes{});
    return os.value()->enclaveManager().destroy(handle.eid, nonce,
                                                tag);
}

Result<std::unique_ptr<SrpcChannel>>
CronusSystem::connect(const AppHandle &caller, const AppHandle &callee,
                      const SrpcConfig &config)
{
    if (caller.host == nullptr || callee.host == nullptr)
        return Status(ErrorCode::InvalidArgument,
                      "handles must be created first");
    return SrpcChannel::connect(*caller.host, caller.eid,
                                *callee.host, callee.eid,
                                callee.secret, config);
}

Result<Bytes>
CronusSystem::checkpointEnclave(AppHandle &handle)
{
    auto os = enclaveDispatcher.route(handle.eid);
    if (!os.isOk())
        return os.status();
    uint64_t nonce = ++handle.nonce;
    Bytes tag = EnclaveManager::authTag(handle.secret, handle.eid,
                                        nonce, "checkpoint", Bytes{});
    return os.value()->enclaveManager().checkpoint(handle.eid, nonce,
                                                   tag);
}

Status
CronusSystem::restoreEnclave(AppHandle &handle, const Bytes &sealed,
                             const Bytes &source_secret)
{
    /* Owner-side re-seal: open under the producing enclave's secret
     * and seal again under the target's. */
    auto plaintext = crypto::openMessage(source_secret, sealed);
    if (!plaintext.isOk())
        return plaintext.status();
    uint64_t nonce = ++handle.nonce;
    Bytes resealed = crypto::sealMessage(handle.secret, nonce,
                                         plaintext.value());
    Bytes tag = EnclaveManager::authTag(handle.secret, handle.eid,
                                        nonce, "restore", resealed);
    auto os = enclaveDispatcher.route(handle.eid);
    if (!os.isOk())
        return os.status();
    return os.value()->enclaveManager().restore(handle.eid, nonce,
                                                tag, resealed);
}

Result<SignedAttestationReport>
CronusSystem::attest(const AppHandle &handle, const Bytes &challenge)
{
    auto os = enclaveDispatcher.route(handle.eid);
    if (!os.isOk())
        return os.status();
    return attestEnclave(*os.value(), handle.eid, challenge);
}

ClientExpectation
CronusSystem::expectationFor(const AppHandle &handle)
{
    ClientExpectation expect;
    expect.platformRoot = plat->rootOfTrust().publicKey();
    expect.expectedDt = sm->deviceTree().measure();
    if (handle.host != nullptr) {
        auto mos_hash = handle.host->mosMeasurement();
        if (mos_hash.isOk())
            expect.expectedMos = mos_hash.value();
        auto enclave =
            handle.host->enclaveManager().enclave(handle.eid);
        if (enclave.isOk())
            expect.expectedEnclave = enclave.value()->measure();
        auto record = recordForDevice(handle.host->deviceName());
        if (record.isOk()) {
            expect.vendorKey =
                vendorKeys[record.value()->vendor].pub;
            expect.deviceEndorsement =
                record.value()->deviceEndorsement;
        }
    }
    return expect;
}

Status
CronusSystem::injectPanic(const std::string &device_name)
{
    auto record = recordForDevice(device_name);
    if (!record.isOk())
        return record.status();
    return partitionManager->panic(record.value()->pid);
}

Status
CronusSystem::recover(const std::string &device_name,
                      bool charge_clock)
{
    auto record = recordForDevice(device_name);
    if (!record.isOk())
        return record.status();
    Status recovered = partitionManager->recoverPartition(
        record.value()->pid, record.value()->image, charge_clock);
    if (recovered.isOk())
        record.value()->os->onReboot();
    return recovered;
}

Result<SimTime>
CronusSystem::recoveryEstimate(const std::string &device_name)
{
    auto record = recordForDevice(device_name);
    if (!record.isOk())
        return record.status();
    return partitionManager->recoveryEstimate(record.value()->pid);
}

} // namespace cronus::core
