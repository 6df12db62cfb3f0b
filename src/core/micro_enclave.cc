#include "micro_enclave.hh"

#include "base/logging.hh"
#include "crypto/aes.hh"

namespace cronus::core
{

/* ------------------------------------------------------------------ */
/* MicroEnclave                                                        */
/* ------------------------------------------------------------------ */

Result<Bytes>
MicroEnclave::invoke(const std::string &fn, const Bytes &args)
{
    if (fn != lastDeclaredFn) {
        if (!manifest.declaresCall(fn))
            return Status(ErrorCode::PermissionDenied,
                          "mECall '" + fn +
                          "' not declared in the manifest");
        lastDeclaredFn = fn;
    }
    return runtime->meCall(fn, args);
}

Status
MicroEnclave::bind(const Manifest &mf, const crypto::Digest &meas,
                   const Bytes &image)
{
    Status bound = runtime->meBind(image);
    if (!bound.isOk())
        return bound;
    manifest = mf;
    measurement = meas;
    /* The declaresCall memo belongs to the previous manifest. */
    lastDeclaredFn.clear();
    return Status::ok();
}

/* ------------------------------------------------------------------ */
/* Local attestation report                                            */
/* ------------------------------------------------------------------ */

Bytes
LocalAttestationReport::macInput() const
{
    ByteWriter w;
    w.putU32(eid);
    w.putU64(partitionIncarnation);
    w.putBytes(crypto::digestToBytes(enclaveMeasurement));
    w.putBytes(crypto::digestToBytes(mosMeasurement));
    w.putBytes(challenge);
    return w.take();
}

/* ------------------------------------------------------------------ */
/* EnclaveManager                                                      */
/* ------------------------------------------------------------------ */

EnclaveManager::EnclaveManager(MicroOS &os) : mos(os)
{
}

Status
EnclaveManager::checkDeviceType(const std::string &device_type) const
{
    if (device_type == mos.deviceType())
        return Status::ok();
    return Status(ErrorCode::InvalidArgument,
                  "device_type '" + device_type +
                  "' does not match this mOS ('" + mos.deviceType() +
                  "')");
}

Status
EnclaveManager::admitMemory(uint64_t released, uint64_t claimed) const
{
    auto partition = mos.spm().partition(mos.partitionId());
    if (!partition.isOk())
        return partition.status();
    if (memUsed - released + claimed > partition.value()->memBytes)
        return Status(ErrorCode::ResourceExhausted,
                      "memory quota exceeds partition budget");
    return Status::ok();
}

std::unique_ptr<EnclaveRuntime>
EnclaveManager::makeRuntime()
{
    mos::Hal &hal = mos.hal();
    if (mos.deviceType() == "cpu")
        return std::make_unique<CpuRuntime>(
            static_cast<mos::CpuHal &>(hal));
    if (mos.deviceType() == "gpu")
        return std::make_unique<CudaRuntime>(
            static_cast<mos::GpuHal &>(hal));
    return std::make_unique<NpuRuntime>(static_cast<mos::NpuHal &>(hal));
}

Result<EnclaveCreated>
EnclaveManager::instantiate(const crypto::PublicKey &owner_pub,
                            const std::function<Result<Module>()> &load)
{
    if (!mos.spm().validateMosId(mos.partitionId()))
        return Status(ErrorCode::InvalidState,
                      "partition not ready (failed or rebooting)");
    mos.tick();
    /* Guard the 24-bit enclave-id space before any side effect:
     * create/destroy churn must hit ResourceExhausted, not wrap ids
     * into a colliding (or truncated) eid. */
    if (nextEnclaveId > kEnclaveIdMask)
        return Status(ErrorCode::ResourceExhausted,
                      "enclave id space exhausted on partition " +
                      std::to_string(mos.partitionId()));
    auto module = load();
    if (!module.isOk())
        return module.status();
    Module &m = module.value();

    CRONUS_RETURN_IF_ERROR(admitMemory(0, m.manifest.memoryBytes));
    CRONUS_RETURN_IF_ERROR(checkDeviceType(m.manifest.deviceType));
    std::unique_ptr<EnclaveRuntime> runtime = makeRuntime();

    /* Ownership: Diffie-Hellman with the creator (§IV-A). */
    hw::Platform &plat = mos.spm().monitor().platform();
    Bytes seed = toBytes("enclave-dh:");
    Bytes owner_bytes = owner_pub.toBytes();
    seed.insert(seed.end(), owner_bytes.begin(), owner_bytes.end());
    seed.push_back(static_cast<uint8_t>(nextEnclaveId));
    seed.push_back(static_cast<uint8_t>(mos.partitionId()));
    crypto::KeyPair enclave_keys = crypto::deriveKeyPair(seed);
    Bytes secret = crypto::dhSharedSecret(enclave_keys.priv,
                                          owner_pub);
    plat.clock().advance(plat.costs().dhNs);

    CRONUS_RETURN_IF_ERROR(runtime->meCreate());
    if (m.image != nullptr) {
        Status bound = runtime->meBind(*m.image);
        if (!bound.isOk()) {
            /* A rejected image leaves no device context behind. */
            (void)runtime->meDestroy(false);
            return bound;
        }
    }
    plat.clock().advance(static_cast<SimTime>(
        m.measuredBytes * plat.costs().shaNsPerByte));

    Eid eid = makeEid(mos.partitionId(), nextEnclaveId++);
    memUsed += m.manifest.memoryBytes;
    lastNonce[eid] = 0;
    enclaves[eid] = std::make_unique<MicroEnclave>(
        eid, std::move(m.manifest), m.measurement, std::move(runtime),
        std::move(secret), owner_pub);
    return EnclaveCreated{eid, enclave_keys.pub};
}

Result<EnclaveCreated>
EnclaveManager::create(const std::string &manifest_json,
                       const std::string &image_name,
                       const Bytes &image,
                       const crypto::PublicKey &owner_pub)
{
    return instantiate(owner_pub, [&]() -> Result<Module> {
        auto verified = verifyModule(manifest_json, image_name, image);
        if (!verified.isOk())
            return verified.status();
        return Module{std::move(verified.value().manifest),
                      verified.value().measurement, &image,
                      manifest_json.size() + image.size()};
    });
}

Result<EnclaveCreated>
EnclaveManager::createFromRecord(const ModuleRecord &record,
                                 const crypto::PublicKey &owner_pub)
{
    return instantiate(owner_pub, [&]() -> Result<Module> {
        return Module{record.manifest, record.measurement, &record.image,
                      0};
    });
}

Result<EnclaveCreated>
EnclaveManager::createShell(const crypto::PublicKey &owner_pub,
                            uint64_t mem_bytes)
{
    return instantiate(owner_pub, [&]() -> Result<Module> {
        /* An empty manifest: nothing is callable until bindModule
         * swaps in a module's. Attesting the shell proves "empty
         * executor on this mOS" (zero image hash). */
        Manifest mf;
        mf.deviceType = mos.deviceType();
        mf.memoryBytes = mem_bytes;
        crypto::Digest measurement = measureEnclave(mf, crypto::Digest{});
        return Module{mf, measurement, nullptr, mf.toJson().size()};
    });
}

Status
EnclaveManager::bindModule(Eid eid, const ModuleRecord &record,
                           uint64_t nonce, const Bytes &tag)
{
    mos.tick();
    /* Only the owner may change what this enclave runs. */
    auto enclave = ownerGate(eid, nonce, tag, "bind",
                             crypto::digestToBytes(record.digest));
    if (!enclave.isOk())
        return enclave.status();

    CRONUS_RETURN_IF_ERROR(checkDeviceType(record.manifest.deviceType));

    /* Re-admission: the module's quota replaces the current one. */
    uint64_t old_quota = enclave.value()->manifestOf().memoryBytes;
    uint64_t new_quota = record.manifest.memoryBytes;
    CRONUS_RETURN_IF_ERROR(admitMemory(old_quota, new_quota));
    CRONUS_RETURN_IF_ERROR(enclave.value()->bind(
        record.manifest, record.measurement, record.image));
    memUsed = memUsed - old_quota + new_quota;
    return Status::ok();
}

Bytes
EnclaveManager::authTag(const Bytes &secret, Eid eid, uint64_t nonce,
                        const std::string &fn, const Bytes &args)
{
    ByteWriter w;
    w.putU32(eid);
    w.putU64(nonce);
    w.putString(fn);
    w.putBytes(args);
    return crypto::digestToBytes(crypto::hmacSha256(secret, w.take()));
}

Result<MicroEnclave *>
EnclaveManager::ownerGate(Eid eid, uint64_t nonce, const Bytes &tag,
                          const std::string &fn, const Bytes &payload,
                          SimTime verify_ns)
{
    if (!mos.spm().validateMosId(mos.partitionId()))
        return Status(ErrorCode::InvalidState,
                      "partition not ready (failed or rebooting)");
    /* The SPM validates the mOS part of cross-mOS eids; a request
     * dispatched to the wrong partition is rejected here (malicious
     * dispatch defense, §III-B). */
    if (mosIdOf(eid) != mos.partitionId())
        return Status(ErrorCode::PermissionDenied,
                      "eid " + eidToString(eid) +
                      " does not belong to partition " +
                      std::to_string(mos.partitionId()));
    auto it = enclaves.find(eid);
    if (it == enclaves.end())
        return Status(ErrorCode::NotFound, "no such mEnclave");
    mos.spm().monitor().platform().clock().advance(verify_ns);

    /* Only the owner (holder of secret_dhke) passes (§IV-A). */
    Bytes expected = authTag(it->second->secret(), eid, nonce, fn,
                             payload);
    if (!constantTimeEqual(expected, tag))
        return Status(ErrorCode::AuthFailed,
                      "'" + fn + "' authentication failed");
    /* Strictly increasing nonce: replayed requests rejected. */
    uint64_t &last = lastNonce[eid];
    if (nonce <= last)
        return Status(ErrorCode::IntegrityViolation,
                      "'" + fn + "' replay detected");
    last = nonce;
    return it->second.get();
}

Result<Bytes>
EnclaveManager::ecall(Eid eid, const std::string &fn,
                      const Bytes &args, uint64_t nonce,
                      const Bytes &tag)
{
    mos.tick();
    hw::Platform &plat = mos.spm().monitor().platform();
    auto enclave = ownerGate(
        eid, nonce, tag, fn, args,
        static_cast<SimTime>(args.size() * plat.costs().hmacNsPerByte) +
            kNsPerUs);
    if (!enclave.isOk())
        return enclave.status();
    return enclave.value()->invoke(fn, args);
}

Result<Bytes>
EnclaveManager::invokeLocal(Eid eid, const std::string &fn,
                            const Bytes &args)
{
    if (!mos.spm().validateMosId(mos.partitionId()))
        return Status(ErrorCode::PeerFailed,
                      "partition not ready (failed or rebooting)");
    mos.tick();
    if (mosIdOf(eid) != mos.partitionId())
        return Status(ErrorCode::PermissionDenied,
                      "eid belongs to another partition");
    auto it = enclaves.find(eid);
    if (it == enclaves.end())
        return Status(ErrorCode::NotFound, "no such mEnclave");
    return it->second->invoke(fn, args);
}

Result<LocalAttestationReport>
EnclaveManager::localAttest(Eid eid, const Bytes &challenge)
{
    auto it = enclaves.find(eid);
    if (it == enclaves.end())
        return Status(ErrorCode::NotFound, "no such mEnclave");

    LocalAttestationReport report;
    report.eid = eid;
    auto incarnation = mos.incarnation();
    if (!incarnation.isOk())
        return incarnation.status();
    report.partitionIncarnation = incarnation.value();
    report.enclaveMeasurement = it->second->measure();
    auto mos_hash = mos.mosMeasurement();
    if (!mos_hash.isOk())
        return mos_hash.status();
    report.mosMeasurement = mos_hash.value();
    report.challenge = challenge;

    const Bytes &lsk = mos.spm().monitor().localSealKey();
    report.mac = crypto::digestToBytes(
        crypto::hmacSha256(lsk, report.macInput()));
    hw::Platform &plat = mos.spm().monitor().platform();
    plat.clock().advance(10 * kNsPerUs);
    return report;
}

bool
EnclaveManager::verifyLocalReport(const LocalAttestationReport &report,
                                  const Bytes &lsk)
{
    Bytes expected = crypto::digestToBytes(
        crypto::hmacSha256(lsk, report.macInput()));
    return constantTimeEqual(expected, report.mac);
}

Status
EnclaveManager::destroy(Eid eid, uint64_t nonce, const Bytes &tag)
{
    auto enclave = ownerGate(eid, nonce, tag, "destroy", Bytes{});
    if (!enclave.isOk())
        return enclave.status();
    /* The books are cleaned regardless -- a runtime that failed to
     * scrub must not leak quota -- but the caller learns about it:
     * swallowing the status here hid device-context teardown
     * failures from create/destroy churn. */
    Status destroyed = enclave.value()->destroy(true);
    memUsed -= enclave.value()->manifestOf().memoryBytes;
    lastNonce.erase(eid);
    enclaves.erase(eid);
    return destroyed;
}

Result<Bytes>
EnclaveManager::checkpoint(Eid eid, uint64_t nonce, const Bytes &tag)
{
    auto enclave = ownerGate(eid, nonce, tag, "checkpoint", Bytes{});
    if (!enclave.isOk())
        return enclave.status();
    auto snapshot = enclave.value()->snapshot();
    if (!snapshot.isOk())
        return snapshot.status();
    hw::Platform &plat = mos.spm().monitor().platform();
    plat.clock().advance(static_cast<SimTime>(
        snapshot.value().size() *
        (plat.costs().aesNsPerByte + plat.costs().hmacNsPerByte)));
    return crypto::sealMessage(enclave.value()->secret(), nonce,
                               snapshot.value());
}

Status
EnclaveManager::restore(Eid eid, uint64_t nonce, const Bytes &tag,
                        const Bytes &sealed)
{
    auto enclave = ownerGate(eid, nonce, tag, "restore", sealed);
    if (!enclave.isOk())
        return enclave.status();
    auto snapshot = crypto::openMessage(enclave.value()->secret(),
                                        sealed);
    if (!snapshot.isOk())
        return snapshot.status();
    hw::Platform &plat = mos.spm().monitor().platform();
    plat.clock().advance(static_cast<SimTime>(
        snapshot.value().size() *
        (plat.costs().aesNsPerByte + plat.costs().hmacNsPerByte)));
    return enclave.value()->restoreState(snapshot.value());
}

Result<const MicroEnclave *>
EnclaveManager::enclave(Eid eid) const
{
    auto it = enclaves.find(eid);
    if (it == enclaves.end())
        return Status(ErrorCode::NotFound, "no such mEnclave");
    return const_cast<const MicroEnclave *>(it->second.get());
}

/* ------------------------------------------------------------------ */
/* MicroOS                                                             */
/* ------------------------------------------------------------------ */

MicroOS::MicroOS(tee::Spm &spm, tee::PartitionId partition_id,
                 const std::string &device_type,
                 const std::string &device_name)
    : partitionManager(spm), pid(partition_id), devType(device_type),
      devName(device_name), shim(spm, partition_id)
{
    loadHalAndManager();
}

void
MicroOS::loadHalAndManager()
{
    if (devType == "cpu")
        halImpl = std::make_unique<mos::CpuHal>(shim, devName);
    else if (devType == "gpu")
        halImpl = std::make_unique<mos::GpuHal>(shim, devName);
    else if (devType == "npu")
        halImpl = std::make_unique<mos::NpuHal>(shim, devName);
    else
        fatal("unknown device type '" + devType + "'");
    manager = std::make_unique<EnclaveManager>(*this);
}

Result<crypto::Digest>
MicroOS::mosMeasurement() const
{
    auto p = partitionManager.partition(pid);
    if (!p.isOk())
        return p.status();
    return p.value()->mosHash;
}

Result<uint64_t>
MicroOS::incarnation() const
{
    auto p = partitionManager.partition(pid);
    if (!p.isOk())
        return p.status();
    return p.value()->incarnation;
}

void
MicroOS::onReboot()
{
    /* The reloaded mOS starts from scratch: fresh allocator, fresh
     * HAL (drivers re-probe, DMA staging remapped), fresh enclave
     * manager. */
    shim.resetAllocator();
    loadHalAndManager();
}

} // namespace cronus::core
