#include "attacks.hh"

#include "accel/builtin_kernels.hh"
#include "core/system.hh"

namespace cronus::attacks
{

using namespace core;

namespace
{

/* ---------------- fixture helpers ---------------- */

void
registerFixtures()
{
    accel::registerBuiltinKernels();
    auto &reg = CpuFunctionRegistry::instance();
    if (!reg.has("atk_echo")) {
        reg.registerFunction("atk_echo", [](CpuCallContext &ctx) {
            ctx.charge(10);
            return Result<Bytes>(ctx.args);
        });
    }
}

Bytes
cpuImage()
{
    CpuImage image;
    image.exports = {"atk_echo"};
    return image.serialize();
}

Bytes
gpuImage()
{
    accel::GpuModuleImage image{"atk.cubin",
                                {"fill_f32", "vec_add_f32"}};
    return image.serialize();
}

std::string
cpuManifest()
{
    return Manifest::build("cpu", "atk.so", cpuImage(),
                           {{"atk_echo", false}}, 4ull << 20);
}

std::string
gpuManifest()
{
    return Manifest::build("gpu", "atk.cubin", gpuImage(),
                           CudaRuntime::manifestCalls(), 4ull << 20);
}

struct Scene
{
    CronusSystem system;
    AppHandle cpu;
    AppHandle gpu;
    std::unique_ptr<SrpcChannel> channel;

    Scene()
    {
        Logger::instance().setQuiet(true);
        registerFixtures();
        cpu = system.createEnclave(cpuManifest(), "atk.so",
                                   cpuImage()).value();
        gpu = system.createEnclave(gpuManifest(), "atk.cubin",
                                   gpuImage()).value();
        channel = std::move(system.connect(cpu, gpu).value());
    }
};

AttackOutcome
outcome(const std::string &name, bool blocked,
        const std::string &detail)
{
    return AttackOutcome{name, blocked, detail};
}

} // namespace

/* ---------------- scenarios ---------------- */

AttackOutcome
attackNormalWorldReadsSmem()
{
    Scene s;
    /* Put sensitive data on the ring. */
    Bytes secret = toBytes("training-batch-secret");
    auto va = s.channel->callSync("cuMemAlloc",
                                  CudaRuntime::encodeMemAlloc(256));
    s.channel->call("cuMemcpyHtoD",
                    CudaRuntime::encodeMemcpyHtoD(
                        CudaRuntime::decodeU64Result(va.value())
                            .value(),
                        secret));

    auto grant = s.system.spm().grant(s.channel->grantId());
    tee::PhysAddr smem = grant.value()->base;
    auto peek = s.system.normalWorld().read(smem, 4096);
    bool blocked = peek.code() == ErrorCode::AccessFault;
    return outcome("normal-world-reads-smem", blocked,
                   blocked ? "TZASC faulted the read"
                           : "ring contents leaked");
}

AttackOutcome
attackNormalWorldTampersSmem()
{
    Scene s;
    auto grant = s.system.spm().grant(s.channel->grantId());
    tee::PhysAddr smem = grant.value()->base;
    /* Try to bump Rid to forge a request. */
    Status w = s.system.normalWorld().write(
        smem + SharedRegion::kHeadOff,
        Bytes{0xff, 0xff, 0xff, 0xff});
    bool blocked = w.code() == ErrorCode::AccessFault;
    return outcome("normal-world-tampers-smem", blocked,
                   blocked ? "TZASC faulted the write"
                           : "RPC metadata forged");
}

AttackOutcome
attackReplayEcall()
{
    Scene s;
    /* Record a legitimate request, replay it verbatim. */
    Bytes args = toBytes("withdraw $100");
    uint64_t nonce = ++s.cpu.nonce;
    Bytes tag = EnclaveManager::authTag(s.cpu.secret, s.cpu.eid,
                                        nonce, "atk_echo", args);
    auto &manager = s.cpu.host->enclaveManager();
    auto first = manager.ecall(s.cpu.eid, "atk_echo", args, nonce,
                               tag);
    if (!first.isOk())
        return outcome("replay-ecall", false, "setup failed");
    auto replay = manager.ecall(s.cpu.eid, "atk_echo", args, nonce,
                                tag);
    bool blocked = replay.code() == ErrorCode::IntegrityViolation;
    return outcome("replay-ecall", blocked,
                   blocked ? "stale nonce rejected"
                           : "replay executed twice");
}

AttackOutcome
attackTamperEcallArgs()
{
    Scene s;
    Bytes args = toBytes("amount=1");
    uint64_t nonce = ++s.cpu.nonce;
    Bytes tag = EnclaveManager::authTag(s.cpu.secret, s.cpu.eid,
                                        nonce, "atk_echo", args);
    auto r = s.cpu.host->enclaveManager().ecall(
        s.cpu.eid, "atk_echo", toBytes("amount=9"), nonce, tag);
    bool blocked = r.code() == ErrorCode::AuthFailed;
    return outcome("tamper-ecall-args", blocked,
                   blocked ? "HMAC mismatch rejected"
                           : "modified arguments accepted");
}

AttackOutcome
attackMisdispatch()
{
    Scene s;
    auto npu_os = s.system.mosForDevice("npu0");
    if (!npu_os.isOk())
        return outcome("misdispatch", false, "no npu partition");
    s.system.dispatcher().setMisroute(
        [&](Eid) { return npu_os.value(); });
    auto r = s.system.ecall(s.cpu, "atk_echo", toBytes("x"));
    bool blocked = r.code() == ErrorCode::PermissionDenied;
    return outcome("misdispatch", blocked,
                   blocked ? "eid/partition mismatch rejected"
                           : "foreign partition served the call");
}

AttackOutcome
attackDropRpcByStall()
{
    Scene s;
    /* The malicious OS refuses to schedule the executor thread.
     * The caller's progress check observes no progress instead of
     * silently missing a request (drop becomes DoS, integrity
     * preserved). */
    auto rid = s.channel->callAsync(
        "cuMemAlloc", CudaRuntime::encodeMemAlloc(64));
    if (!rid.isOk())
        return outcome("drop-rpc-by-stall", false, "enqueue failed");
    auto premature = s.channel->resultOf(rid.value());
    bool blocked = premature.code() == ErrorCode::InvalidState;
    return outcome("drop-rpc-by-stall", blocked,
                   blocked ? "caller observes missing progress "
                             "(DoS only, no bad data)"
                           : "dropped RPC went unnoticed");
}

AttackOutcome
attackFabricatedAccelerator()
{
    Scene s;
    Bytes challenge = toBytes("fresh");
    auto report = s.system.attest(s.gpu, challenge);
    if (!report.isOk())
        return outcome("fabricated-accelerator", false,
                       "attestation path broken");
    auto expect = s.system.expectationFor(s.gpu);
    expect.challenge = challenge;
    /* The "vendor" endorsement comes from a fabricated key. */
    crypto::KeyPair fab = crypto::deriveKeyPair(toBytes("knockoff"));
    expect.deviceEndorsement = crypto::sign(
        fab, report.value().report.devicePublicKey);
    Status v = verifyAttestation(report.value(), expect);
    bool blocked = v.code() == ErrorCode::AuthFailed;
    return outcome("fabricated-accelerator", blocked,
                   blocked ? "endorsement chain rejected"
                           : "fake accelerator attested");
}

AttackOutcome
attackMaliciousDeviceTree()
{
    Logger::instance().setQuiet(true);
    hw::Platform platform;
    tee::SecureMonitor monitor(platform);
    hw::DeviceTree dt;
    hw::DtNode real;
    real.name = "gpu0";
    real.compatible = "nvidia,sim";
    real.mmioBase = 0x1000;
    real.mmioSize = 0x1000;
    real.irq = 40;
    dt.addNode(real);
    hw::DtNode shadow = real;  /* MMIO remapping attack */
    shadow.name = "gpu0-shadow";
    shadow.irq = 41;
    dt.addNode(shadow);
    Status booted = monitor.boot(dt);
    bool blocked = !booted.isOk();
    return outcome("malicious-device-tree", blocked,
                   blocked ? "overlapping MMIO rejected at boot"
                           : "remapped MMIO accepted");
}

AttackOutcome
attackMosSubstitution()
{
    Scene s;
    /* Crash the GPU partition, recover it, and let the attacker
     * stand up a fresh enclave; the victim's stale channel and
     * secret must both be useless. */
    s.system.injectPanic("gpu0");
    auto stale = s.channel->call("cuMemAlloc",
                                 CudaRuntime::encodeMemAlloc(64));
    bool old_channel_dead = stale.code() == ErrorCode::PeerFailed;

    s.system.recover("gpu0");
    auto imposter = s.system.createEnclave(gpuManifest(),
                                           "atk.cubin", gpuImage());
    if (!imposter.isOk())
        return outcome("mos-substitution", false,
                       "recovery path broken");
    /* Victim reconnects with its OLD secret against the imposter:
     * dCheck must fail. */
    AppHandle forged = imposter.value();
    forged.secret = s.gpu.secret;
    auto rewire = s.system.connect(s.cpu, forged);
    bool dcheck_blocked = !rewire.isOk();
    bool blocked = old_channel_dead && dcheck_blocked;
    return outcome("mos-substitution", blocked,
                   blocked ? "trap + dCheck stopped the imposter"
                           : "victim talked to substituted mOS");
}

AttackOutcome
attackCrashLeak()
{
    Scene s;
    /* Load secret data into GPU VRAM, crash, recover, then scan
     * fresh allocations for residue. */
    auto va = s.channel->callSync("cuMemAlloc",
                                  CudaRuntime::encodeMemAlloc(4096));
    uint64_t gpu_va =
        CudaRuntime::decodeU64Result(va.value()).value();
    Bytes secret(4096, 0x5a);
    s.channel->call("cuMemcpyHtoD",
                    CudaRuntime::encodeMemcpyHtoD(gpu_va, secret));
    s.channel->drain();

    s.system.injectPanic("gpu0");
    s.system.recover("gpu0");

    auto scavenger = s.system.createEnclave(gpuManifest(),
                                            "atk.cubin", gpuImage());
    if (!scavenger.isOk())
        return outcome("crash-leak", false, "recovery path broken");
    auto channel2 = s.system.connect(s.cpu, scavenger.value());
    if (!channel2.isOk())
        return outcome("crash-leak", false, "reconnect broken");
    auto va2 = channel2.value()->callSync(
        "cuMemAlloc", CudaRuntime::encodeMemAlloc(4096));
    auto peek = channel2.value()->call(
        "cuMemcpyDtoH",
        CudaRuntime::encodeMemcpyDtoH(
            CudaRuntime::decodeU64Result(va2.value()).value(),
            4096));
    if (!peek.isOk())
        return outcome("crash-leak", false, "read-back broken");
    bool residue = false;
    for (uint8_t b : peek.value())
        residue |= (b == 0x5a);
    return outcome("crash-leak", !residue,
                   residue ? "crashed enclave data survived"
                           : "device scrubbed before restart");
}

AttackOutcome
attackDeadLockOnFailure()
{
    Scene s;
    tee::Spm &spm = s.system.spm();
    auto cpu_os = s.system.mosForDevice("cpu0").value();
    auto gpu_os = s.system.mosForDevice("gpu0").value();

    /* A lock page owned by the CPU partition, shared with GPU. */
    auto lock_page =
        cpu_os->shimKernel().allocPages(1);
    if (!lock_page.isOk())
        return outcome("deadlock-on-failure", false, "alloc failed");
    auto grant = spm.sharePages(cpu_os->partitionId(),
                                gpu_os->partitionId(),
                                lock_page.value(), 1);
    if (!grant.isOk())
        return outcome("deadlock-on-failure", false, "share failed");

    /* GPU side takes the lock, then its partition dies. */
    spm.write(gpu_os->partitionId(), lock_page.value(), Bytes{1});
    s.system.injectPanic("gpu0");

    /* The CPU side tries to take the lock: it must get a failure
     * signal, not spin forever. */
    Status lock = cpu_os->shimKernel().spinLock(lock_page.value());
    bool blocked = lock.code() == ErrorCode::PeerFailed;
    return outcome("deadlock-on-failure", blocked,
                   blocked ? "trap signal instead of deadlock"
                           : "caller stuck on dead lock holder");
}

AttackOutcome
attackUndeclaredCall()
{
    Scene s;
    auto r = s.system.ecall(s.cpu, "not_in_manifest", Bytes{});
    bool blocked = r.code() == ErrorCode::PermissionDenied;
    return outcome("undeclared-mecall", blocked,
                   blocked ? "static mECall list enforced"
                           : "arbitrary function invoked");
}

AttackOutcome
attackCrossContextGpuRead()
{
    Scene s;
    /* Victim data in one GPU context. */
    auto va = s.channel->callSync("cuMemAlloc",
                                  CudaRuntime::encodeMemAlloc(256));
    uint64_t victim_va =
        CudaRuntime::decodeU64Result(va.value()).value();
    Bytes secret(256, 0x77);
    s.channel->call("cuMemcpyHtoD",
                    CudaRuntime::encodeMemcpyHtoD(victim_va, secret));
    s.channel->drain();

    /* A second enclave (second GPU context) dereferences the
     * victim's VA. */
    auto attacker = s.system.createEnclave(gpuManifest(),
                                           "atk.cubin", gpuImage());
    auto channel2 = s.system.connect(s.cpu, attacker.value());
    auto read = channel2.value()->call(
        "cuMemcpyDtoH",
        CudaRuntime::encodeMemcpyDtoH(victim_va, 256));
    bool blocked = !read.isOk();
    return outcome("cross-context-gpu-read", blocked,
                   blocked ? "GPU VA isolation held"
                           : "foreign context memory read");
}

std::vector<AttackOutcome>
runAllAttacks()
{
    return {
        attackNormalWorldReadsSmem(),
        attackNormalWorldTampersSmem(),
        attackReplayEcall(),
        attackTamperEcallArgs(),
        attackMisdispatch(),
        attackDropRpcByStall(),
        attackFabricatedAccelerator(),
        attackMaliciousDeviceTree(),
        attackMosSubstitution(),
        attackCrashLeak(),
        attackDeadLockOnFailure(),
        attackUndeclaredCall(),
        attackCrossContextGpuRead(),
    };
}

} // namespace cronus::attacks
