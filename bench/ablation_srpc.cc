/**
 * @file
 * Ablation: sRPC vs synchronous S-EL2 RPC vs encrypted RPC over
 * untrusted memory (§IV-C / §II-C).
 *
 * Measures per-call cost and world/context switches for a stream of
 * identical mECalls under the three inter-enclave RPC designs the
 * paper contrasts. This is the design choice sRPC exists for.
 */

#include <chrono>

#include "accel/builtin_kernels.hh"
#include "bench_util.hh"
#include "core/system.hh"
#include "crypto/aes.hh"
#include "hw/translation_cache.hh"

using namespace cronus;
using namespace cronus::bench;
using namespace cronus::core;

namespace
{

constexpr int kCalls = 200;

std::string
gpuManifest(const Bytes &image)
{
    return Manifest::build("gpu", "a.cubin", image,
                           CudaRuntime::manifestCalls(), 4ull << 20);
}

std::string
cpuManifest(const Bytes &image)
{
    return Manifest::build("cpu", "a.so", image, {{"ab_noop", false}},
                           4ull << 20);
}

struct Setup
{
    std::unique_ptr<CronusSystem> system;
    AppHandle cpu, gpu;
    std::unique_ptr<SrpcChannel> channel;

    Setup()
    {
        Logger::instance().setQuiet(true);
        accel::registerBuiltinKernels();
        auto &reg = CpuFunctionRegistry::instance();
        if (!reg.has("ab_noop")) {
            reg.registerFunction("ab_noop", [](CpuCallContext &ctx) {
                ctx.charge(1);
                return Result<Bytes>(Bytes{});
            });
        }
        system = std::make_unique<CronusSystem>();
        CpuImage ci;
        ci.exports = {"ab_noop"};
        Bytes cb = ci.serialize();
        cpu = system->createEnclave(cpuManifest(cb), "a.so", cb)
                  .value();
        accel::GpuModuleImage module{"a.cubin", {"fill_f32"}};
        Bytes gb = module.serialize();
        gpu = system->createEnclave(gpuManifest(gb), "a.cubin", gb)
                  .value();
        channel = std::move(system->connect(cpu, gpu).value());
    }
};

} // namespace

int
main()
{
    header("Ablation: inter-enclave RPC designs "
           "(200 cuMemAlloc calls)");

    Bytes args = CudaRuntime::encodeMemAlloc(64);

    /* --- 1. sRPC (CRONUS) --- */
    double srpc_us;
    double srpc_host_ns;
    uint64_t srpc_switches;
    {
        Setup s;
        uint64_t switches0 = s.system->monitor().worldSwitchCount() +
                             s.system->monitor().sel2SwitchCount();
        SimTime t0 = s.system->platform().clock().now();
        auto h0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kCalls; ++i)
            s.channel->callAsync("cuMemAlloc", args);
        s.channel->drain();
        auto h1 = std::chrono::steady_clock::now();
        srpc_us = (s.system->platform().clock().now() - t0) /
                  (1000.0 * kCalls);
        srpc_host_ns = std::chrono::duration<double, std::nano>(
                           h1 - h0).count() / kCalls;
        srpc_switches = s.system->monitor().worldSwitchCount() +
                        s.system->monitor().sel2SwitchCount() -
                        switches0;
    }

    /* --- 2. synchronous S-EL2 RPC (sRPC disabled) --- */
    double sync_us;
    uint64_t sync_switches;
    {
        Setup s;
        tee::SecureMonitor &monitor = s.system->monitor();
        uint64_t switches0 =
            monitor.worldSwitchCount() + monitor.sel2SwitchCount();
        SimTime t0 = s.system->platform().clock().now();
        for (int i = 0; i < kCalls; ++i) {
            /* Four context switches to activate the remote
             * mEnclave, and four to resume (the paper's [72]). */
            monitor.sel2RpcSwitch();
            s.gpu.host->enclaveManager().invokeLocal(
                s.gpu.eid, "cuMemAlloc", args);
            monitor.sel2RpcSwitch();
        }
        sync_us = (s.system->platform().clock().now() - t0) /
                  (1000.0 * kCalls);
        sync_switches = monitor.worldSwitchCount() +
                        monitor.sel2SwitchCount() - switches0;
    }

    /* --- 3. encrypted lock-step RPC over untrusted memory --- */
    double enc_us;
    uint64_t enc_switches;
    {
        Setup s;
        tee::SecureMonitor &monitor = s.system->monitor();
        hw::Platform &plat = s.system->platform();
        Bytes secret(32, 0x21);
        uint64_t switches0 =
            monitor.worldSwitchCount() + monitor.sel2SwitchCount();
        SimTime t0 = plat.clock().now();
        uint64_t nonce = 0;
        for (int i = 0; i < kCalls; ++i) {
            Bytes sealed = crypto::sealMessage(secret, ++nonce,
                                               args);
            plat.clock().advance(static_cast<SimTime>(
                args.size() * (plat.costs().aesNsPerByte +
                               plat.costs().hmacNsPerByte)));
            monitor.worldSwitch();
            monitor.worldSwitch();
            crypto::openMessage(secret, sealed);
            s.gpu.host->enclaveManager().invokeLocal(
                s.gpu.eid, "cuMemAlloc", args);
            Bytes ack = crypto::sealMessage(secret, ++nonce,
                                            toBytes("ack"));
            monitor.worldSwitch();
            monitor.worldSwitch();
            crypto::openMessage(secret, ack);
        }
        enc_us = (plat.clock().now() - t0) / (1000.0 * kCalls);
        enc_switches = monitor.worldSwitchCount() +
                       monitor.sel2SwitchCount() - switches0;
    }

    std::printf("%-36s %12s %10s\n", "RPC design", "us/call",
                "switches");
    std::printf("%-36s %12.2f %10llu\n",
                "sRPC (streaming, trusted smem)", srpc_us,
                static_cast<unsigned long long>(srpc_switches));
    std::printf("%-36s %12.2f %10llu\n",
                "synchronous S-EL2 RPC", sync_us,
                static_cast<unsigned long long>(sync_switches));
    std::printf("%-36s %12.2f %10llu\n",
                "encrypted RPC (untrusted memory)", enc_us,
                static_cast<unsigned long long>(enc_switches));
    std::printf("\nsRPC speedup: %.1fx vs sync, %.1fx vs "
                "encrypted\n",
                sync_us / srpc_us, enc_us / srpc_us);
    /* Host (wall-clock) per-call cost of the simulator itself; this
     * is what the software-TLB fast path ablation moves
     * (CRONUS_DISABLE_TLB=1), while the virtual-time table above is
     * byte-identical by construction. */
    std::printf("sRPC host-time per call: %.0f ns (wall clock, "
                "TLB %s)\n", srpc_host_ns,
                hw::TranslationCache::globalEnable() ? "on" : "off");

    /* --- §VII-B hardware advice: trusted TEE shared memory --- */
    header("Ablation: channel setup with hardware trusted shared "
           "memory (SS VII-B)");
    auto measure_setup = [](bool hw_assisted) {
        Setup s;
        if (hw_assisted) {
            /* The proposed hardware mechanism establishes and
             * tears down identity-checked shared mappings without
             * SPM page-table co-design. */
            CostModel &costs =
                s.system->platform().mutableCosts();
            costs.pageTableUpdateNs = 0;
            costs.tlbInvalidateNs = 0;
            costs.smmuUpdateNs = 0;
        }
        auto gpu2 = s.system->createEnclave(
            gpuManifest(accel::GpuModuleImage{"a.cubin",
                                              {"fill_f32"}}
                            .serialize()),
            "a.cubin",
            accel::GpuModuleImage{"a.cubin", {"fill_f32"}}
                .serialize());
        SimTime t0 = s.system->platform().clock().now();
        auto channel = s.system->connect(s.cpu, gpu2.value());
        SimTime cost = s.system->platform().clock().now() - t0;
        channel.value()->close();
        return cost;
    };
    SimTime sw_setup = measure_setup(false);
    SimTime hw_setup = measure_setup(true);
    std::printf("%-36s %12.1f us\n", "software (SPM co-design)",
                sw_setup / 1000.0);
    std::printf("%-36s %12.1f us\n", "hardware-assisted sharing",
                hw_setup / 1000.0);
    std::printf("setup saving: %.1f%%\n",
                100.0 * (1.0 - double(hw_setup) / sw_setup));
    return 0;
}
