/**
 * @file
 * Substrate microbenchmarks (wall-clock, google-benchmark).
 *
 * Real-time throughput of the from-scratch primitives everything
 * else is built on: SHA-256, HMAC, AES-CTR, Schnorr, U256 modexp,
 * page-table translation, sRPC framing. These are host-time
 * numbers, unlike the virtual-time figure benches.
 *
 * The memory fast-path benches (BM_Spm*, BM_Srpc*) take Arg(0) =
 * software TLB off / Arg(1) = TLB on, so a single run quantifies the
 * fast path against the uncached walk. BM_AesBlock and BM_Sha256Block
 * follow the same convention: Arg(0) = the textbook reference oracle
 * (tests/crypto/reference_crypto.hh), Arg(1) = the src/crypto fast
 * path. Results are also written to BENCH_substrate.json
 * (benchmark's JSON format) unless the caller passes its own
 * --benchmark_out.
 */

#include <benchmark/benchmark.h>

#include "accel/builtin_kernels.hh"
#include "core/auto_partition.hh"
#include "core/system.hh"
#include "crypto/aes.hh"
#include "crypto/keys.hh"
#include "crypto/sha256.hh"
#include "hw/page_table.hh"
#include "reference_crypto.hh"
#include "tee/spm.hh"

using namespace cronus;

namespace
{

void
BM_Sha256(benchmark::State &state)
{
    Bytes data(state.range(0), 0xab);
    for (auto _ : state) {
        auto digest = crypto::sha256(data);
        benchmark::DoNotOptimize(digest);
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void
BM_HmacSha256(benchmark::State &state)
{
    Bytes key(32, 0x11);
    Bytes data(state.range(0), 0xab);
    for (auto _ : state) {
        auto mac = crypto::hmacSha256(key, data);
        benchmark::DoNotOptimize(mac);
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

void
BM_AesCtr(benchmark::State &state)
{
    crypto::AesKey key{};
    crypto::Aes128 aes(key);
    Bytes data(state.range(0), 0x5c);
    uint64_t nonce = 0;
    for (auto _ : state) {
        auto ct = aes.ctr(data, ++nonce);
        benchmark::DoNotOptimize(ct);
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(4096)->Arg(65536);

/** One AES-128 block: Arg(0) textbook rounds, Arg(1) T-table. */
void
BM_AesBlock(benchmark::State &state)
{
    const crypto::AesKey key = crypto::aesKeyFromSecret(Bytes(32, 0x07));
    const crypto::reference::TextbookAes textbook(key);
    const crypto::Aes128 fast(key);
    uint8_t block[16] = {};
    for (auto _ : state) {
        if (state.range(0) == 0)
            textbook.encryptBlock(block);
        else
            fast.encryptBlock(block);
        benchmark::DoNotOptimize(block);
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * 16);
}
BENCHMARK(BM_AesBlock)->Arg(0)->Arg(1);

/** SHA-256 of 4 KiB (64 blocks): Arg(0) rolled reference, Arg(1)
 *  unrolled fast path. */
void
BM_Sha256Block(benchmark::State &state)
{
    Bytes data(4096);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 31);
    for (auto _ : state) {
        auto digest = state.range(0) == 0
                          ? crypto::reference::sha256(data)
                          : crypto::sha256(data);
        benchmark::DoNotOptimize(digest);
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(data.size()));
}
BENCHMARK(BM_Sha256Block)->Arg(0)->Arg(1);

void
BM_SealOpen(benchmark::State &state)
{
    Bytes secret(32, 0x07);
    Bytes data(state.range(0), 0x3c);
    uint64_t nonce = 0;
    for (auto _ : state) {
        Bytes sealed = crypto::sealMessage(secret, ++nonce, data);
        auto opened = crypto::openMessage(secret, sealed);
        benchmark::DoNotOptimize(opened);
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_SealOpen)->Arg(1024)->Arg(16384);

void
BM_SchnorrSign(benchmark::State &state)
{
    crypto::KeyPair kp = crypto::deriveKeyPair(toBytes("bench"));
    Bytes msg(64, 0x99);
    for (auto _ : state) {
        auto sig = crypto::sign(kp, msg);
        benchmark::DoNotOptimize(sig);
    }
}
BENCHMARK(BM_SchnorrSign);

void
BM_SchnorrVerify(benchmark::State &state)
{
    crypto::KeyPair kp = crypto::deriveKeyPair(toBytes("bench"));
    Bytes msg(64, 0x99);
    auto sig = crypto::sign(kp, msg);
    for (auto _ : state) {
        bool ok = crypto::verify(kp.pub, msg, sig);
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_SchnorrVerify);

void
BM_U256PowMod(benchmark::State &state)
{
    crypto::U256 base(123456789);
    auto exp = crypto::U256::fromHex(
        "0123456789abcdef0123456789abcdef"
        "0123456789abcdef0123456789abcdef").value();
    for (auto _ : state) {
        auto r = crypto::U256::powMod(base, exp,
                                      crypto::groupPrime());
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_U256PowMod);

void
BM_PageTableTranslate(benchmark::State &state)
{
    hw::PageTable pt;
    for (uint64_t i = 0; i < 1024; ++i)
        pt.map(i * hw::kPageSize, (i + 4096) * hw::kPageSize,
               hw::PagePerms::rw());
    uint64_t va = 0;
    for (auto _ : state) {
        auto t = pt.translate((va++ % 1024) * hw::kPageSize, 8,
                              false);
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_PageTableTranslate);

void
BM_DhSharedSecret(benchmark::State &state)
{
    crypto::KeyPair a = crypto::deriveKeyPair(toBytes("a"));
    crypto::KeyPair b = crypto::deriveKeyPair(toBytes("b"));
    for (auto _ : state) {
        auto s = crypto::dhSharedSecret(a.priv, b.pub);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_DhSharedSecret);

/* ---------------- memory fast path (TLB off/on) ---------------- */

/** RAII toggle: Arg(0) = uncached walk, Arg(1) = software TLB. */
struct TlbScope
{
    explicit TlbScope(bool on)
    {
        hw::TranslationCache::setGlobalEnable(on);
    }
    ~TlbScope() { hw::TranslationCache::setGlobalEnable(true); }
};

/** Minimal SPM stack: one platform, one GPU partition. */
struct SpmBench
{
    std::unique_ptr<hw::Platform> platform;
    std::unique_ptr<tee::SecureMonitor> monitor;
    std::unique_ptr<tee::Spm> spm;
    tee::PartitionId pid = 0;
    tee::PhysAddr base = 0;

    SpmBench()
    {
        Logger::instance().setQuiet(true);
        platform = std::make_unique<hw::Platform>();
        platform->registerDevice(
            std::make_unique<accel::GpuDevice>(), 40);
        monitor = std::make_unique<tee::SecureMonitor>(*platform);
        hw::DeviceTree dt;
        hw::DeviceTree discovered = platform->buildDeviceTree();
        for (auto node : discovered.all()) {
            node.world = hw::World::Secure;
            dt.addNode(node);
        }
        monitor->boot(dt);
        spm = std::make_unique<tee::Spm>(*monitor);
        tee::MosImage image{"gpu0.mos", "gpu", toBytes("bench")};
        pid = spm->createPartition(image, "gpu0", 1 << 20).value();
        base = spm->partition(pid).value()->memBase;
    }
};

void
BM_SpmRead(benchmark::State &state)
{
    TlbScope tlb(state.range(0) != 0);
    SpmBench b;
    uint8_t buf[64];
    /* Stride one page per access across the whole partition, the
     * pattern ring + heap traffic produces; touch everything once so
     * neither variant measures first-touch page materialization. */
    constexpr uint64_t kPages = (1 << 20) / hw::kPageSize;
    for (uint64_t i = 0; i < kPages; ++i)
        b.spm->write(b.pid, b.base + i * hw::kPageSize, buf,
                     sizeof(buf));
    uint64_t page = 0;
    for (auto _ : state) {
        Status s = b.spm->readInto(
            b.pid, b.base + page * hw::kPageSize, buf, sizeof(buf));
        benchmark::DoNotOptimize(s);
        page = (page + 1) % kPages;
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            sizeof(buf));
}
BENCHMARK(BM_SpmRead)->Arg(0)->Arg(1);

void
BM_SpmWrite(benchmark::State &state)
{
    TlbScope tlb(state.range(0) != 0);
    SpmBench b;
    uint8_t buf[64] = {0x5a};
    constexpr uint64_t kPages = (1 << 20) / hw::kPageSize;
    for (uint64_t i = 0; i < kPages; ++i)
        b.spm->write(b.pid, b.base + i * hw::kPageSize, buf,
                     sizeof(buf));
    uint64_t page = 0;
    for (auto _ : state) {
        Status s = b.spm->write(
            b.pid, b.base + page * hw::kPageSize, buf, sizeof(buf));
        benchmark::DoNotOptimize(s);
        page = (page + 1) % kPages;
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            sizeof(buf));
}
BENCHMARK(BM_SpmWrite)->Arg(0)->Arg(1);

/** Full CRONUS machine with a CPU caller and GPU callee, as in the
 *  ablation bench; cuCtxSynchronize keeps iterations resource-flat. */
struct SrpcBench
{
    std::unique_ptr<core::CronusSystem> system;
    core::AppHandle cpu, gpu;
    std::unique_ptr<core::SrpcChannel> channel;

    SrpcBench()
    {
        Logger::instance().setQuiet(true);
        accel::registerBuiltinKernels();
        auto &reg = core::CpuFunctionRegistry::instance();
        if (!reg.has("bench_noop")) {
            reg.registerFunction(
                "bench_noop", [](core::CpuCallContext &ctx) {
                    ctx.charge(1);
                    return Result<Bytes>(Bytes{});
                });
        }
        system = std::make_unique<core::CronusSystem>();
        core::Manifest cm;
        cm.deviceType = "cpu";
        cm.mEcalls.push_back({"bench_noop", false});
        core::CpuImage ci;
        ci.exports = {"bench_noop"};
        Bytes cb = ci.serialize();
        cm.images["a.so"] = crypto::digestHex(crypto::sha256(cb));
        cm.memoryBytes = 4ull << 20;
        cpu = system->createEnclave(cm.toJson(), "a.so", cb).value();

        core::Manifest gm;
        gm.deviceType = "gpu";
        accel::GpuModuleImage module{"a.cubin", {"fill_f32"}};
        Bytes gb = module.serialize();
        gm.images["a.cubin"] = crypto::digestHex(crypto::sha256(gb));
        for (const auto &fn : core::CudaRuntime::apiSurface())
            gm.mEcalls.push_back(
                {fn, core::AutoPartitioner::cudaCallIsAsync(fn)});
        gm.memoryBytes = 4ull << 20;
        gpu = system->createEnclave(gm.toJson(), "a.cubin", gb)
                  .value();
        channel = std::move(system->connect(cpu, gpu).value());
    }
};

void
BM_SrpcCallSync(benchmark::State &state)
{
    TlbScope tlb(state.range(0) != 0);
    SrpcBench b;
    for (auto _ : state) {
        auto r = b.channel->callSync("cuCtxSynchronize", Bytes{});
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_SrpcCallSync)->Arg(0)->Arg(1);

void
BM_SrpcCallAsync(benchmark::State &state)
{
    TlbScope tlb(state.range(0) != 0);
    SrpcBench b;
    /* Streaming steady state: enqueue + executor keeps pace. */
    for (auto _ : state) {
        auto r = b.channel->callAsync("cuCtxSynchronize", Bytes{});
        benchmark::DoNotOptimize(r);
        b.channel->pump(1);
    }
    b.channel->drain();
}
BENCHMARK(BM_SrpcCallAsync)->Arg(0)->Arg(1);

} // namespace

int
main(int argc, char **argv)
{
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
            has_out = true;
    std::vector<char *> args(argv, argv + argc);
    std::string out = "--benchmark_out=BENCH_substrate.json";
    std::string fmt = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out.data());
        args.push_back(fmt.data());
    }
    int ac = static_cast<int>(args.size());
    benchmark::Initialize(&ac, args.data());
    if (benchmark::ReportUnrecognizedArguments(ac, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
