#include "sharing.hh"

#include "core/system.hh"
#include "dnn.hh"

namespace cronus::workloads
{

using namespace core;

namespace
{

/** Fig. 11b keeps the global batch fixed as GPUs are added. */
constexpr uint32_t kGlobalBatch = 256;

std::string
gpuManifest(const Bytes &image_bytes)
{
    return Manifest::build("gpu", "train.cubin", image_bytes,
                           CudaRuntime::manifestCalls(), 4ull << 20);
}

std::string
cpuManifest(const Bytes &image_bytes)
{
    return Manifest::build("cpu", "train.so", image_bytes,
                           {{"share_noop", false}}, 4ull << 20);
}

struct Trainer
{
    AppHandle enclave;
    std::unique_ptr<SrpcChannel> channel;
    uint64_t scratchVa = 0;
    uint64_t batchVa = 0;
};

/** Build a CRONUS machine with one CPU enclave plus N CUDA
 *  enclaves (optionally each pinned to its own GPU). */
struct Cluster
{
    std::unique_ptr<CronusSystem> system;
    AppHandle cpu;
    std::vector<Trainer> trainers;

    Status
    init(uint32_t num_gpus, uint32_t num_trainers, bool per_gpu)
    {
        Logger::instance().setQuiet(true);
        registerDnnKernels();
        auto &reg = CpuFunctionRegistry::instance();
        if (!reg.has("share_noop")) {
            reg.registerFunction("share_noop",
                                 [](CpuCallContext &ctx) {
                                     ctx.charge(1);
                                     return Result<Bytes>(Bytes{});
                                 });
        }

        CronusConfig cfg;
        cfg.numGpus = num_gpus;
        cfg.withNpu = false;
        system = std::make_unique<CronusSystem>(cfg);

        CpuImage cpu_image;
        cpu_image.exports = {"share_noop"};
        Bytes cpu_bytes = cpu_image.serialize();
        auto cpu_enclave = system->createEnclave(
            cpuManifest(cpu_bytes), "train.so", cpu_bytes);
        if (!cpu_enclave.isOk())
            return cpu_enclave.status();
        cpu = cpu_enclave.value();

        accel::GpuModuleImage module{"train.cubin",
                                     dnnKernelNames()};
        Bytes gpu_bytes = module.serialize();
        for (uint32_t i = 0; i < num_trainers; ++i) {
            std::string device =
                per_gpu ? "gpu" + std::to_string(i) : "gpu0";
            auto enclave = system->createEnclave(
                gpuManifest(gpu_bytes), "train.cubin", gpu_bytes,
                device);
            if (!enclave.isOk())
                return enclave.status();
            auto channel = system->connect(cpu, enclave.value());
            if (!channel.isOk())
                return channel.status();
            Trainer t;
            t.enclave = enclave.value();
            t.channel = std::move(channel.value());
            auto scratch = t.channel->callSync(
                "cuMemAlloc", CudaRuntime::encodeMemAlloc(4096));
            if (!scratch.isOk())
                return scratch.status();
            t.scratchVa = CudaRuntime::decodeU64Result(
                scratch.value()).value();
            auto batch = t.channel->callSync(
                "cuMemAlloc", CudaRuntime::encodeMemAlloc(64 * 1024));
            if (!batch.isOk())
                return batch.status();
            t.batchVa = CudaRuntime::decodeU64Result(
                batch.value()).value();
            trainers.push_back(std::move(t));
        }
        return Status::ok();
    }

    /** One LeNet iteration for trainer @p t, fully asynchronous. */
    Status
    issueIteration(Trainer &t, const ModelSpec &model,
                   uint32_t batch_size)
    {
        Bytes batch(16 * 1024, 0x11);  /* capped staging copy */
        auto copy = t.channel->call(
            "cuMemcpyHtoD",
            CudaRuntime::encodeMemcpyHtoD(t.batchVa, batch));
        if (!copy.isOk())
            return copy.status();
        for (const auto &layer : model.layers) {
            /* forward + backward */
            for (uint64_t mult : {uint64_t(1), uint64_t(2)}) {
                auto r = t.channel->call(
                    "cuLaunchKernel",
                    CudaRuntime::encodeLaunchKernel(
                        "dnn_op", {t.scratchVa, 1024},
                        mult * layer.flopsPerSample * batch_size));
                if (!r.isOk())
                    return r.status();
            }
        }
        return Status::ok();
    }

    /**
     * Interleave executor progress across all channels so kernel
     * submission (and hence GPU streams) genuinely overlap; a
     * per-channel drain would serialize the devices.
     */
    void
    pumpRoundRobin()
    {
        bool any = true;
        while (any) {
            any = false;
            for (auto &t : trainers)
                any |= t.channel->pump(1) > 0;
        }
    }

    Status
    drainAll()
    {
        pumpRoundRobin();
        for (auto &t : trainers) {
            auto r = t.channel->call("cuCtxSynchronize", Bytes{});
            if (!r.isOk())
                return r.status();
        }
        return Status::ok();
    }
};

} // namespace

Result<SpatialResult>
runSpatialSharing(const SpatialConfig &config)
{
    Cluster cluster;
    CRONUS_RETURN_IF_ERROR(cluster.init(1, config.enclaves, false));

    ModelSpec model = lenet2();
    SimTime start = cluster.system->platform().clock().now();

    if (config.temporal) {
        /* Temporal sharing: take turns with dedicated access; each
         * enclave's work fully drains before the next runs. */
        for (uint32_t iter = 0; iter < config.iterationsPerEnclave;
             ++iter) {
            for (auto &t : cluster.trainers) {
                CRONUS_RETURN_IF_ERROR(cluster.issueIteration(
                    t, model, config.batchSize));
                while (t.channel->pump(8) > 0) {}
                auto sync = t.channel->call("cuCtxSynchronize",
                                            Bytes{});
                if (!sync.isOk())
                    return sync.status();
            }
        }
    } else {
        /* Round-robin so the enclaves' kernel streams overlap on
         * the device -- that is what spatial sharing packs. */
        for (uint32_t iter = 0; iter < config.iterationsPerEnclave;
             ++iter) {
            for (auto &t : cluster.trainers)
                CRONUS_RETURN_IF_ERROR(cluster.issueIteration(
                    t, model, config.batchSize));
            cluster.pumpRoundRobin();
        }
        CRONUS_RETURN_IF_ERROR(cluster.drainAll());
    }

    SpatialResult result;
    result.enclaves = config.enclaves;
    result.totalTimeNs =
        cluster.system->platform().clock().now() - start;
    uint64_t images = uint64_t(config.enclaves) *
                      config.iterationsPerEnclave *
                      config.batchSize;
    result.imagesPerSecond =
        result.totalTimeNs == 0
            ? 0.0
            : images * double(kNsPerSec) / result.totalTimeNs;
    return result;
}

const char *
gradTransportName(GradTransport transport)
{
    switch (transport) {
      case GradTransport::P2pPcie:          return "p2p-pcie";
      case GradTransport::SecureMemStaging: return "secure-mem";
      case GradTransport::EncryptedStaging: return "encrypted";
    }
    return "unknown";
}

Result<DistributedResult>
runDataParallel(const DistributedConfig &config)
{
    Cluster cluster;
    CRONUS_RETURN_IF_ERROR(
        cluster.init(config.gpus, config.gpus, true));

    ModelSpec model = lenet2();
    hw::Platform &plat = cluster.system->platform();
    const CostModel &costs = plat.costs();
    uint64_t grad_bytes = model.totalParamBytes();
    uint32_t local_batch =
        std::max<uint32_t>(kGlobalBatch / config.gpus, 1);

    /* For P2P, establish real trusted shared memory between
     * neighbouring GPU partitions (the paper: "CRONUS supports
     * shared GPU memory to enable direct GPU communication over
     * PCIe"), and push one page of actual gradient bytes through it
     * per ring step so the data path is exercised, not just
     * costed. */
    struct P2pLink
    {
        tee::PartitionId from = 0, to = 0;
        tee::PhysAddr page = 0;
    };
    std::vector<P2pLink> links;
    if (config.gpus > 1 &&
        config.transport == GradTransport::P2pPcie) {
        tee::Spm &spm = cluster.system->spm();
        for (uint32_t g = 0; g < config.gpus; ++g) {
            auto from = cluster.system->mosForDevice(
                "gpu" + std::to_string(g));
            auto to = cluster.system->mosForDevice(
                "gpu" + std::to_string((g + 1) % config.gpus));
            if (!from.isOk() || !to.isOk())
                return Status(ErrorCode::NotFound, "gpu mos");
            auto page = from.value()->shimKernel().allocPages(1);
            if (!page.isOk())
                return page.status();
            auto grant = spm.sharePages(
                from.value()->partitionId(),
                to.value()->partitionId(), page.value(), 1);
            if (!grant.isOk())
                return grant.status();
            links.push_back({from.value()->partitionId(),
                             to.value()->partitionId(),
                             page.value()});
        }
    }

    SimTime start = plat.clock().now();
    for (uint32_t iter = 0; iter < config.iterations; ++iter) {
        /* Compute phase: all GPUs work concurrently on their
         * shard. */
        for (auto &t : cluster.trainers)
            CRONUS_RETURN_IF_ERROR(cluster.issueIteration(
                t, model, local_batch));
        cluster.pumpRoundRobin();
        CRONUS_RETURN_IF_ERROR(cluster.drainAll());

        /* Gradient exchange: ring all-reduce, 2(N-1) steps each
         * moving grad_bytes/N between neighbours. All GPUs transfer
         * concurrently within a ring step, so the serialized cost
         * is per-step, not per-link. */
        if (config.gpus > 1) {
            uint64_t chunk = grad_bytes / config.gpus;
            uint64_t steps = 2ull * (config.gpus - 1);
            for (uint64_t s = 0; s < steps; ++s) {
                switch (config.transport) {
                  case GradTransport::P2pPcie: {
                    /* One DMA hop GPU->GPU over the secure PCIe
                     * bus via trusted shared GPU memory; a page of
                     * real gradient bytes flows per step. */
                    tee::Spm &spm = cluster.system->spm();
                    for (const auto &link : links) {
                        Bytes grad_page(hw::kPageSize,
                                        uint8_t(0x40 + s + iter));
                        Status w = spm.write(link.from, link.page,
                                             grad_page);
                        if (!w.isOk())
                            return w;
                        auto r = spm.read(link.to, link.page,
                                          hw::kPageSize);
                        if (!r.isOk())
                            return r.status();
                        if (r.value() != grad_page)
                            return Status(
                                ErrorCode::IntegrityViolation,
                                "p2p gradient bytes corrupted");
                    }
                    plat.chargeDma(chunk);
                    break;
                  }
                  case GradTransport::SecureMemStaging:
                    /* GPU -> secure CPU memory -> GPU. */
                    plat.chargeDma(chunk);
                    plat.chargeMemcpy(chunk);
                    plat.chargeDma(chunk);
                    break;
                  case GradTransport::EncryptedStaging:
                    plat.chargeDma(chunk);
                    plat.chargeMemcpy(chunk);
                    plat.clock().advance(static_cast<SimTime>(
                        2 * chunk * (costs.aesNsPerByte +
                                     costs.hmacNsPerByte)));
                    plat.chargeDma(chunk);
                    break;
                }
            }
        }
    }

    DistributedResult result;
    result.gpus = config.gpus;
    result.transport = config.transport;
    result.perIterationNs =
        (plat.clock().now() - start) / config.iterations;
    return result;
}

} // namespace cronus::workloads
