#include "failover.hh"

#include "accel/builtin_kernels.hh"
#include "core/system.hh"
#include "inject/injector.hh"
#include "inject/invariant_auditor.hh"
#include "recover/resumable_channel.hh"

namespace cronus::workloads
{

using namespace core;

namespace
{

constexpr SimTime kRunForNs = 3 * kNsPerSec;
/** Matrix dimension per task step. */
constexpr uint64_t kMatrixDim = 48;
/** Auto-checkpoint cadence of task A's channel (calls). */
constexpr uint64_t kCheckpointEvery = 8;

std::string
gpuManifest(const Bytes &image_bytes)
{
    return Manifest::build("gpu", "mat.cubin", image_bytes,
                           CudaRuntime::manifestCalls(), 4ull << 20);
}

std::string
cpuManifest(const Bytes &image_bytes)
{
    return Manifest::build("cpu", "mat.so", image_bytes,
                           {{"fo_noop", false}}, 4ull << 20);
}

/** One matrix task riding a resumable channel to a GPU enclave. */
struct MatrixTask
{
    std::unique_ptr<recover::ResumableChannel> channel;
    uint64_t vaA = 0, vaB = 0, vaC = 0;
    uint64_t dim = 0;

    Status
    start(CronusSystem &sys, recover::Supervisor &sup,
          inject::InvariantAuditor &auditor, AppHandle &cpu_enclave,
          const std::string &device_name, uint64_t matrix_dim,
          uint64_t checkpoint_every)
    {
        dim = matrix_dim;
        accel::GpuModuleImage module{"mat.cubin",
                                     {"matmul_f32", "fill_f32"}};
        Bytes image = module.serialize();
        recover::CalleeSpec spec;
        spec.manifestJson = gpuManifest(image);
        spec.imageName = "mat.cubin";
        spec.image = image;
        spec.deviceName = device_name;
        spec.autoCheckpointEvery = checkpoint_every;
        channel = std::make_unique<recover::ResumableChannel>(
            sys, sup, cpu_enclave, std::move(spec));
        /* Re-attach the auditor to every incarnation's channel. */
        channel->setOnConnect([&auditor](SrpcChannel &c) {
            auditor.attachChannel(c);
        });
        CRONUS_RETURN_IF_ERROR(channel->open());

        uint64_t bytes = dim * dim * sizeof(float);
        for (uint64_t *va : {&vaA, &vaB, &vaC}) {
            auto r = channel->call(
                "cuMemAlloc", CudaRuntime::encodeMemAlloc(bytes));
            if (!r.isOk())
                return r.status();
            *va = CudaRuntime::decodeU64Result(r.value()).value();
        }
        uint32_t one_bits = 0x3f800000;  /* 1.0f */
        for (uint64_t va : {vaA, vaB}) {
            auto r = channel->call(
                "cuLaunchKernel",
                CudaRuntime::encodeLaunchKernel(
                    "fill_f32", {va, dim * dim, one_bits},
                    dim * dim));
            if (!r.isOk())
                return r.status();
        }
        /* Seal the initialized operands: a reconnect restores A/B/C
         * from the checkpoint instead of replaying the setup. */
        return channel->checkpoint();
    }

    bool
    live() const
    {
        return channel &&
               channel->state() == recover::ChannelState::Live;
    }

    /** One task step: a matmul + sync (journaled calls). */
    Status
    step()
    {
        auto launch = channel->call(
            "cuLaunchKernel",
            CudaRuntime::encodeLaunchKernel(
                "matmul_f32", {vaA, vaB, vaC, dim, dim, dim},
                dim * dim * dim));
        if (!launch.isOk())
            return launch.status();
        auto sync = channel->call("cuCtxSynchronize", Bytes{});
        return sync.status();
    }
};

} // namespace

Result<FailoverTimeline>
runFailoverTimeline(const FailoverConfig &config)
{
    Logger::instance().setQuiet(true);
    accel::registerBuiltinKernels();
    auto &reg = CpuFunctionRegistry::instance();
    if (!reg.has("fo_noop")) {
        reg.registerFunction("fo_noop", [](CpuCallContext &ctx) {
            ctx.charge(1);
            return Result<Bytes>(Bytes{});
        });
    }

    CronusConfig cfg;
    cfg.numGpus = 2;
    cfg.withNpu = false;
    CronusSystem system(cfg);

    CpuImage cpu_image;
    cpu_image.exports = {"fo_noop"};
    Bytes cpu_bytes = cpu_image.serialize();
    auto cpu = system.createEnclave(cpuManifest(cpu_bytes), "mat.so",
                                    cpu_bytes);
    if (!cpu.isOk())
        return cpu.status();
    AppHandle cpu_handle = cpu.value();

    /* Audits grant accounting, streamCheck and slot lifetimes for
     * the whole run; attached before the first channel exists. */
    inject::InvariantAuditor auditor;
    auditor.attachSpm(system.spm());

    recover::SupervisorConfig sup_cfg;
    sup_cfg.restartBudget = config.restartBudget;
    sup_cfg.backoffBaseNs = config.backoffBaseNs;
    recover::Supervisor supervisor(system, sup_cfg);

    MatrixTask task_a, task_b;
    CRONUS_RETURN_IF_ERROR(task_a.start(
        system, supervisor, auditor, cpu_handle, "gpu0",
        kMatrixDim, kCheckpointEvery));
    CRONUS_RETURN_IF_ERROR(task_b.start(
        system, supervisor, auditor, cpu_handle, "gpu1",
        kMatrixDim, kCheckpointEvery));

    hw::Platform &plat = system.platform();
    SimTime origin = plat.clock().now();
    SimTime end_at = origin + kRunForNs;

    /* The crash is scripted, not hand-delivered: the plan kills
     * gpu0's partition on a checked SPM access at or after the crash
     * time, and the tasks find out via proceed-trap. In crash-loop
     * mode every recovered incarnation is killed again the same way
     * until the Supervisor's restart budget runs out. */
    auto gpu0_mos = system.mosForDevice("gpu0");
    if (!gpu0_mos.isOk())
        return gpu0_mos.status();
    tee::PartitionId gpu0_pid = gpu0_mos.value()->partitionId();
    inject::FaultPlan plan(kFailoverFaultSeed);
    if (config.crashLoop) {
        /* Incarnations start at 1; budget restarts reach incarnation
         * budget+1, so budget+1 kills force the quarantine. */
        for (uint64_t k = 1; k <= config.restartBudget + 1; ++k)
            plan.killIncarnation(k, origin + kFailoverCrashAtNs,
                                 gpu0_pid);
    } else {
        plan.killAtTime(origin + kFailoverCrashAtNs, gpu0_pid);
    }
    inject::FaultInjector injector(system.spm(), plan);
    injector.arm();

    ThroughputSeries series_a(kFailoverBucketNs);
    ThroughputSeries series_b(kFailoverBucketNs);
    FailoverTimeline timeline;

    bool crashed = false;
    SimTime crash_at = 0;
    SimTime recovered_at = 0;
    while (plat.clock().now() < end_at) {
        supervisor.pump();
        if (!timeline.gaveUp) {
            Status s = task_a.step();
            if (s.isOk()) {
                series_a.record(plat.clock().now() - origin);
                if (crashed && recovered_at == 0) {
                    /* The step above resumed the channel: reconnect,
                     * checkpoint restore and journal replay all
                     * happened inside it. */
                    recovered_at = plat.clock().now();
                    timeline.recoveryNs = recovered_at - crash_at;
                }
            } else if (s.code() == ErrorCode::PeerFailed) {
                if (!crashed) {
                    crashed = true;
                    crash_at = plat.clock().now();
                }
                /* Parked: the Supervisor recovers gpu0 while task B
                 * keeps the machine busy below. */
            } else if (s.code() == ErrorCode::Degraded) {
                timeline.gaveUp = true;
            } else {
                return s;
            }
        }
        if (task_b.live()) {
            if (task_b.step().isOk()) {
                series_b.record(plat.clock().now() - origin);
                if (crashed && recovered_at == 0 &&
                    !timeline.gaveUp)
                    ++timeline.taskBStepsDuringOutage;
            }
        }
    }

    timeline.quarantined = supervisor.quarantined("gpu0") &&
                           system.dispatcher().isDegraded("gpu0");
    timeline.gaveUp =
        timeline.gaveUp ||
        task_a.channel->state() == recover::ChannelState::GaveUp;
    timeline.finalChannelState =
        recover::channelStateName(task_a.channel->state());
    timeline.replayedCalls = task_a.channel->replayedCalls();
    timeline.reconnects = task_a.channel->reconnects();

    /* Orderly teardown before the audit: drop both channels so
     * every grant reaches its teardown event. */
    task_a.channel.reset();
    task_b.channel.reset();
    injector.disarm();

    timeline.taskARate = series_a.ratesPerSecond(kRunForNs);
    timeline.taskBRate = series_b.ratesPerSecond(kRunForNs);
    timeline.machineRebootNs = plat.costs().machineRebootNs;
    timeline.supervisorReport = supervisor.report().dump();
    timeline.injectionReport = injector.report().dump();
    (void)auditor.finalCheck();
    timeline.auditViolations = auditor.violations().size();
    timeline.auditReport = auditor.report().dump();
    return timeline;
}

} // namespace cronus::workloads
