#include "auto_partition.hh"

namespace cronus::core
{

bool
AutoPartitioner::cudaCallIsAsync(const std::string &fn)
{
    /* Launches and HtoD copies stream without waiting; DtoH and
     * explicit synchronization need results (§IV-C). Allocation
     * returns a value, so it is synchronous too. */
    return fn == "cuLaunchKernel" || fn == "cuMemcpyHtoD" ||
           fn == "cuMemFree";
}

namespace
{

/** Memory quota of every generated mEnclave. */
constexpr uint64_t kEnclaveMemBytes = 4ull << 20;

} // namespace

Result<PartitionPlan>
AutoPartitioner::partition(const MonolithicProgram &program)
{
    PartitionPlan plan;
    std::vector<McallDecl> cpu_calls, gpu_calls, npu_calls;
    auto add_unique = [](std::vector<McallDecl> &list,
                         const McallDecl &decl) {
        for (const auto &existing : list) {
            if (existing.name == decl.name)
                return;
        }
        list.push_back(decl);
    };

    for (const auto &op : program.ops) {
        switch (op.kind) {
          case MonoOp::Kind::Cpu:
            plan.needsCpu = true;
            add_unique(cpu_calls, {op.fn, false});
            break;
          case MonoOp::Kind::Cuda:
            plan.needsGpu = true;
            add_unique(gpu_calls, {op.fn, cudaCallIsAsync(op.fn)});
            break;
          case MonoOp::Kind::Npu:
            plan.needsNpu = true;
            add_unique(npu_calls, {op.fn, false});
            break;
        }
    }
    if (program.ops.empty())
        return Status(ErrorCode::InvalidArgument, "empty program");

    if (plan.needsCpu) {
        plan.cpuImageBytes = program.cpuImage.serialize();
        plan.cpuManifest =
            Manifest::build("cpu", program.name + ".so",
                            plan.cpuImageBytes, cpu_calls,
                            kEnclaveMemBytes);
    }
    if (plan.needsGpu) {
        plan.gpuImageBytes = program.gpuImage.serialize();
        plan.gpuManifest =
            Manifest::build("gpu", program.name + ".cubin",
                            plan.gpuImageBytes, gpu_calls,
                            kEnclaveMemBytes);
    }
    if (plan.needsNpu) {
        plan.npuManifest = Manifest::build("npu", "", {}, npu_calls,
                                           kEnclaveMemBytes);
    }
    return plan;
}

Result<AutoPartitioner::RunResult>
AutoPartitioner::run(CronusSystem &system,
                     const MonolithicProgram &program)
{
    auto plan = partition(program);
    if (!plan.isOk())
        return plan.status();
    const PartitionPlan &p = plan.value();

    RunResult result;
    std::optional<AppHandle> cpu, gpu, npu;
    std::unique_ptr<SrpcChannel> gpu_channel, npu_channel;

    if (p.needsCpu) {
        auto handle = system.createEnclave(
            p.cpuManifest, program.name + ".so", p.cpuImageBytes);
        if (!handle.isOk())
            return handle.status();
        cpu = handle.value();
    }
    if (p.needsGpu) {
        auto handle = system.createEnclave(
            p.gpuManifest, program.name + ".cubin", p.gpuImageBytes);
        if (!handle.isOk())
            return handle.status();
        gpu = handle.value();
        if (cpu.has_value()) {
            auto channel = system.connect(*cpu, *gpu);
            if (!channel.isOk())
                return channel.status();
            gpu_channel = std::move(channel.value());
        }
    }
    if (p.needsNpu) {
        auto handle = system.createEnclave(p.npuManifest, "",
                                           Bytes{});
        if (!handle.isOk())
            return handle.status();
        npu = handle.value();
        if (cpu.has_value()) {
            auto channel = system.connect(*cpu, *npu);
            if (!channel.isOk())
                return channel.status();
            npu_channel = std::move(channel.value());
        }
    }

    for (const auto &op : program.ops) {
        switch (op.kind) {
          case MonoOp::Kind::Cpu: {
            auto out = system.ecall(*cpu, op.fn, op.args);
            if (!out.isOk())
                return out.status();
            result.outputs.push_back(out.value());
            break;
          }
          case MonoOp::Kind::Cuda: {
            Result<Bytes> out =
                gpu_channel != nullptr
                    ? gpu_channel->call(op.fn, op.args)
                    : system.ecall(*gpu, op.fn, op.args);
            if (!out.isOk())
                return out.status();
            result.outputs.push_back(out.value());
            break;
          }
          case MonoOp::Kind::Npu: {
            Result<Bytes> out =
                npu_channel != nullptr
                    ? npu_channel->call(op.fn, op.args)
                    : system.ecall(*npu, op.fn, op.args);
            if (!out.isOk())
                return out.status();
            result.outputs.push_back(out.value());
            break;
          }
        }
    }

    if (gpu_channel != nullptr) {
        CRONUS_RETURN_IF_ERROR(gpu_channel->close());
        result.gpuStats = gpu_channel->stats();
    }
    if (npu_channel != nullptr) {
        CRONUS_RETURN_IF_ERROR(npu_channel->close());
        result.npuStats = npu_channel->stats();
    }
    return result;
}

} // namespace cronus::core
