#include "reference.hh"

#include <cstring>
#include <deque>

#include "core/shared_region.hh"
#include "hw/types.hh"

namespace cronus::fuzz
{

namespace
{

Bytes
floatsToBytes(const std::vector<float> &v)
{
    Bytes out(v.size() * sizeof(float));
    std::memcpy(out.data(), v.data(), out.size());
    return out;
}

Bytes
u64Output(uint64_t v)
{
    ByteWriter w;
    w.putU64(v);
    return w.take();
}

struct GpuModel
{
    std::vector<float> buf[3];
};

/**
 * Fleet-aware reference model for cluster scenarios. Mirrors the
 * observables of the fault-free fleet: per-enclave accumulate
 * totals (which survive migration and node loss by construction --
 * watermark + journal replay), plus the node up/down set needed to
 * predict lifecycle op codes (killNode's last-usable-node refusal,
 * migrate to a Down destination, drain of the last usable node).
 * Quarantine never occurs fault-free, so it is not modelled; the
 * runner taints lifecycle records once a fleet fault has fired.
 */
std::vector<ExpectedOp>
clusterReferenceRun(const Scenario &sc)
{
    const size_t count = sc.enclaves.size();
    std::vector<uint64_t> totals(count, 0);
    std::vector<bool> down(sc.numNodes, false);

    auto upNodes = [&] {
        uint32_t up = 0;
        for (bool d : down)
            up += d ? 0 : 1;
        return up;
    };

    std::vector<ExpectedOp> out;
    out.reserve(sc.ops.size());
    for (const ScenarioOp &op : sc.ops) {
        ExpectedOp exp;
        size_t e = count ? op.enclave % count : 0;
        uint32_t node = sc.numNodes
                            ? static_cast<uint32_t>(op.a) %
                                  sc.numNodes
                            : 0;
        switch (op.kind) {
          case OpKind::FleetCall:
            if (count == 0) {
                exp.code = "InvalidArgument";
                break;
            }
            totals[e] += op.a;
            exp.output = u64Output(totals[e]);
            break;
          case OpKind::FleetCheckpoint:
            if (count == 0)
                exp.code = "InvalidArgument";
            break;
          case OpKind::Migrate:
            if (count == 0)
                exp.code = "InvalidArgument";
            else if (down[node])
                /* Snapshot-stage abort: destination not placeable. */
                exp.code = "InvalidState";
            break;
          case OpKind::NodeKill:
            if (down[node])
                break;  /* idempotent Ok */
            if (upNodes() <= 1) {
                exp.code = "InvalidState";
                break;
            }
            down[node] = true;
            break;
          case OpKind::NodeRecover:
            down[node] = false;
            break;
          case OpKind::NodeDrain:
            if (!down[node] && upNodes() <= 1)
                exp.code = "InvalidState";
            break;
          default:
            /* Non-fleet kinds are inert in the fleet dialect; the
             * runner reports them Unsupported. */
            exp.code = "Unsupported";
            break;
        }
        out.push_back(std::move(exp));
    }
    return out;
}

} // namespace

std::vector<ExpectedOp>
referenceRun(const Scenario &sc)
{
    if (sc.numNodes > 1)
        return clusterReferenceRun(sc);
    /* Per-enclave state, zero-initialized like the real devices
     * (VRAM and NPU buffers are scrubbed allocations). */
    std::vector<GpuModel> gpus(sc.enclaves.size());
    std::vector<Bytes> npus(sc.enclaves.size());
    for (size_t i = 0; i < sc.enclaves.size(); ++i) {
        if (sc.enclaves[i].deviceType == "gpu") {
            for (auto &b : gpus[i].buf)
                b.assign(sc.enclaves[i].elems, 0.0f);
        } else {
            npus[i].assign(sc.enclaves[i].elems, 0);
        }
    }

    uint64_t driverTotal = 0;

    /* Churn enclaves per plan index: the runner reports the live
     * count after each create/destroy, so a leaked or double-freed
     * churn enclave shows up as an output mismatch. */
    std::vector<uint64_t> churnLive(sc.enclaves.size(), 0);

    /* Pipe: same effective capacity as SharedPipe::create, whose
     * region page-aligns header + capacity and gives the remainder
     * to data. */
    uint64_t pipeCap = 0;
    if (sc.withPipe)
        pipeCap = hw::pageAlignUp(core::SharedRegion::kPayloadOff +
                                  sc.pipeCapacity) -
                  core::SharedRegion::kPayloadOff;
    std::deque<uint8_t> pipeFifo;

    std::vector<ExpectedOp> out;
    out.reserve(sc.ops.size());
    auto validFor = [&sc](const ScenarioOp &op,
                          const char *type) {
        return op.enclave < sc.enclaves.size() &&
               sc.enclaves[op.enclave].deviceType == type;
    };

    for (const ScenarioOp &op : sc.ops) {
        ExpectedOp exp;
        bool valid = true;
        switch (op.kind) {
          case OpKind::GpuFill:
          case OpKind::GpuVecAdd:
          case OpKind::GpuSaxpy:
          case OpKind::GpuDrain:
          case OpKind::GpuReadback:
            valid = validFor(op, "gpu");
            break;
          case OpKind::NpuWrite:
          case OpKind::NpuReadback:
            valid = validFor(op, "npu");
            break;
          case OpKind::Checkpoint:
          case OpKind::ChurnCreate:
          case OpKind::ChurnDestroy:
            valid = op.enclave < sc.enclaves.size();
            break;
          default:
            break;
        }
        switch (op.kind) {
          case OpKind::CpuAccumulate:
            driverTotal += op.a;
            exp.output = u64Output(driverTotal);
            break;
          case OpKind::GpuFill: {
            if (!valid)
                break;
            auto &b = gpus[op.enclave].buf[gpuBufIndex(op.a)];
            std::fill(b.begin(), b.end(),
                      static_cast<float>(op.b));
            break;
          }
          case OpKind::GpuVecAdd: {
            if (!valid)
                break;
            GpuModel &g = gpus[op.enclave];
            for (size_t i = 0; i < g.buf[2].size(); ++i)
                g.buf[2][i] = g.buf[0][i] + g.buf[1][i];
            break;
          }
          case OpKind::GpuSaxpy: {
            if (!valid)
                break;
            GpuModel &g = gpus[op.enclave];
            float a = static_cast<float>(op.b);
            for (size_t i = 0; i < g.buf[1].size(); ++i)
                g.buf[1][i] += a * g.buf[0][i];
            break;
          }
          case OpKind::GpuDrain:
            break;
          case OpKind::GpuReadback:
            if (valid)
                exp.output = floatsToBytes(
                    gpus[op.enclave].buf[gpuBufIndex(op.a)]);
            break;
          case OpKind::NpuWrite: {
            if (!valid)
                break;
            uint64_t off = 0, len = 0;
            npuSpan(sc.enclaves[op.enclave].elems, op.a, op.b, &off,
                    &len);
            Bytes chunk = chunkBytes(len, op.c);
            std::copy(chunk.begin(), chunk.end(),
                      npus[op.enclave].begin() + off);
            break;
          }
          case OpKind::NpuReadback:
            if (valid)
                exp.output = npus[op.enclave];
            break;
          case OpKind::PipeWrite: {
            if (!sc.withPipe) {
                exp.code = "InvalidState";
                break;
            }
            Bytes chunk = chunkBytes(op.a, op.b);
            uint64_t room = pipeCap - pipeFifo.size();
            uint64_t n = std::min<uint64_t>(room, chunk.size());
            pipeFifo.insert(pipeFifo.end(), chunk.begin(),
                            chunk.begin() + n);
            exp.output = u64Output(n);
            break;
          }
          case OpKind::PipeRead: {
            if (!sc.withPipe) {
                exp.code = "InvalidState";
                break;
            }
            uint64_t n =
                std::min<uint64_t>(op.a, pipeFifo.size());
            exp.output.assign(pipeFifo.begin(),
                              pipeFifo.begin() + n);
            pipeFifo.erase(pipeFifo.begin(), pipeFifo.begin() + n);
            break;
          }
          case OpKind::Checkpoint:
            /* Status-only op (sealed bytes are key-dependent). */
            break;
          case OpKind::ChurnCreate:
            if (!valid)
                break;
            exp.output = u64Output(++churnLive[op.enclave]);
            break;
          case OpKind::ChurnDestroy:
            if (!valid)
                break;
            if (churnLive[op.enclave] == 0) {
                exp.code = "InvalidState";
                break;
            }
            exp.output = u64Output(--churnLive[op.enclave]);
            break;
          case OpKind::AttackReplay:
          case OpKind::AttackTamperArgs:
          case OpKind::AttackUndeclaredCall:
          case OpKind::AttackSmemTamper:
          case OpKind::AttackShootdownToctou:
          case OpKind::AttackStaleAttestation:
          case OpKind::AttackSmmuStreamReuse:
            exp.isAttack = true;
            break;
          case OpKind::FleetCall:
          case OpKind::FleetCheckpoint:
          case OpKind::Migrate:
          case OpKind::NodeKill:
          case OpKind::NodeRecover:
          case OpKind::NodeDrain:
            /* Fleet ops in a single-node scenario: unsupported. */
            exp.code = "Unsupported";
            break;
        }
        out.push_back(std::move(exp));
    }
    return out;
}

} // namespace cronus::fuzz
