#include "runner.hh"

#include <cstring>

#include "accel/builtin_kernels.hh"
#include "base/logging.hh"
#include "core/auto_partition.hh"
#include "core/pipe.hh"
#include "core/system.hh"
#include "obs/trace.hh"
#include "recover/supervisor.hh"

namespace cronus::fuzz
{

using namespace core;

/* ---------------- fixtures ---------------- */

/* Non-static: the fleet runner (cluster_run.cc) places the same CPU
 * accumulate workers on every node of its cluster. */

void
registerFuzzCpuFunctions()
{
    auto &reg = CpuFunctionRegistry::instance();
    if (reg.has("fz_echo"))
        return;
    reg.registerFunction("fz_echo", [](CpuCallContext &ctx) {
        ctx.charge(10);
        return Result<Bytes>(ctx.args);
    });
    reg.registerFunction("fz_accumulate", [](CpuCallContext &ctx) {
        ByteReader r(ctx.args);
        auto delta = r.getU64();
        if (!delta.isOk())
            return Result<Bytes>(delta.status());
        uint64_t total = delta.value();
        auto it = ctx.store.find("total");
        if (it != ctx.store.end()) {
            ByteReader prev(it->second);
            total += prev.getU64().value();
        }
        ByteWriter w;
        w.putU64(total);
        ctx.store["total"] = w.data();
        ctx.charge(50);
        return Result<Bytes>(w.take());
    });
}

Bytes
fzCpuImage()
{
    CpuImage image;
    image.exports = {"fz_echo", "fz_accumulate"};
    return image.serialize();
}

std::string
fzCpuManifest()
{
    Manifest m;
    m.deviceType = "cpu";
    m.images["fz.so"] =
        crypto::digestHex(crypto::sha256(fzCpuImage()));
    m.mEcalls = {{"fz_echo", false}, {"fz_accumulate", false}};
    m.memoryBytes = 4ull << 20;
    return m.toJson();
}

namespace
{

Bytes
fzGpuImage()
{
    accel::GpuModuleImage image{
        "fz.cubin", {"fill_f32", "vec_add_f32", "saxpy_f32"}};
    return image.serialize();
}

std::string
fzGpuManifest()
{
    Manifest m;
    m.deviceType = "gpu";
    m.images["fz.cubin"] =
        crypto::digestHex(crypto::sha256(fzGpuImage()));
    for (const auto &fn : CudaRuntime::apiSurface())
        m.mEcalls.push_back(
            {fn, AutoPartitioner::cudaCallIsAsync(fn)});
    m.memoryBytes = 4ull << 20;
    return m.toJson();
}

/**
 * Small-footprint manifest for churn enclaves (256K, vs 4M for the
 * workload enclaves): a generated scenario (<= 30 ops) can never
 * exhaust a 24M partition with them, so ChurnCreate is "Ok" by
 * construction and the reference model needs no quota bookkeeping.
 */
std::string
fzChurnManifest(const std::string &device_type)
{
    Manifest m;
    m.deviceType = device_type;
    if (device_type == "gpu") {
        m.images["fz.cubin"] =
            crypto::digestHex(crypto::sha256(fzGpuImage()));
        for (const auto &fn : CudaRuntime::apiSurface())
            m.mEcalls.push_back(
                {fn, AutoPartitioner::cudaCallIsAsync(fn)});
    } else {
        for (const auto &fn : NpuRuntime::apiSurface())
            m.mEcalls.push_back({fn, false});
    }
    m.memoryBytes = 256ull << 10;
    return m.toJson();
}

std::string
fzNpuManifest()
{
    Manifest m;
    m.deviceType = "npu";
    for (const auto &fn : NpuRuntime::apiSurface())
        m.mEcalls.push_back({fn, false});
    m.memoryBytes = 4ull << 20;
    return m.toJson();
}

uint64_t
floatBits(float f)
{
    uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

/* Stream ids for taint tracking. */
constexpr int kStreamDriver = -1;
constexpr int kStreamPipe = -2;

int
streamOf(const ScenarioOp &op)
{
    switch (op.kind) {
      case OpKind::GpuFill:
      case OpKind::GpuVecAdd:
      case OpKind::GpuSaxpy:
      case OpKind::GpuDrain:
      case OpKind::GpuReadback:
      case OpKind::NpuWrite:
      case OpKind::NpuReadback:
      case OpKind::ChurnCreate:
      case OpKind::ChurnDestroy:
      case OpKind::AttackSmemTamper:
      case OpKind::AttackShootdownToctou:
      case OpKind::AttackSmmuStreamReuse:
        return static_cast<int>(op.enclave);
      case OpKind::PipeWrite:
      case OpKind::PipeRead:
        return kStreamPipe;
      default:
        return kStreamDriver;
    }
}

bool
isDeviceOp(OpKind k)
{
    switch (k) {
      case OpKind::GpuFill:
      case OpKind::GpuVecAdd:
      case OpKind::GpuSaxpy:
      case OpKind::GpuDrain:
      case OpKind::GpuReadback:
      case OpKind::NpuWrite:
      case OpKind::NpuReadback:
        return true;
      default:
        return false;
    }
}

struct EnclaveState
{
    EnclavePlan plan;
    AppHandle handle;
    std::unique_ptr<SrpcChannel> channel;
    uint64_t vas[3] = {0, 0, 0};  ///< gpu buffers
    uint32_t npuBuf = 0;
    bool alive = false;
    bool tainted = false;
};

/** One ephemeral enclave made by ChurnCreate (LIFO per plan). */
struct ChurnEnclave
{
    AppHandle handle;
    std::unique_ptr<SrpcChannel> channel;
};

class Run
{
  public:
    Run(const Scenario &scenario, const RunOptions &options)
        : sc(scenario), opts(options)
    {
    }

    RunReport
    execute()
    {
        RunReport rep;
        Status s = setup();
        if (!s.isOk()) {
            rep.setupOk = false;
            rep.setupError = s.toString();
            finish(rep);
            return rep;
        }
        rep.setupOk = true;

        for (uint32_t i = 0; i < sc.ops.size(); ++i) {
            const ScenarioOp &op = sc.ops[i];
            OpRecord rec;
            rec.index = i;
            rec.kind = op.kind;
            rec.enclave = op.enclave;
            note("op", [&](JsonObject &o) {
                o["i"] = static_cast<int64_t>(i);
                o["kind"] = opKindName(op.kind);
            });
            if (auto &trc = obs::Tracer::instance(); trc.active()) {
                JsonObject targs;
                targs["i"] = static_cast<int64_t>(i);
                targs["kind"] = opKindName(op.kind);
                targs["enclave"] =
                    static_cast<int64_t>(op.enclave);
                trc.instant(trc.track("fuzz"), "fuzz.op", "fuzz",
                            std::move(targs));
            }

            maybeRecover(op);
            int stream = streamOf(op);
            if (streamTainted(stream))
                rec.tainted = true;

            SimTime t0 = clock().now();
            runOp(op, rec);
            rec.durNs = clock().now() - t0;
            applyFired(stream, &rec);
            rep.records.push_back(rec);
        }

        finalDrain(rep);
        teardown();
        finish(rep);
        return rep;
    }

  private:
    SimClock &clock() { return sys->platform().clock(); }

    template <typename Fill>
    void
    note(const char *ev, Fill fill)
    {
        JsonObject o;
        o["ev"] = ev;
        fill(o);
        decisions.push_back(JsonValue(o));
    }

    bool
    streamTainted(int stream) const
    {
        if (stream == kStreamDriver)
            return driverTainted;
        if (stream == kStreamPipe)
            return pipeTainted;
        size_t idx = static_cast<size_t>(stream);
        return idx < states.size() && states[idx].tainted;
    }

    void
    taintStream(int stream)
    {
        if (stream == kStreamDriver)
            driverTainted = true;
        else if (stream == kStreamPipe)
            pipeTainted = true;
        else if (static_cast<size_t>(stream) < states.size())
            states[static_cast<size_t>(stream)].tainted = true;
    }

    /* ---------------- setup ---------------- */

    Status
    setup()
    {
        Logger::instance().setQuiet(true);
        registerFuzzCpuFunctions();
        accel::registerBuiltinKernels();

        /* Scope the flight ring to this run: a dump fired by the
         * auditor or an oracle then holds only this run's tail, not
         * a previous scenario's. (Only the ring -- a Full-mode
         * export trace keeps accumulating.) */
        obs::Tracer::instance().flight().clear();

        CronusConfig cfg;
        cfg.numGpus = sc.numGpus;
        cfg.withNpu = sc.withNpu;
        cfg.backend = opts.backend;
        sys = std::make_unique<CronusSystem>(cfg);
        auditor.attachSpm(sys->spm());
        supervisor = std::make_unique<recover::Supervisor>(*sys);

        sys->dispatcher().setPlacementObserver(
            [this](const std::string &type, const std::string &device,
                   MicroOS *os) {
                note("placement", [&](JsonObject &o) {
                    o["type"] = type;
                    o["device"] = device;
                    o["pid"] =
                        static_cast<int64_t>(os->partitionId());
                });
            });
        sys->setEcallObserver([this](Eid eid, const std::string &fn,
                                     const Status &st,
                                     const Bytes &result) {
            note("ecall", [&](JsonObject &o) {
                o["eid"] = static_cast<int64_t>(eid);
                o["fn"] = fn;
                o["code"] = errorCodeName(st.code());
                o["result_bytes"] =
                    static_cast<int64_t>(result.size());
            });
        });

        auto d =
            sys->createEnclave(fzCpuManifest(), "fz.so", fzCpuImage());
        if (!d.isOk())
            return d.status();
        driver = d.value();

        for (const EnclavePlan &plan : sc.enclaves) {
            EnclaveState st;
            st.plan = plan;
            CRONUS_RETURN_IF_ERROR(buildState(st));
            states.push_back(std::move(st));
            recoveryOutcome.push_back("none");
        }
        churn.resize(states.size());

        if (sc.withPipe && sc.pipeEnclave < states.size()) {
            EnclaveState &reader = states[sc.pipeEnclave];
            PipeConfig pcfg;
            pcfg.capacity = sc.pipeCapacity;
            auto p = SharedPipe::create(
                *driver.host, driver.eid, *reader.handle.host,
                reader.handle.eid, reader.handle.secret, pcfg);
            if (!p.isOk())
                return p.status();
            pipe = std::move(p.value());
        }

        if (opts.withFaults && !sc.faults.empty()) {
            inject::FaultPlan plan(sc.seed);
            for (const FaultSpec &f : sc.faults) {
                switch (f.kind) {
                  case FaultSpec::Kind::Kill: {
                    auto os = sys->mosForDevice(f.victim);
                    if (os.isOk())
                        plan.killOnAccess(
                            f.nth, os.value()->partitionId());
                    break;
                  }
                  case FaultSpec::Kind::FailAccess:
                    plan.failAccess(f.nth);
                    break;
                  case FaultSpec::Kind::CorruptHeader:
                    if (f.channel < states.size())
                        plan.corruptHeader(f.nth, f.field, f.value,
                                           f.channel);
                    break;
                  case FaultSpec::Kind::SkewClock:
                    plan.skewClock(f.nth, f.skewNs);
                    break;
                  case FaultSpec::Kind::MigrationKill:
                    /* Fleet-only fault; inert on a single node. */
                    break;
                }
            }
            injector = std::make_unique<inject::FaultInjector>(
                sys->spm(), std::move(plan));
            for (size_t i = 0; i < states.size(); ++i) {
                injector->attachChannel(*states[i].channel);
                attachEnclave.push_back(i);
            }
            injector->arm();
        }
        return Status::ok();
    }

    /** Create (or re-create) @p st's enclave, channel and buffers. */
    Status
    buildState(EnclaveState &st)
    {
        const EnclavePlan &plan = st.plan;
        auto h = plan.deviceType == "gpu"
                     ? sys->createEnclave(fzGpuManifest(), "fz.cubin",
                                          fzGpuImage(),
                                          plan.deviceName)
                     : sys->createEnclave(fzNpuManifest(), "", Bytes{},
                                          plan.deviceName);
        if (!h.isOk())
            return h.status();
        st.handle = h.value();

        SrpcConfig scfg;
        scfg.slots = plan.slots;
        scfg.slotBytes = plan.slotBytes;
        auto ch = sys->connect(driver, st.handle, scfg);
        if (!ch.isOk())
            return ch.status();
        st.channel = std::move(ch.value());
        auditor.attachChannel(*st.channel);

        if (plan.deviceType == "gpu") {
            for (uint64_t *va : {&st.vas[0], &st.vas[1], &st.vas[2]}) {
                auto r = st.channel->callSync(
                    "cuMemAlloc",
                    CudaRuntime::encodeMemAlloc(plan.elems * 4));
                if (!r.isOk())
                    return r.status();
                auto decoded =
                    CudaRuntime::decodeU64Result(r.value());
                if (!decoded.isOk())
                    return decoded.status();
                *va = decoded.value();
            }
        } else {
            auto r = st.channel->callSync(
                "vtaAllocBuffer",
                NpuRuntime::encodeAllocBuffer(plan.elems));
            if (!r.isOk())
                return r.status();
            ByteReader rd(r.value());
            auto buf = rd.getU32();
            if (!buf.isOk())
                return buf.status();
            st.npuBuf = buf.value();
        }
        st.alive = true;
        return Status::ok();
    }

    /* ---------------- fault bookkeeping ---------------- */

    /**
     * Fold freshly fired fault events into the taint state.
     * @p stream is the stream of the op during which they fired
     * (kStreamDriver if none), @p rec the op record to taint for
     * op-scoped perturbations (may be null during recovery).
     */
    void
    applyFired(int stream, OpRecord *rec)
    {
        if (!injector)
            return;
        const auto &log = injector->fired();
        const auto &events = injector->plan().events();
        for (; firedSeen < log.size(); ++firedSeen) {
            const inject::FiredFault &ff = log[firedSeen];
            note("fault", [&](JsonObject &o) {
                o["id"] = static_cast<int64_t>(ff.eventId);
                o["seq"] = static_cast<int64_t>(ff.seq);
                o["accessor"] = static_cast<int64_t>(ff.accessor);
            });
            /* The firing itself charges panic/trap latency to
             * whatever op was running, even one on a healthy
             * stream. */
            if (rec)
                rec->timeTainted = true;
            if (ff.eventId == 0 || ff.eventId > events.size())
                continue;
            const inject::FaultEvent &ev = events[ff.eventId - 1];
            switch (ev.action.kind) {
              case inject::FaultAction::Kind::KillPartition:
                for (EnclaveState &st : states) {
                    if (st.handle.host != nullptr &&
                        st.handle.host->partitionId() ==
                            ev.action.victim)
                        st.tainted = true;
                }
                if (pipe && sc.pipeEnclave < states.size() &&
                    states[sc.pipeEnclave].handle.host->partitionId() ==
                        ev.action.victim)
                    pipeTainted = true;
                break;
              case inject::FaultAction::Kind::FailAccess:
                taintStream(stream);
                if (rec)
                    rec->tainted = true;
                break;
              case inject::FaultAction::Kind::CorruptHeader: {
                corruptFired = true;
                size_t idx = ev.action.channelIndex;
                if (idx < attachEnclave.size())
                    states[attachEnclave[idx]].tainted = true;
                break;
              }
              case inject::FaultAction::Kind::SkewClock:
                if (rec)
                    rec->tainted = true;
                break;
              case inject::FaultAction::Kind::KillNode:
              case inject::FaultAction::Kind::PartitionLink:
              case inject::FaultAction::Kind::KillMigration:
                /* Fleet-scoped events never fire on the single-node
                 * SPM injector (it filters them out). */
                break;
            }
        }
        if (rec && streamTainted(stream))
            rec->tainted = true;
    }

    /** Supervised recovery before a device op whose channel saw the
     *  peer die: the Supervisor (src/recover/) stages backoff +
     *  scrub + reboot under its restart budget, then the enclave is
     *  stood back up. A quarantined device ends as "gave-up" -- the
     *  expected terminal outcome of a crash-looping plan, not a
     *  liveness bug. */
    void
    maybeRecover(const ScenarioOp &op)
    {
        if (!isDeviceOp(op.kind) || op.enclave >= states.size())
            return;
        EnclaveState &st = states[op.enclave];
        if (!st.alive || !st.channel || !st.channel->failed())
            return;

        graveyard.push_back(std::move(st.channel));
        /* A planned fault can land on the recovery traffic itself;
         * such a failure is the *fault's* doing, not the recovery
         * machinery's, and is recorded as "faulted:" so the liveness
         * oracle does not mistake it for a broken supervisor. */
        size_t fired_before = injector ? injector->fired().size() : 0;
        auto perturbed = [&] {
            return injector && injector->fired().size() > fired_before;
        };
        Status r = supervisor->watch(st.plan.deviceName);
        if (r.isOk())
            r = supervisor->awaitRecovery(st.plan.deviceName);
        note("recover", [&](JsonObject &o) {
            o["device"] = st.plan.deviceName;
            o["code"] = errorCodeName(r.code());
            o["restarts"] = static_cast<int64_t>(
                supervisor->restartsOf(st.plan.deviceName));
        });
        if (r.isOk()) {
            Status rebuilt = buildState(st);
            if (!rebuilt.isOk()) {
                st.alive = false;
                if (perturbed())
                    st.tainted = true;
                recoveryOutcome[op.enclave] =
                    std::string(perturbed() ? "faulted:" : "failed:") +
                    errorCodeName(rebuilt.code());
                note("rebuild-failed", [&](JsonObject &o) {
                    o["device"] = st.plan.deviceName;
                    o["code"] = errorCodeName(rebuilt.code());
                });
            } else {
                recoveryOutcome[op.enclave] = "recovered";
                if (injector) {
                    injector->attachChannel(*st.channel);
                    attachEnclave.push_back(op.enclave);
                }
            }
        } else {
            st.alive = false;
            if (perturbed() &&
                r.code() != ErrorCode::Degraded)
                st.tainted = true;
            recoveryOutcome[op.enclave] =
                r.code() == ErrorCode::Degraded
                    ? "gave-up"
                    : std::string(perturbed() ? "faulted:"
                                              : "failed:") +
                          errorCodeName(r.code());
        }
        /* Fault events can fire on recovery traffic too. */
        applyFired(kStreamDriver, nullptr);
    }

    /* ---------------- op execution ---------------- */

    void
    runOp(const ScenarioOp &op, OpRecord &rec)
    {
        switch (op.kind) {
          case OpKind::CpuAccumulate: {
            ByteWriter w;
            w.putU64(op.a);
            auto r = sys->ecall(driver, "fz_accumulate", w.take());
            rec.code = errorCodeName(r.code());
            if (r.isOk())
                rec.output = r.value();
            break;
          }
          case OpKind::GpuFill:
          case OpKind::GpuVecAdd:
          case OpKind::GpuSaxpy: {
            EnclaveState *st = deviceState(op, rec, "gpu");
            if (st == nullptr)
                break;
            uint64_t n = st->plan.elems;
            Bytes args;
            if (op.kind == OpKind::GpuFill) {
                args = CudaRuntime::encodeLaunchKernel(
                    "fill_f32",
                    {st->vas[gpuBufIndex(op.a)], n,
                     floatBits(static_cast<float>(op.b))},
                    n);
            } else if (op.kind == OpKind::GpuVecAdd) {
                args = opts.plantBug
                           ? CudaRuntime::encodeLaunchKernel(
                                 "fill_f32",
                                 {st->vas[2], n, floatBits(42.0f)}, n)
                           : CudaRuntime::encodeLaunchKernel(
                                 "vec_add_f32",
                                 {st->vas[0], st->vas[1], st->vas[2],
                                  n},
                                 n);
            } else {
                args = CudaRuntime::encodeLaunchKernel(
                    "saxpy_f32",
                    {floatBits(static_cast<float>(op.b)), st->vas[0],
                     st->vas[1], n},
                    n);
            }
            auto r = st->channel->call("cuLaunchKernel", args);
            rec.code = errorCodeName(r.code());
            break;
          }
          case OpKind::GpuDrain: {
            EnclaveState *st = deviceState(op, rec, "gpu");
            if (st == nullptr)
                break;
            rec.code = errorCodeName(st->channel->drain().code());
            break;
          }
          case OpKind::GpuReadback: {
            EnclaveState *st = deviceState(op, rec, "gpu");
            if (st == nullptr)
                break;
            auto r = st->channel->call(
                "cuMemcpyDtoH",
                CudaRuntime::encodeMemcpyDtoH(
                    st->vas[gpuBufIndex(op.a)], st->plan.elems * 4));
            rec.code = errorCodeName(r.code());
            if (r.isOk())
                rec.output = r.value();
            break;
          }
          case OpKind::NpuWrite: {
            EnclaveState *st = deviceState(op, rec, "npu");
            if (st == nullptr)
                break;
            uint64_t off = 0, len = 0;
            npuSpan(st->plan.elems, op.a, op.b, &off, &len);
            auto r = st->channel->call(
                "vtaWriteBuffer",
                NpuRuntime::encodeWriteBuffer(st->npuBuf, off,
                                              chunkBytes(len, op.c)));
            rec.code = errorCodeName(r.code());
            break;
          }
          case OpKind::NpuReadback: {
            EnclaveState *st = deviceState(op, rec, "npu");
            if (st == nullptr)
                break;
            auto r = st->channel->call(
                "vtaReadBuffer",
                NpuRuntime::encodeReadBuffer(st->npuBuf, 0,
                                             st->plan.elems));
            rec.code = errorCodeName(r.code());
            if (r.isOk())
                rec.output = r.value();
            break;
          }
          case OpKind::PipeWrite: {
            if (!pipe) {
                rec.code = "InvalidState";
                rec.tainted = true;
                break;
            }
            auto r = pipe->write(chunkBytes(op.a, op.b));
            rec.code = errorCodeName(r.code());
            if (r.isOk()) {
                ByteWriter w;
                w.putU64(r.value());
                rec.output = w.take();
            }
            break;
          }
          case OpKind::PipeRead: {
            if (!pipe) {
                rec.code = "InvalidState";
                rec.tainted = true;
                break;
            }
            auto r = pipe->read(op.a);
            rec.code = errorCodeName(r.code());
            if (r.isOk())
                rec.output = r.value();
            break;
          }
          case OpKind::Checkpoint: {
            /* The sealed blob depends on per-process key material --
             * record only the status, never the bytes. */
            auto r = sys->checkpointEnclave(driver);
            rec.code = errorCodeName(r.code());
            break;
          }
          case OpKind::ChurnCreate: {
            if (op.enclave >= states.size()) {
                rec.code = "InvalidArgument";
                rec.tainted = true;
                break;
            }
            const EnclavePlan &plan = states[op.enclave].plan;
            auto h = plan.deviceType == "gpu"
                         ? sys->createEnclave(fzChurnManifest("gpu"),
                                              "fz.cubin", fzGpuImage(),
                                              plan.deviceName)
                         : sys->createEnclave(fzChurnManifest("npu"),
                                              "", Bytes{},
                                              plan.deviceName);
            if (!h.isOk()) {
                rec.code = errorCodeName(h.code());
                break;
            }
            ChurnEnclave ce;
            ce.handle = h.value();
            /* The channel is the interesting part: its ring grant and
             * page-table entries are what ChurnDestroy must unwind
             * precisely. Not attached to the auditor/injector --
             * unlike workload channels it does not outlive the op
             * sequence. */
            auto ch = sys->connect(driver, ce.handle);
            if (!ch.isOk()) {
                sys->destroyEnclave(ce.handle);
                rec.code = errorCodeName(ch.code());
                break;
            }
            ce.channel = std::move(ch.value());
            churn[op.enclave].push_back(std::move(ce));
            rec.code = "Ok";
            ByteWriter w;
            w.putU64(churn[op.enclave].size());
            rec.output = w.take();
            break;
          }
          case OpKind::ChurnDestroy: {
            if (op.enclave >= states.size()) {
                rec.code = "InvalidArgument";
                rec.tainted = true;
                break;
            }
            auto &list = churn[op.enclave];
            if (list.empty()) {
                rec.code = "InvalidState";
                break;
            }
            ChurnEnclave ce = std::move(list.back());
            list.pop_back();
            if (ce.channel)
                ce.channel->close();
            Status d = sys->destroyEnclave(ce.handle);
            rec.code = errorCodeName(d.code());
            if (d.isOk()) {
                ByteWriter w;
                w.putU64(list.size());
                rec.output = w.take();
            }
            break;
          }
          case OpKind::AttackReplay: {
            Bytes args = toBytes("fz-replay-probe");
            uint64_t nonce = ++driver.nonce;
            Bytes tag = EnclaveManager::authTag(
                driver.secret, driver.eid, nonce, "fz_echo", args);
            auto &mgr = driver.host->enclaveManager();
            auto first =
                mgr.ecall(driver.eid, "fz_echo", args, nonce, tag);
            auto replay =
                mgr.ecall(driver.eid, "fz_echo", args, nonce, tag);
            rec.code = errorCodeName(replay.code());
            rec.blocked =
                first.isOk() &&
                replay.code() == ErrorCode::IntegrityViolation;
            break;
          }
          case OpKind::AttackTamperArgs: {
            Bytes args = toBytes("amount=1");
            uint64_t nonce = ++driver.nonce;
            Bytes tag = EnclaveManager::authTag(
                driver.secret, driver.eid, nonce, "fz_echo", args);
            auto r = driver.host->enclaveManager().ecall(
                driver.eid, "fz_echo", toBytes("amount=9"), nonce,
                tag);
            rec.code = errorCodeName(r.code());
            rec.blocked = r.code() == ErrorCode::AuthFailed;
            break;
          }
          case OpKind::AttackUndeclaredCall: {
            auto r = sys->ecall(driver, "fz_undeclared", Bytes{});
            rec.code = errorCodeName(r.code());
            rec.blocked = r.code() == ErrorCode::PermissionDenied;
            break;
          }
          case OpKind::AttackSmemTamper: {
            if (op.enclave >= states.size() ||
                !states[op.enclave].channel) {
                rec.code = "InvalidState";
                rec.tainted = true;
                break;
            }
            /* Normal world pokes the ring's Rid field. */
            Status w = sys->normalWorld().write(
                states[op.enclave].channel->ringBase() +
                    SharedRegion::kHeadOff,
                Bytes{0xff, 0xff, 0xff, 0xff});
            rec.code = errorCodeName(w.code());
            rec.blocked = w.code() == ErrorCode::AccessFault;
            break;
          }
          case OpKind::AttackShootdownToctou: {
            if (op.enclave >= states.size() ||
                !states[op.enclave].alive ||
                states[op.enclave].handle.host == nullptr) {
                rec.code = "InvalidState";
                rec.tainted = true;
                break;
            }
            auto &spm = sys->spm();
            tee::PartitionId owner = driver.host->partitionId();
            tee::PartitionId peer =
                states[op.enclave].handle.host->partitionId();
            auto po = spm.partition(owner);
            if (!po.isOk()) {
                rec.code = errorCodeName(po.code());
                rec.tainted = true;
                break;
            }
            /* The driver partition's last page: far above every
             * heap/ring allocation, so sharing it never aliases live
             * data. */
            hw::PhysAddr page = po.value()->memBase +
                                po.value()->memBytes -
                                hw::kPageSize;
            auto gid = spm.sharePages(owner, peer, page, 1);
            if (!gid.isOk()) {
                /* Share refused (failed peer, pinned page after an
                 * unresolved earlier fault) -- the defense under
                 * test never armed. */
                rec.code = errorCodeName(gid.code());
                rec.tainted = true;
                break;
            }
            /* Heat the peer's stage-2 translation: only a precise
             * shootdown can stop the post-revoke read below. */
            spm.read(peer, page, 8);
            spm.read(peer, page, 8);
            Status revoked = spm.revokeGrant(gid.value(), owner);
            auto stale = spm.read(peer, page, 8);
            rec.code = errorCodeName(stale.code());
            rec.blocked = revoked.isOk() &&
                          stale.code() == ErrorCode::AccessFault;
            if (!revoked.isOk()) {
                /* The peer died mid-op (injected kill): resolve the
                 * owner-side pending trap so the grant retires and
                 * the auditor's accounting stays balanced. */
                spm.read(owner, page, 8);
            }
            break;
          }
          case OpKind::AttackStaleAttestation: {
            Bytes stale_challenge = chunkBytes(32, op.a);
            Bytes fresh_challenge =
                chunkBytes(32, op.a ^ 0x517cc1b727220a95ULL);
            auto report = sys->attest(driver, stale_challenge);
            if (!report.isOk()) {
                rec.code = errorCodeName(report.code());
                rec.tainted = true;
                break;
            }
            /* The verifier expects a report bound to its *fresh*
             * challenge; the replayed stale-challenge report must
             * fail freshness, not just signature checks. */
            ClientExpectation expect = sys->expectationFor(driver);
            expect.challenge = fresh_challenge;
            Status v = verifyAttestation(report.value(), expect);
            rec.code = errorCodeName(v.code());
            rec.blocked = v.code() == ErrorCode::AuthFailed;
            break;
          }
          case OpKind::AttackSmmuStreamReuse: {
            if (op.enclave >= states.size() ||
                driver.host == nullptr) {
                rec.code = "InvalidState";
                rec.tainted = true;
                break;
            }
            hw::Device *dev = sys->platform().findDevice(
                states[op.enclave].plan.deviceName);
            auto victim =
                sys->spm().partition(driver.host->partitionId());
            if (dev == nullptr || !victim.isOk()) {
                rec.code = "NotFound";
                rec.tainted = true;
                break;
            }
            /* Force the deputy's stream table into existence --
             * translation is then mandatory even for an idle device
             * (no pass-through hole) -- and aim its DMA at the
             * driver partition's memory. */
            sys->platform().smmu().streamTable(dev->streamId());
            uint8_t probe[16] = {};
            Status s = sys->platform().dmaRead(
                *dev, victim.value()->memBase, probe, sizeof(probe));
            rec.code = errorCodeName(s.code());
            rec.blocked = s.code() == ErrorCode::AccessFault;
            break;
          }
          case OpKind::FleetCall:
          case OpKind::FleetCheckpoint:
          case OpKind::Migrate:
          case OpKind::NodeKill:
          case OpKind::NodeRecover:
          case OpKind::NodeDrain:
            /* Fleet-dialect ops in a single-node scenario (only
             * possible in a hand-edited repro): no fleet to act on. */
            rec.code = "Unsupported";
            break;
        }
    }

    /** Resolve a device op's state; records the error if dead or if
     *  the op family doesn't match the enclave's device type (only
     *  possible in hand-edited repro files). */
    EnclaveState *
    deviceState(const ScenarioOp &op, OpRecord &rec,
                const char *want_type)
    {
        if (op.enclave >= states.size() ||
            states[op.enclave].plan.deviceType != want_type) {
            rec.code = "InvalidArgument";
            rec.tainted = true;
            return nullptr;
        }
        EnclaveState &st = states[op.enclave];
        if (!st.alive || !st.channel) {
            rec.code = "InvalidState";
            rec.tainted = true;
            return nullptr;
        }
        return &st;
    }

    /* ---------------- wrap-up ---------------- */

    void
    finalDrain(RunReport &rep)
    {
        for (size_t i = 0; i < states.size(); ++i) {
            EnclaveState &st = states[i];
            if (!st.alive || !st.channel || st.channel->failed()) {
                rep.finalDrain.push_back("skipped");
                continue;
            }
            Status s = st.channel->drain();
            rep.finalDrain.push_back(errorCodeName(s.code()));
            /* The drain is this enclave's stream traffic: a fault
             * firing here perturbs *its* channel, so taint the
             * enclave (not the driver) or the liveness oracle would
             * flag the perturbed drain of an "untainted" enclave. */
            applyFired(static_cast<int>(i), nullptr);
        }
    }

    void
    teardown()
    {
        for (EnclaveState &st : states) {
            if (st.channel)
                st.channel->close();
        }
        for (auto &dead : graveyard) {
            if (dead)
                dead->close();
        }
        for (auto &list : churn) {
            for (ChurnEnclave &ce : list) {
                if (ce.channel)
                    ce.channel->close();
                sys->destroyEnclave(ce.handle);
            }
        }
        pipe.reset();
        for (EnclaveState &st : states)
            sys->destroyEnclave(st.handle);
        sys->destroyEnclave(driver);
    }

    void
    finish(RunReport &rep)
    {
        if (sys) {
            for (const tee::TrapSignal &t : sys->trapSignals()) {
                note("trap", [&](JsonObject &o) {
                    o["accessor"] = static_cast<int64_t>(t.accessor);
                    o["failed_peer"] =
                        static_cast<int64_t>(t.failedPeer);
                    o["grant"] = static_cast<int64_t>(t.grantId);
                });
            }
            rep.trapCount = sys->trapSignals().size();
            rep.endTimeNs = clock().now();
        }
        rep.finalCheck =
            errorCodeName(auditor.finalCheck().code());
        rep.violations = auditor.violations();
        if (injector)
            rep.faultsFired = injector->fired();
        for (const EnclaveState &st : states)
            rep.enclaveTainted.push_back(st.tainted);
        rep.enclaveRecovery = recoveryOutcome;
        rep.driverTainted = driverTainted;
        rep.pipeTainted = pipeTainted;
        rep.corruptFired = corruptFired;
        rep.decisions = JsonValue(decisions);
    }

    const Scenario &sc;
    RunOptions opts;

    std::unique_ptr<CronusSystem> sys;
    inject::InvariantAuditor auditor;
    std::unique_ptr<recover::Supervisor> supervisor;
    std::unique_ptr<inject::FaultInjector> injector;
    AppHandle driver;
    std::vector<EnclaveState> states;
    /** Live ChurnCreate enclaves, indexed like `states`. */
    std::vector<std::vector<ChurnEnclave>> churn;
    std::vector<std::unique_ptr<SrpcChannel>> graveyard;
    std::unique_ptr<SharedPipe> pipe;

    /** Injector attach order -> enclave index (corrupt targeting). */
    std::vector<size_t> attachEnclave;
    /** Per-enclave supervised-recovery outcome ("none" if never
     *  needed, "recovered", "gave-up", "failed:<code>"). */
    std::vector<std::string> recoveryOutcome;
    size_t firedSeen = 0;
    bool driverTainted = false;
    bool pipeTainted = false;
    bool corruptFired = false;
    JsonArray decisions;
};

} // namespace

std::string
hexBytes(const Bytes &b)
{
    static const char *kHex = "0123456789abcdef";
    std::string out;
    out.reserve(b.size() * 2);
    for (uint8_t byte : b) {
        out.push_back(kHex[byte >> 4]);
        out.push_back(kHex[byte & 0xf]);
    }
    return out;
}

JsonValue
RunReport::toJson(const Scenario &sc, const RunOptions &opts) const
{
    JsonObject root;
    root["schema"] = "cronus-fuzz-trace-v1";
    root["scenario"] = sc.toJson();
    root["with_faults"] = opts.withFaults;
    root["plant_bug"] = opts.plantBug;
    root["setup_ok"] = setupOk;
    if (!setupError.empty())
        root["setup_error"] = setupError;

    JsonArray ops;
    for (const OpRecord &r : records) {
        JsonObject o;
        o["i"] = static_cast<int64_t>(r.index);
        o["kind"] = opKindName(r.kind);
        o["enclave"] = static_cast<int64_t>(r.enclave);
        o["code"] = r.code;
        o["blocked"] = r.blocked;
        o["tainted"] = r.tainted;
        o["time_tainted"] = r.timeTainted;
        o["dur_ns"] = static_cast<int64_t>(r.durNs);
        o["out"] = hexBytes(r.output);
        ops.push_back(JsonValue(o));
    }
    root["ops"] = JsonValue(ops);

    JsonArray drains;
    for (const std::string &d : finalDrain)
        drains.push_back(JsonValue(d));
    root["final_drain"] = JsonValue(drains);

    JsonArray fired;
    for (const inject::FiredFault &f : faultsFired) {
        JsonObject o;
        o["id"] = static_cast<int64_t>(f.eventId);
        o["seq"] = static_cast<int64_t>(f.seq);
        o["accessor"] = static_cast<int64_t>(f.accessor);
        o["t_before"] = static_cast<int64_t>(f.tBefore);
        o["t_after"] = static_cast<int64_t>(f.tAfter);
        o["what"] = f.description;
        fired.push_back(JsonValue(o));
    }
    root["faults_fired"] = JsonValue(fired);

    JsonArray viols;
    for (const inject::Violation &v : violations) {
        JsonObject o;
        o["invariant"] = v.invariant;
        o["detail"] = v.detail;
        viols.push_back(JsonValue(o));
    }
    root["violations"] = JsonValue(viols);
    root["final_check"] = finalCheck;

    JsonArray taints;
    for (bool t : enclaveTainted)
        taints.push_back(JsonValue(t));
    root["enclave_tainted"] = JsonValue(taints);

    JsonArray recoveries;
    for (const std::string &r : enclaveRecovery)
        recoveries.push_back(JsonValue(r));
    root["enclave_recovery"] = JsonValue(recoveries);
    root["driver_tainted"] = driverTainted;
    root["pipe_tainted"] = pipeTainted;
    root["corrupt_fired"] = corruptFired;

    /* Fleet verdict -- written only for cluster scenarios so the
     * single-node trace document stays byte-identical. */
    if (sc.numNodes > 1) {
        JsonArray migs;
        for (const std::string &m : migrationOutcomes)
            migs.push_back(JsonValue(m));
        root["migration_outcomes"] = JsonValue(migs);
        root["migration_consistent"] = migrationConsistent;
    }

    root["trap_count"] = static_cast<int64_t>(trapCount);
    root["end_time_ns"] = static_cast<int64_t>(endTimeNs);
    root["decisions"] = decisions;
    return JsonValue(root);
}

RunReport
runScenario(const Scenario &sc, const RunOptions &opts)
{
    if (sc.numNodes > 1)
        return runClusterScenario(sc, opts);
    Run run(sc, opts);
    return run.execute();
}

} // namespace cronus::fuzz
