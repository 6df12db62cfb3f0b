#include "scenario.hh"

#include <type_traits>

#include "base/rng.hh"

namespace cronus::fuzz
{

namespace
{

struct OpKindEntry
{
    OpKind kind;
    const char *name;
};

const OpKindEntry kOpKinds[] = {
    {OpKind::CpuAccumulate, "cpu_accumulate"},
    {OpKind::GpuFill, "gpu_fill"},
    {OpKind::GpuVecAdd, "gpu_vec_add"},
    {OpKind::GpuSaxpy, "gpu_saxpy"},
    {OpKind::GpuDrain, "gpu_drain"},
    {OpKind::GpuReadback, "gpu_readback"},
    {OpKind::NpuWrite, "npu_write"},
    {OpKind::NpuReadback, "npu_readback"},
    {OpKind::PipeWrite, "pipe_write"},
    {OpKind::PipeRead, "pipe_read"},
    {OpKind::Checkpoint, "checkpoint"},
    {OpKind::ChurnCreate, "churn_create"},
    {OpKind::ChurnDestroy, "churn_destroy"},
    {OpKind::AttackReplay, "attack_replay"},
    {OpKind::AttackTamperArgs, "attack_tamper_args"},
    {OpKind::AttackUndeclaredCall, "attack_undeclared_call"},
    {OpKind::AttackSmemTamper, "attack_smem_tamper"},
    {OpKind::AttackShootdownToctou, "attack_shootdown_toctou"},
    {OpKind::AttackStaleAttestation, "attack_stale_attestation"},
    {OpKind::AttackSmmuStreamReuse, "attack_smmu_stream_reuse"},
    {OpKind::FleetCall, "fleet_call"},
    {OpKind::FleetCheckpoint, "fleet_checkpoint"},
    {OpKind::Migrate, "migrate"},
    {OpKind::NodeKill, "node_kill"},
    {OpKind::NodeRecover, "node_recover"},
    {OpKind::NodeDrain, "node_drain"},
};

const char *
faultKindName(FaultSpec::Kind k)
{
    switch (k) {
      case FaultSpec::Kind::Kill: return "kill";
      case FaultSpec::Kind::FailAccess: return "fail_access";
      case FaultSpec::Kind::CorruptHeader: return "corrupt_header";
      case FaultSpec::Kind::SkewClock: return "skew_clock";
      case FaultSpec::Kind::MigrationKill: return "migration_kill";
    }
    return "?";
}

Result<FaultSpec::Kind>
faultKindFromName(const std::string &name)
{
    if (name == "kill")
        return FaultSpec::Kind::Kill;
    if (name == "fail_access")
        return FaultSpec::Kind::FailAccess;
    if (name == "corrupt_header")
        return FaultSpec::Kind::CorruptHeader;
    if (name == "skew_clock")
        return FaultSpec::Kind::SkewClock;
    if (name == "migration_kill")
        return FaultSpec::Kind::MigrationKill;
    return Status(ErrorCode::InvalidArgument,
                  "unknown fault kind '" + name + "'");
}

Result<OpKind>
opKindFromName(const std::string &name)
{
    for (const auto &entry : kOpKinds) {
        if (name == entry.name)
            return entry.kind;
    }
    return Status(ErrorCode::InvalidArgument,
                  "unknown op kind '" + name + "'");
}

bool
opTargetsEnclave(OpKind k)
{
    switch (k) {
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
      case OpKind::FleetCall:
      case OpKind::FleetCheckpoint:
      case OpKind::Migrate:
        return true;
      default:
        return false;
    }
}

bool
opUsesPipe(OpKind k)
{
    return k == OpKind::PipeWrite || k == OpKind::PipeRead;
}

constexpr bool kOptional = true;

/**
 * Read field @p key into @p out. A missing or wrongly typed field is
 * InvalidArgument; an absent @p optional one keeps @p out's default.
 */
template <typename T>
Status
readField(const JsonValue &v, const std::string &key, T &out,
          bool optional = false)
{
    if (optional && !v.has(key))
        return Status::ok();
    if constexpr (std::is_same_v<T, std::string>) {
        auto text = v.getString(key);
        if (!text.isOk())
            return text.status();
        out = text.value();
    } else {
        auto n = v.getInt(key);
        if (!n.isOk())
            return n.status();
        out = static_cast<T>(n.value());
    }
    return Status::ok();
}

} // namespace

const char *
opKindName(OpKind k)
{
    for (const auto &entry : kOpKinds) {
        if (entry.kind == k)
            return entry.name;
    }
    return "?";
}

Bytes
chunkBytes(uint64_t len, uint64_t seed)
{
    Rng rng(seed ^ 0xc4a9b6d2e1f08357ULL);
    Bytes out(len);
    rng.fill(out);
    return out;
}

/* ------------------------------------------------------------------ */
/* Generation                                                          */
/* ------------------------------------------------------------------ */

Scenario
generateScenario(uint64_t seed)
{
    Rng rng(seed ^ 0x5ce4a81fb0d9c237ULL);
    Scenario s;
    s.seed = seed;

    /* Machine shape: 1-4 partitions. */
    s.numGpus = static_cast<uint32_t>(rng.nextBelow(3));
    s.withNpu = rng.nextBelow(2) == 1;

    /* One device enclave per present device, with high probability
     * (a device may sit idle -- partitions without workloads are a
     * scenario too). */
    for (uint32_t g = 0; g < s.numGpus; ++g) {
        if (rng.nextBelow(10) < 8) {
            EnclavePlan plan;
            plan.deviceType = "gpu";
            plan.deviceName = "gpu" + std::to_string(g);
            plan.elems = 8ull << rng.nextBelow(3);  /* 8/16/32 */
            plan.slots = 2ull << rng.nextBelow(3);  /* 2/4/8 */
            plan.slotBytes = 1024ull << rng.nextBelow(2);
            s.enclaves.push_back(plan);
        }
    }
    if (s.withNpu && rng.nextBelow(10) < 8) {
        EnclavePlan plan;
        plan.deviceType = "npu";
        plan.deviceName = "npu0";
        plan.elems = 64 + 32 * rng.nextBelow(5);  /* 64..192 bytes */
        plan.slots = 2ull << rng.nextBelow(3);
        plan.slotBytes = 1024ull << rng.nextBelow(2);
        s.enclaves.push_back(plan);
    }

    if (!s.enclaves.empty() && rng.nextBelow(2) == 1) {
        s.withPipe = true;
        s.pipeEnclave =
            static_cast<uint32_t>(rng.nextBelow(s.enclaves.size()));
        s.pipeCapacity = 4096;
    }

    /* Fault schedule: 0-2 events over the checked-access stream. */
    uint64_t fault_count = rng.nextBelow(3);
    for (uint64_t i = 0; i < fault_count; ++i) {
        FaultSpec f;
        f.nth = 10 + rng.nextBelow(140);
        uint64_t roll = rng.nextBelow(100);
        if (roll < 40 && !s.enclaves.empty()) {
            f.kind = FaultSpec::Kind::Kill;
            f.victim =
                s.enclaves[rng.nextBelow(s.enclaves.size())]
                    .deviceName;
        } else if (roll < 65) {
            f.kind = FaultSpec::Kind::FailAccess;
        } else if (roll < 85 && !s.enclaves.empty()) {
            f.kind = FaultSpec::Kind::CorruptHeader;
            f.channel = static_cast<uint32_t>(
                rng.nextBelow(s.enclaves.size()));
            f.field = rng.nextBelow(2) == 0 ? "rid" : "sid";
            f.value = rng.nextBelow(32);
        } else {
            f.kind = FaultSpec::Kind::SkewClock;
            f.skewNs = (1 + rng.nextBelow(100)) * 10 * kNsPerUs;
        }
        s.faults.push_back(f);
    }

    /* Operation list, drawn from the kinds this machine supports. */
    std::vector<uint32_t> gpus, npus;
    for (uint32_t i = 0; i < s.enclaves.size(); ++i) {
        if (s.enclaves[i].deviceType == "gpu")
            gpus.push_back(i);
        else
            npus.push_back(i);
    }
    struct Weighted
    {
        OpKind kind;
        uint32_t weight;
    };
    std::vector<Weighted> menu = {
        {OpKind::CpuAccumulate, 4},
        {OpKind::Checkpoint, 1},
        {OpKind::AttackReplay, 1},
        {OpKind::AttackTamperArgs, 1},
        {OpKind::AttackUndeclaredCall, 1},
        {OpKind::AttackStaleAttestation, 1},
    };
    if (!gpus.empty()) {
        menu.push_back({OpKind::GpuFill, 5});
        menu.push_back({OpKind::GpuVecAdd, 3});
        menu.push_back({OpKind::GpuSaxpy, 2});
        menu.push_back({OpKind::GpuDrain, 2});
        menu.push_back({OpKind::GpuReadback, 5});
    }
    if (!npus.empty()) {
        menu.push_back({OpKind::NpuWrite, 3});
        menu.push_back({OpKind::NpuReadback, 3});
    }
    if (!s.enclaves.empty()) {
        menu.push_back({OpKind::ChurnCreate, 2});
        menu.push_back({OpKind::ChurnDestroy, 2});
        menu.push_back({OpKind::AttackSmemTamper, 1});
        menu.push_back({OpKind::AttackShootdownToctou, 1});
        menu.push_back({OpKind::AttackSmmuStreamReuse, 1});
    }
    if (s.withPipe) {
        menu.push_back({OpKind::PipeWrite, 2});
        menu.push_back({OpKind::PipeRead, 2});
    }
    uint32_t total_weight = 0;
    for (const auto &w : menu)
        total_weight += w.weight;

    uint64_t op_count = 6 + rng.nextBelow(25);
    for (uint64_t i = 0; i < op_count; ++i) {
        uint64_t roll = rng.nextBelow(total_weight);
        OpKind kind = menu.back().kind;
        for (const auto &w : menu) {
            if (roll < w.weight) {
                kind = w.kind;
                break;
            }
            roll -= w.weight;
        }

        ScenarioOp op;
        op.kind = kind;
        switch (kind) {
          case OpKind::CpuAccumulate:
            op.a = 1 + rng.nextBelow(100);
            break;
          case OpKind::GpuFill:
            op.enclave = gpus[rng.nextBelow(gpus.size())];
            op.a = rng.nextBelow(3);
            op.b = 1 + rng.nextBelow(7);
            break;
          case OpKind::GpuVecAdd:
            op.enclave = gpus[rng.nextBelow(gpus.size())];
            break;
          case OpKind::GpuSaxpy:
            op.enclave = gpus[rng.nextBelow(gpus.size())];
            op.b = 1 + rng.nextBelow(3);
            break;
          case OpKind::GpuDrain:
          case OpKind::GpuReadback:
            op.enclave = gpus[rng.nextBelow(gpus.size())];
            if (kind == OpKind::GpuReadback)
                op.a = rng.nextBelow(3);
            break;
          case OpKind::NpuWrite: {
            op.enclave = npus[rng.nextBelow(npus.size())];
            uint64_t cap = s.enclaves[op.enclave].elems;
            op.b = 8 + rng.nextBelow(25);      /* len 8..32 */
            op.a = rng.nextBelow(cap - op.b + 1);  /* offset */
            op.c = rng.next();                 /* payload seed */
            break;
          }
          case OpKind::NpuReadback:
            op.enclave = npus[rng.nextBelow(npus.size())];
            break;
          case OpKind::PipeWrite:
            op.a = 8 + rng.nextBelow(57);  /* len 8..64 */
            op.b = rng.next();             /* payload seed */
            break;
          case OpKind::PipeRead:
            op.a = 8 + rng.nextBelow(120);
            break;
          case OpKind::ChurnCreate:
          case OpKind::ChurnDestroy:
          case OpKind::AttackSmemTamper:
          case OpKind::AttackShootdownToctou:
          case OpKind::AttackSmmuStreamReuse:
            op.enclave = static_cast<uint32_t>(
                rng.nextBelow(s.enclaves.size()));
            break;
          case OpKind::AttackStaleAttestation:
            op.a = 1 + rng.nextBelow(1u << 20);  /* challenge seed */
            break;
          case OpKind::Checkpoint:
          case OpKind::AttackReplay:
          case OpKind::AttackTamperArgs:
          case OpKind::AttackUndeclaredCall:
            break;
          default:
            /* Fleet kinds are never on the single-SoC menu. */
            break;
        }
        s.ops.push_back(op);
    }
    return s;
}

Scenario
generateClusterScenario(uint64_t seed)
{
    /* Distinct stream constant: a cluster scenario for seed N is
     * unrelated to the single-SoC scenario for seed N. */
    Rng rng(seed ^ 0x9d3f72c8a65b01eeULL);
    Scenario s;
    s.seed = seed;
    s.numNodes = 2 + static_cast<uint32_t>(rng.nextBelow(3));
    s.numGpus = 0;
    s.withNpu = false;

    /* Fleet enclaves: CPU accumulate workers, placed by the fleet
     * dispatcher. elems/slots/slotBytes are unused in the fleet
     * dialect but kept well-formed for the JSON round trip. */
    uint64_t enclave_count = 2 + rng.nextBelow(4);
    for (uint64_t i = 0; i < enclave_count; ++i) {
        EnclavePlan plan;
        plan.deviceType = "cpu";
        plan.deviceName = "cpu";
        plan.elems = 0;
        s.enclaves.push_back(plan);
    }

    /* Fault schedule: 0-2 migration-window node kills. */
    static const char *kStages[] = {"snapshot", "reattest",
                                    "transfer", "restore",
                                    "replay",   "retire"};
    uint64_t fault_count = rng.nextBelow(3);
    for (uint64_t i = 0; i < fault_count; ++i) {
        FaultSpec f;
        f.kind = FaultSpec::Kind::MigrationKill;
        f.nth = 1 + rng.nextBelow(4);
        f.stage = kStages[rng.nextBelow(6)];
        f.killDst = rng.nextBelow(2) == 1;
        s.faults.push_back(f);
    }

    struct Weighted
    {
        OpKind kind;
        uint32_t weight;
    };
    const Weighted menu[] = {
        {OpKind::FleetCall, 8},    {OpKind::FleetCheckpoint, 2},
        {OpKind::Migrate, 4},      {OpKind::NodeKill, 2},
        {OpKind::NodeRecover, 2},  {OpKind::NodeDrain, 1},
    };
    uint32_t total_weight = 0;
    for (const auto &w : menu)
        total_weight += w.weight;

    uint64_t op_count = 8 + rng.nextBelow(20);
    for (uint64_t i = 0; i < op_count; ++i) {
        uint64_t roll = rng.nextBelow(total_weight);
        OpKind kind = menu[0].kind;
        for (const auto &w : menu) {
            if (roll < w.weight) {
                kind = w.kind;
                break;
            }
            roll -= w.weight;
        }
        ScenarioOp op;
        op.kind = kind;
        switch (kind) {
          case OpKind::FleetCall:
            op.enclave = static_cast<uint32_t>(
                rng.nextBelow(s.enclaves.size()));
            op.a = 1 + rng.nextBelow(100);
            break;
          case OpKind::FleetCheckpoint:
            op.enclave = static_cast<uint32_t>(
                rng.nextBelow(s.enclaves.size()));
            break;
          case OpKind::Migrate:
            op.enclave = static_cast<uint32_t>(
                rng.nextBelow(s.enclaves.size()));
            op.a = rng.nextBelow(s.numNodes);
            break;
          case OpKind::NodeKill:
          case OpKind::NodeRecover:
          case OpKind::NodeDrain:
            op.a = rng.nextBelow(s.numNodes);
            break;
          default:
            break;
        }
        s.ops.push_back(op);
    }
    return s;
}

/* ------------------------------------------------------------------ */
/* JSON round trip                                                     */
/* ------------------------------------------------------------------ */

JsonValue
Scenario::toJson() const
{
    JsonObject root;
    root["seed"] = static_cast<int64_t>(seed);
    /* Written only for cluster scenarios: single-node documents stay
     * byte-identical to the pre-cluster format. */
    if (numNodes != 1)
        root["num_nodes"] = static_cast<int64_t>(numNodes);
    root["num_gpus"] = static_cast<int64_t>(numGpus);
    root["with_npu"] = withNpu;
    root["with_pipe"] = withPipe;
    root["pipe_enclave"] = static_cast<int64_t>(pipeEnclave);
    root["pipe_capacity"] = static_cast<int64_t>(pipeCapacity);

    JsonArray enclave_list;
    for (const EnclavePlan &e : enclaves) {
        JsonObject o;
        o["type"] = e.deviceType;
        o["device"] = e.deviceName;
        o["elems"] = static_cast<int64_t>(e.elems);
        o["slots"] = static_cast<int64_t>(e.slots);
        o["slot_bytes"] = static_cast<int64_t>(e.slotBytes);
        enclave_list.push_back(JsonValue(o));
    }
    root["enclaves"] = JsonValue(enclave_list);

    JsonArray fault_list;
    for (const FaultSpec &f : faults) {
        JsonObject o;
        o["kind"] = faultKindName(f.kind);
        o["nth"] = static_cast<int64_t>(f.nth);
        switch (f.kind) {
          case FaultSpec::Kind::Kill:
            o["victim"] = f.victim;
            break;
          case FaultSpec::Kind::CorruptHeader:
            o["channel"] = static_cast<int64_t>(f.channel);
            o["field"] = f.field;
            o["value"] = static_cast<int64_t>(f.value);
            break;
          case FaultSpec::Kind::SkewClock:
            o["skew_ns"] = static_cast<int64_t>(f.skewNs);
            break;
          case FaultSpec::Kind::MigrationKill:
            o["stage"] = f.stage;
            o["kill_dst"] = f.killDst;
            break;
          case FaultSpec::Kind::FailAccess:
            break;
        }
        fault_list.push_back(JsonValue(o));
    }
    root["faults"] = JsonValue(fault_list);

    JsonArray op_list;
    for (const ScenarioOp &op : ops) {
        JsonObject o;
        o["kind"] = opKindName(op.kind);
        if (opTargetsEnclave(op.kind))
            o["enclave"] = static_cast<int64_t>(op.enclave);
        if (op.a != 0)
            o["a"] = static_cast<int64_t>(op.a);
        if (op.b != 0)
            o["b"] = static_cast<int64_t>(op.b);
        if (op.c != 0)
            o["c"] = static_cast<int64_t>(op.c);
        op_list.push_back(JsonValue(o));
    }
    root["ops"] = JsonValue(op_list);
    return JsonValue(root);
}

Result<Scenario>
Scenario::fromJson(const JsonValue &v)
{
    if (!v.isObject())
        return Status(ErrorCode::InvalidArgument,
                      "scenario must be a JSON object");
    Scenario s;
    CRONUS_RETURN_IF_ERROR(readField(v, "seed", s.seed));
    CRONUS_RETURN_IF_ERROR(
        readField(v, "num_nodes", s.numNodes, kOptional));
    CRONUS_RETURN_IF_ERROR(readField(v, "num_gpus", s.numGpus));
    s.withNpu = v["with_npu"].isBool() && v["with_npu"].asBool();
    s.withPipe = v["with_pipe"].isBool() && v["with_pipe"].asBool();
    CRONUS_RETURN_IF_ERROR(readField(v, "pipe_enclave", s.pipeEnclave));
    CRONUS_RETURN_IF_ERROR(
        readField(v, "pipe_capacity", s.pipeCapacity, kOptional));

    auto enclave_list = v.getArray("enclaves");
    if (!enclave_list.isOk())
        return enclave_list.status();
    for (const JsonValue &e : enclave_list.value()) {
        EnclavePlan plan;
        CRONUS_RETURN_IF_ERROR(readField(e, "type", plan.deviceType));
        CRONUS_RETURN_IF_ERROR(readField(e, "device", plan.deviceName));
        CRONUS_RETURN_IF_ERROR(readField(e, "elems", plan.elems));
        CRONUS_RETURN_IF_ERROR(readField(e, "slots", plan.slots));
        CRONUS_RETURN_IF_ERROR(
            readField(e, "slot_bytes", plan.slotBytes));
        s.enclaves.push_back(plan);
    }

    auto fault_list = v.getArray("faults");
    if (!fault_list.isOk())
        return fault_list.status();
    for (const JsonValue &fv : fault_list.value()) {
        FaultSpec f;
        auto kind_name = fv.getString("kind");
        if (!kind_name.isOk())
            return kind_name.status();
        auto kind = faultKindFromName(kind_name.value());
        if (!kind.isOk())
            return kind.status();
        f.kind = kind.value();
        CRONUS_RETURN_IF_ERROR(readField(fv, "nth", f.nth));
        CRONUS_RETURN_IF_ERROR(
            readField(fv, "victim", f.victim, kOptional));
        CRONUS_RETURN_IF_ERROR(
            readField(fv, "channel", f.channel, kOptional));
        CRONUS_RETURN_IF_ERROR(
            readField(fv, "field", f.field, kOptional));
        CRONUS_RETURN_IF_ERROR(
            readField(fv, "value", f.value, kOptional));
        CRONUS_RETURN_IF_ERROR(
            readField(fv, "skew_ns", f.skewNs, kOptional));
        CRONUS_RETURN_IF_ERROR(
            readField(fv, "stage", f.stage, kOptional));
        if (fv.has("kill_dst"))
            f.killDst =
                fv["kill_dst"].isBool() && fv["kill_dst"].asBool();
        s.faults.push_back(f);
    }

    auto op_list = v.getArray("ops");
    if (!op_list.isOk())
        return op_list.status();
    for (const JsonValue &ov : op_list.value()) {
        ScenarioOp op;
        auto kind_name = ov.getString("kind");
        if (!kind_name.isOk())
            return kind_name.status();
        auto kind = opKindFromName(kind_name.value());
        if (!kind.isOk())
            return kind.status();
        op.kind = kind.value();
        CRONUS_RETURN_IF_ERROR(
            readField(ov, "enclave", op.enclave, kOptional));
        CRONUS_RETURN_IF_ERROR(readField(ov, "a", op.a, kOptional));
        CRONUS_RETURN_IF_ERROR(readField(ov, "b", op.b, kOptional));
        CRONUS_RETURN_IF_ERROR(readField(ov, "c", op.c, kOptional));
        s.ops.push_back(op);
    }
    return s;
}

Result<Scenario>
Scenario::parse(const std::string &text)
{
    auto doc = parseJson(text);
    if (!doc.isOk())
        return doc.status();
    const JsonValue &v = doc.value();
    if (v.isObject() && v.has("scenario"))
        return fromJson(v["scenario"]);
    return fromJson(v);
}

void
Scenario::normalize()
{
    /* Which enclaves does anything still refer to? */
    std::vector<bool> used(enclaves.size(), false);
    bool pipe_used = false;
    for (const ScenarioOp &op : ops) {
        if (opTargetsEnclave(op.kind) && op.enclave < used.size())
            used[op.enclave] = true;
        if (opUsesPipe(op.kind))
            pipe_used = true;
    }
    if (withPipe && pipe_used && pipeEnclave < used.size())
        used[pipeEnclave] = true;
    for (const FaultSpec &f : faults) {
        if (f.kind == FaultSpec::Kind::CorruptHeader &&
            f.channel < used.size())
            used[f.channel] = true;
        if (f.kind == FaultSpec::Kind::Kill) {
            for (size_t i = 0; i < enclaves.size(); ++i) {
                if (enclaves[i].deviceName == f.victim)
                    used[i] = true;
            }
        }
    }

    std::vector<uint32_t> remap(enclaves.size(), 0);
    std::vector<EnclavePlan> kept;
    for (size_t i = 0; i < enclaves.size(); ++i) {
        if (used[i]) {
            remap[i] = static_cast<uint32_t>(kept.size());
            kept.push_back(enclaves[i]);
        }
    }
    enclaves = std::move(kept);
    for (ScenarioOp &op : ops) {
        if (opTargetsEnclave(op.kind) && op.enclave < remap.size())
            op.enclave = remap[op.enclave];
    }
    for (FaultSpec &f : faults) {
        if (f.kind == FaultSpec::Kind::CorruptHeader &&
            f.channel < remap.size())
            f.channel = remap[f.channel];
    }
    if (!pipe_used)
        withPipe = false;
    else if (withPipe && pipeEnclave < remap.size())
        pipeEnclave = remap[pipeEnclave];

    /* Shrink the machine to the devices that remain referenced. */
    uint32_t max_gpu = 0;
    bool any_gpu = false, any_npu = false;
    for (const EnclavePlan &e : enclaves) {
        if (e.deviceType == "gpu") {
            any_gpu = true;
            uint32_t idx = static_cast<uint32_t>(
                std::stoul(e.deviceName.substr(3)));
            max_gpu = std::max(max_gpu, idx);
        } else if (e.deviceType == "npu") {
            any_npu = true;
        }
    }
    numGpus = any_gpu ? max_gpu + 1 : 0;
    withNpu = any_npu;

    /* Faults naming devices that no longer exist cannot arm. */
    std::vector<FaultSpec> kept_faults;
    for (const FaultSpec &f : faults) {
        if (f.kind == FaultSpec::Kind::Kill) {
            bool present = false;
            for (const EnclavePlan &e : enclaves)
                present = present || e.deviceName == f.victim;
            if (!present)
                continue;
        }
        if (f.kind == FaultSpec::Kind::CorruptHeader &&
            f.channel >= enclaves.size())
            continue;
        kept_faults.push_back(f);
    }
    faults = std::move(kept_faults);
}

} // namespace cronus::fuzz
