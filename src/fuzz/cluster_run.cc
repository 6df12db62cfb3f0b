/**
 * @file
 * Fleet runner: executes a cluster scenario (numNodes > 1) on a
 * cluster::Cluster of CPU-only SoCs and produces the same RunReport
 * shape as the single-node runner, plus the fleet verdict
 * (migration outcomes + the convergence oracle).
 *
 * Taint discipline differs from the single-node runner on purpose.
 * A fired fleet fault (a migration-window node kill) makes the
 * *lifecycle* stream unpredictable -- subsequent Migrate / NodeKill
 * / NodeRecover / NodeDrain codes depend on which nodes died -- so
 * those records are tainted. FleetCall and FleetCheckpoint records
 * are deliberately NOT tainted: the frontend-durable watermark +
 * journal must preserve every acked call across any node loss, so
 * their codes and running totals have to keep matching the
 * reference model exactly. That untainted survival is the
 * acked-call-preservation property under test.
 */

#include "base/logging.hh"
#include "cluster/cluster.hh"
#include "cluster/fleet_injector.hh"
#include "obs/trace.hh"
#include "runner.hh"

namespace cronus::fuzz
{

namespace
{

bool
isLifecycleOp(OpKind k)
{
    switch (k) {
      case OpKind::Migrate:
      case OpKind::NodeKill:
      case OpKind::NodeRecover:
      case OpKind::NodeDrain:
        return true;
      default:
        return false;
    }
}

class ClusterRun
{
  public:
    ClusterRun(const Scenario &scenario, const RunOptions &options)
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
                trc.instant(trc.track("fuzz"), "fuzz.op", "fuzz",
                            std::move(targs));
            }

            if (perturbed && isLifecycleOp(op.kind))
                rec.tainted = true;

            SimTime t0 = cl->clock().now();
            runOp(op, rec);
            rec.durNs = cl->clock().now() - t0;

            /* Due AtTime fleet events, then the fleet sweep that
             * re-places enclaves stranded by whatever died. */
            if (injector)
                injector->poll();
            cl->pump();
            applyFired(&rec);
            if (perturbed)
                rec.timeTainted = true;
            rep.records.push_back(rec);
        }
        finish(rep);
        return rep;
    }

  private:
    template <typename Fill>
    void
    note(const char *ev, Fill fill)
    {
        JsonObject o;
        o["ev"] = ev;
        fill(o);
        decisions.push_back(JsonValue(o));
    }

    Status
    setup()
    {
        Logger::instance().setQuiet(true);
        registerFuzzCpuFunctions();
        obs::Tracer::instance().flight().clear();

        cluster::ClusterConfig cc;
        cc.numNodes = sc.numNodes;
        cc.nodeSystem.numGpus = 0;
        cc.nodeSystem.withNpu = false;
        cc.nodeSystem.backend = opts.backend;
        /* Capacity must never be the binding constraint: a drain can
         * legally pile every enclave onto one node, and a same-node
         * migration transiently holds two copies. The reference
         * model predicts migration codes without mirroring memory
         * accounting, so give each partition room for all enclaves
         * plus the transient copy (capacity aborts are covered by a
         * dedicated unit test instead). */
        cc.nodeSystem.partitionMemBytes = 64ull << 20;
        /* Frequent watermarks keep replay journals short and
         * exercise checkpoint + journal-clear under churn. */
        cc.autoCheckpointEvery = 4;
        cl = std::make_unique<cluster::Cluster>(cc);

        cl->dispatcher().setPlacementObserver(
            [this](uint64_t fid, cluster::NodeId node) {
                note("fleet-place", [&](JsonObject &o) {
                    o["fid"] = static_cast<int64_t>(fid);
                    o["node"] = static_cast<int64_t>(node);
                });
            });

        if (opts.withFaults) {
            for (const FaultSpec &f : sc.faults) {
                /* Only migration-window kills arm in the fleet
                 * dialect; SPM-level fault kinds have no per-node
                 * injector here. */
                if (f.kind == FaultSpec::Kind::MigrationKill)
                    plan.killMigration(f.nth, f.stage, f.killDst);
            }
            injector = std::make_unique<cluster::FleetInjector>(
                *cl, plan);
            injector->arm();
        }

        for (size_t i = 0; i < sc.enclaves.size(); ++i) {
            auto fid = cl->placeEnclave(fzCpuManifest(), "fz.so",
                                        fzCpuImage());
            if (!fid.isOk())
                return fid.status();
            fids.push_back(fid.value());
        }
        return Status::ok();
    }

    /** Fold freshly fired fleet events into the taint state. */
    void
    applyFired(OpRecord *rec)
    {
        if (!injector)
            return;
        const auto &log = injector->fired();
        for (; firedSeen < log.size(); ++firedSeen) {
            const cluster::FleetInjector::Firing &f = log[firedSeen];
            note("fleet-fault", [&](JsonObject &o) {
                o["id"] = static_cast<int64_t>(f.eventId);
                o["what"] = f.what;
                o["at_ns"] = static_cast<int64_t>(f.atNs);
            });
            perturbed = true;
            if (rec) {
                rec->tainted = true;
                rec->timeTainted = true;
            }
        }
    }

    void
    runOp(const ScenarioOp &op, OpRecord &rec)
    {
        uint32_t node =
            sc.numNodes ? static_cast<uint32_t>(op.a) % sc.numNodes
                        : 0;
        switch (op.kind) {
          case OpKind::FleetCall: {
            if (fids.empty()) {
                rec.code = "InvalidArgument";
                break;
            }
            ByteWriter w;
            w.putU64(op.a);
            auto r = cl->call(fids[op.enclave % fids.size()],
                              "fz_accumulate", w.take());
            rec.code = errorCodeName(r.code());
            if (r.isOk())
                rec.output = r.value();
            break;
          }
          case OpKind::FleetCheckpoint: {
            if (fids.empty()) {
                rec.code = "InvalidArgument";
                break;
            }
            Status s =
                cl->checkpoint(fids[op.enclave % fids.size()]);
            rec.code = errorCodeName(s.code());
            break;
          }
          case OpKind::Migrate: {
            if (fids.empty()) {
                rec.code = "InvalidArgument";
                break;
            }
            Status s = cl->migrateEnclave(
                fids[op.enclave % fids.size()], node);
            rec.code = errorCodeName(s.code());
            break;
          }
          case OpKind::NodeKill:
            rec.code = errorCodeName(cl->killNode(node).code());
            break;
          case OpKind::NodeRecover:
            rec.code = errorCodeName(cl->recoverNode(node).code());
            break;
          case OpKind::NodeDrain:
            rec.code = errorCodeName(
                cl->drainNode(node, cluster::DrainBudget{}).code());
            break;
          default:
            /* Single-SoC kinds have no fleet meaning. */
            rec.code = "Unsupported";
            break;
        }
    }

    void
    finish(RunReport &rep)
    {
        if (cl) {
            /* Per-enclave liveness: the fleet must end every run
             * with one live, callable copy of each enclave --
             * node kills and aborted migrations included. */
            for (cluster::Fid fid : fids)
                rep.finalDrain.push_back(
                    cl->enclaveAlive(fid) ? "Ok" : "dead");
            rep.enclaveTainted.assign(fids.size(), false);
            rep.enclaveRecovery.assign(fids.size(), "none");

            for (const cluster::MigrationAudit &m :
                 cl->migrations()) {
                std::string line =
                    std::to_string(m.seq) + " fid" +
                    std::to_string(m.fid) + " " +
                    std::to_string(m.src) + "->" +
                    std::to_string(m.dst) + " " + m.outcome +
                    (m.srcAlive ? " src" : "") +
                    (m.dstAlive ? " dst" : "");
                rep.migrationOutcomes.push_back(std::move(line));
                /* Convergence: never two live copies (a clone), and
                 * never a lost enclave. Exactly one of src/dst alive
                 * is the common case; both dead at audit time is
                 * acceptable only when the fleet sweep re-placed the
                 * enclave on a third node (it must then be alive at
                 * end of run -- acked-call preservation across the
                 * re-placement is checked by the reference oracle).
                 * Same-node migrations are excluded: source and
                 * destination are the same copy, so the XOR is
                 * meaningless there. */
                bool oneCopy = m.converged();
                bool recovered = !m.srcAlive && !m.dstAlive &&
                                 cl->enclaveAlive(m.fid);
                if (m.src != m.dst && !oneCopy && !recovered)
                    rep.migrationConsistent = false;
            }

            uint64_t traps = 0;
            for (cluster::NodeId id = 0; id < cl->numNodes(); ++id)
                traps +=
                    cl->node(id).system().trapSignals().size();
            rep.trapCount = traps;
            rep.endTimeNs = cl->clock().now();
        }
        rep.decisions = JsonValue(decisions);
    }

    const Scenario &sc;
    RunOptions opts;

    std::unique_ptr<cluster::Cluster> cl;
    inject::FaultPlan plan{1};
    std::unique_ptr<cluster::FleetInjector> injector;
    std::vector<cluster::Fid> fids;
    size_t firedSeen = 0;
    /** A fleet fault has fired; lifecycle codes and all virtual
     *  times are unpredictable from here on. */
    bool perturbed = false;
    JsonArray decisions;
};

} // namespace

RunReport
runClusterScenario(const Scenario &sc, const RunOptions &opts)
{
    ClusterRun run(sc, opts);
    return run.execute();
}

} // namespace cronus::fuzz
