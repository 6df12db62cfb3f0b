/**
 * @file
 * Figure 12: multi-SoC fleet under a seeded node-fault plan.
 *
 * Builds a Cluster of 8 CPU SoCs sharing one virtual clock, places
 * 2000 mEnclaves through the FleetDispatcher, and drives rounds of
 * authenticated accumulate calls while a seeded FaultPlan crashes
 * nodes mid-run (via the FleetInjector), operators drain nodes
 * under migration budgets, a link partition severs part of the
 * fabric, and a batch of live migrations rebalances the survivors.
 *
 * The bench keeps its own *acked-call ledger*: every call the fleet
 * acked is mirrored into an expected running total per enclave, and
 * after every perturbation -- node kill, drain, migration,
 * partition -- the next call's returned total must extend that
 * ledger exactly. Any deviation is a lost (or doubled) acked call
 * and the bench exits nonzero; the same self-audit requires every
 * enclave alive at the end and every cross-node migration to have
 * converged (one live copy, or a fleet re-placement).
 *
 * Everything is virtual time, so two runs are byte-identical and
 * bench/golden/ pins the stdout, every fleet counter and the exact
 * end time included. `--smoke` shrinks enclave count and rounds for
 * the tier-1 lane (the node count stays at 8 so the fault plan keeps
 * its shape). It is the last reduced-scale mode: a Release build on a
 * 4-vCPU host runs the full bench in 10-12 s (`--smoke` in ~2 s),
 * and a gprof profile of the full run puts 99% of the sampled time
 * in crypto::reduce512, the binary reduction under every mulMod.
 * The change that lands the p = 2^255-19 fold reduction makes the
 * full run cheap enough for tier-1, and deletes `--smoke`. The
 * wall-clock note goes to stderr so stdout never depends on the
 * host.
 */

#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cluster/cluster.hh"
#include "cluster/fleet_injector.hh"
#include "core/manifest.hh"

using namespace cronus;
using namespace cronus::cluster;

namespace
{

/* Small per-enclave quota so 2000 enclaves fit a partition budget:
 * 250 enclaves/node x 256K = 62.5M. */
constexpr uint64_t kEnclaveQuota = 256ull << 10;

void
registerBenchCpuFunctions()
{
    auto &reg = core::CpuFunctionRegistry::instance();
    if (reg.has("fleet_acc"))
        return;
    reg.registerFunction(
        "fleet_acc", [](core::CpuCallContext &ctx) {
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
benchImage()
{
    core::CpuImage image;
    image.exports = {"fleet_acc"};
    return image.serialize();
}

std::string
benchManifest()
{
    return core::Manifest::build("cpu", "fleet.so", benchImage(),
                                 {{"fleet_acc", false}}, kEnclaveQuota);
}

struct Audit
{
    uint64_t ackedCalls = 0;
    uint64_t ledgerViolations = 0;
    uint64_t callFailures = 0;  ///< non-Ok outside partition windows
    uint64_t deadEnclaves = 0;
    uint64_t unconvergedMigrations = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    const uint32_t kNodes = 8;
    const uint32_t kEnclaves = smoke ? 320 : 2000;
    const uint32_t kRounds = smoke ? 6 : 10;
    const uint32_t kCallsPerRound = smoke ? 160 : 1000;
    const uint64_t kFaultSeed = 12;

    std::printf("==================================================="
                "===========\n"
                "Figure 12: %u-node fleet, %u enclaves, seeded "
                "node-fault plan\n"
                "==================================================="
                "===========\n",
                kNodes, kEnclaves);

    Logger::instance().setQuiet(true);
    registerBenchCpuFunctions();

    ClusterConfig cc;
    cc.numNodes = kNodes;
    cc.nodeSystem.numGpus = 0;
    cc.nodeSystem.withNpu = false;
    /* Room for an uneven shard plus transient migration copies. */
    cc.nodeSystem.partitionMemBytes = 128ull << 20;
    cc.autoCheckpointEvery = 8;
    Cluster cl(cc);

    /* Seeded fault plan, all on the virtual timeline: two node
     * crashes while call rounds are running, and one severed peer
     * link. Virtual time makes the schedule exactly reproducible. */
    inject::FaultPlan plan(kFaultSeed);
    plan.killNodeAtTime(40 * kNsPerMs, "node2");
    plan.killNodeAtTime(90 * kNsPerMs, "node5");
    plan.partitionLinkAtTime(140 * kNsPerMs, "node0", "node1");
    FleetInjector injector(cl, plan);
    injector.arm();

    /* Host-clock instrumentation (stderr only). `ops` counts the
     * placements and calls the bench issued. */
    const auto wallStart = std::chrono::steady_clock::now();
    uint64_t ops = 0;

    /* ---- placement: shard kEnclaves across the fleet ---- */
    const std::string manifest = benchManifest();
    const Bytes image = benchImage();
    std::vector<Fid> fids;
    fids.reserve(kEnclaves);
    for (uint32_t i = 0; i < kEnclaves; ++i) {
        auto fid = cl.placeEnclave(manifest, "fleet.so", image);
        ++ops;
        if (!fid.isOk()) {
            std::printf("FAILED: placement %u: %s\n", i,
                        fid.status().toString().c_str());
            return 1;
        }
        fids.push_back(fid.value());
    }
    std::printf("placed %u enclaves in %llu ms of virtual time\n",
                kEnclaves,
                static_cast<unsigned long long>(cl.clock().now() /
                                                kNsPerMs));

    /* ---- the acked-call ledger ---- */
    std::map<Fid, uint64_t> ledger;
    Audit audit;
    Rng rng(kFaultSeed);

    auto callOne = [&](Fid fid, uint64_t delta) {
        ByteWriter w;
        w.putU64(delta);
        ++ops;
        auto r = cl.call(fid, "fleet_acc", w.take());
        if (!r.isOk()) {
            /* Only PeerFailed during the (deliberate) partition
             * window is acceptable; the call was not acked, so the
             * ledger does not move. */
            if (r.code() != ErrorCode::PeerFailed)
                ++audit.callFailures;
            return;
        }
        ledger[fid] += delta;
        ++audit.ackedCalls;
        ByteReader rd(r.value());
        if (rd.getU64().value() != ledger[fid])
            ++audit.ledgerViolations;
    };

    /* ---- call rounds with the fault plan firing mid-run ---- */
    for (uint32_t round = 0; round < kRounds; ++round) {
        for (uint32_t c = 0; c < kCallsPerRound; ++c) {
            Fid fid = fids[rng.nextBelow(fids.size())];
            callOne(fid, 1 + rng.nextBelow(100));
        }
        injector.poll();
        cl.pump();

        /* Operator actions at fixed rounds, mirroring the paper's
         * maintenance story. */
        if (round == 2) {
            /* Drain a healthy node under a tight budget: the
             * overflow quarantines it and re-places cold. */
            DrainBudget tight;
            tight.maxMigrations = smoke ? 8 : 50;
            Status s = cl.drainNode(3, tight);
            if (!s.isOk())
                std::printf("drain node3: %s\n",
                            s.toString().c_str());
        }
        if (round == 4) {
            /* Recover one crashed node; leave the other down. */
            Status s = cl.recoverNode(2);
            if (!s.isOk())
                std::printf("recover node2: %s\n",
                            s.toString().c_str());
        }
        if (round == 5)
            cl.partitionLink(0, 1, false);  // heal the severed link
        if (round == 6) {
            /* Rebalance: live-migrate a slice of node 0's load onto
             * the recovered node. */
            auto residents = cl.enclavesOn(0);
            uint32_t moved = 0;
            for (Fid fid : residents) {
                if (moved >= (smoke ? 8u : 40u))
                    break;
                if (cl.migrateEnclave(fid, 2).isOk())
                    ++moved;
            }
        }
        injector.poll();
        cl.pump();
    }

    /* ---- final self-audit ---- */
    for (Fid fid : fids) {
        if (!cl.enclaveAlive(fid)) {
            ++audit.deadEnclaves;
            continue;
        }
        /* Zero acked-call loss: one more call must extend the
         * ledger exactly, node crashes and migrations included. */
        callOne(fid, 1);
    }
    for (const MigrationAudit &m : cl.migrations()) {
        if (m.src == m.dst)
            continue;
        if (!m.converged() &&
            !(!m.srcAlive && !m.dstAlive && cl.enclaveAlive(m.fid)))
            ++audit.unconvergedMigrations;
    }

    const SimTime endNs = cl.clock().now();
    const double wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wallStart)
            .count();
    std::printf("\nvirtual time: %llu ns, acked calls: %llu\n",
                static_cast<unsigned long long>(endNs),
                static_cast<unsigned long long>(audit.ackedCalls));
    std::printf("fleet: %llu placements, %llu migrations completed, "
                "%llu aborted, %llu drains, %llu quarantines, "
                "%llu cold re-placements\n",
                static_cast<unsigned long long>(cl.placements),
                static_cast<unsigned long long>(
                    cl.migrationsCompleted),
                static_cast<unsigned long long>(
                    cl.migrationsAborted),
                static_cast<unsigned long long>(cl.drains),
                static_cast<unsigned long long>(
                    cl.fleetQuarantines),
                static_cast<unsigned long long>(cl.replacements));
    std::printf("interconnect: %llu messages, %llu bytes, "
                "%llu attestations, %llu partition drops\n",
                static_cast<unsigned long long>(
                    cl.interconnect().messages),
                static_cast<unsigned long long>(
                    cl.interconnect().bytesMoved),
                static_cast<unsigned long long>(
                    cl.interconnect().attestations),
                static_cast<unsigned long long>(
                    cl.interconnect().partitionedDrops));
    std::printf("fault plan: %zu fleet event(s) fired\n",
                injector.fired().size());
    for (uint32_t id = 0; id < kNodes; ++id)
        std::printf("  node%u: %s, %llu enclave(s)\n", id,
                    nodeHealthName(cl.node(id).health()),
                    static_cast<unsigned long long>(
                        cl.node(id).liveEnclaves));

    bool failed = false;
    auto gate = [&](uint64_t bad, const char *what) {
        if (bad == 0)
            return;
        std::printf("FAILED: %llu %s\n",
                    static_cast<unsigned long long>(bad), what);
        failed = true;
    };
    gate(audit.ledgerViolations, "acked-call ledger violation(s)");
    gate(audit.callFailures, "unexpected call failure(s)");
    gate(audit.deadEnclaves, "dead enclave(s) at end of run");
    gate(audit.unconvergedMigrations, "unconverged migration(s)");
    if (injector.fired().size() != plan.events().size()) {
        std::printf("FAILED: fault plan only fired %zu/%zu events\n",
                    injector.fired().size(), plan.events().size());
        failed = true;
    }
    std::printf("\nself-audit: %s (zero acked-call loss %s)\n",
                failed ? "FAILED" : "PASSED",
                failed ? "violated" : "held");

    std::fprintf(stderr,
                 "host-time: %.1f ms wall, %llu fleet ops, "
                 "%.0f ops/sec\n",
                 wallMs, static_cast<unsigned long long>(ops),
                 wallMs > 0.0
                     ? static_cast<double>(ops) * 1000.0 / wallMs
                     : 0.0);
    bench::exportTraceIfEnabled("fig12_cluster.trace.json");
    return failed ? 1 : 0;
}
