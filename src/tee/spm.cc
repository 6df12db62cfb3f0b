#include "spm.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "obs/trace.hh"

namespace cronus::tee
{

crypto::Digest
MosImage::measure() const
{
    crypto::Sha256 ctx;
    ctx.update(name);
    ctx.update(deviceType);
    ctx.update(code);
    return ctx.finalize();
}

Spm::Spm(SecureMonitor &monitor, BackendSelect backend_select)
    : sm(monitor), nextSecureAlloc(monitor.platform().secureBase())
{
    hw::Platform &plat = sm.platform();
    backend = makeBackend(resolveBackend(backend_select),
                          plat.normalBase(), plat.normalSize(),
                          stats);
    if (backend->wantsBusFilter()) {
        /* The substrate (not the TZASC) classifies raw bus traffic.
         * The filter charges no virtual time, so figure output stays
         * byte-identical across backends. */
        plat.setBusFilter([this](hw::World from, PhysAddr addr,
                                 uint64_t len, bool is_write) {
            return backend->classifyBus(from, addr, len, is_write);
        });
        busFilterInstalled = true;
    }
}

Spm::~Spm()
{
    if (busFilterInstalled)
        sm.platform().clearBusFilter();
}

Result<Partition *>
Spm::mutablePartition(PartitionId pid)
{
    if (lastAccessed != nullptr && lastAccessed->id == pid)
        return lastAccessed;
    auto it = partitions.find(pid);
    if (it == partitions.end())
        return Status(ErrorCode::NotFound,
                      "no partition " + std::to_string(pid));
    lastAccessed = &it->second;
    return &it->second;
}

Result<const Partition *>
Spm::partition(PartitionId pid) const
{
    auto it = partitions.find(pid);
    if (it == partitions.end())
        return Status(ErrorCode::NotFound,
                      "no partition " + std::to_string(pid));
    return &it->second;
}

Result<PartitionId>
Spm::createPartition(const MosImage &image,
                     const std::string &device_name,
                     uint64_t mem_bytes)
{
    if (!sm.booted())
        return Status(ErrorCode::InvalidState,
                      "SPM requires secure boot");
    if (nextPid > 255)
        return Status(ErrorCode::ResourceExhausted,
                      "eid reserves 8 bits for the mOS id");
    /* Devices map 1:1 to partitions. */
    for (const auto &[pid, p] : partitions) {
        if (p.deviceName == device_name)
            return Status(ErrorCode::InvalidState,
                          "device '" + device_name +
                          "' already managed by partition " +
                          std::to_string(pid));
    }
    if (sm.deviceTree().find(device_name) == nullptr)
        return Status(ErrorCode::NotFound,
                      "device '" + device_name + "' not in DT");

    uint64_t bytes = hw::pageAlignUp(mem_bytes);
    hw::Platform &plat = sm.platform();
    if (nextSecureAlloc + bytes + storeResident >
        plat.secureBase() + plat.secureSize())
        return Status(ErrorCode::ResourceExhausted,
                      "secure memory exhausted");

    Partition p;
    p.id = nextPid++;
    p.deviceName = device_name;
    p.memBase = nextSecureAlloc;
    p.memBytes = bytes;
    p.image = image;
    p.mosHash = image.measure();
    nextSecureAlloc += bytes;

    Status mapped = p.stage2.map(p.memBase, p.memBase,
                                 bytes >> hw::kPageShift,
                                 hw::PagePerms::rw());
    CRONUS_ASSERT(mapped.isOk(), "stage2 identity map failed");
    /* Program the substrate's region for the new partition (a no-op
     * on TrustZone, where the stage-2 map above is the programming;
     * a private TOR pair on PMP). */
    Status substrate = backend->partitionCreated(p.id, p.memBase,
                                                 p.memBytes);
    if (!substrate.isOk())
        return substrate;

    /* mOS boot cost is paid at system startup (§III-A: mOSes run at
     * startup so mEnclaves need not wait). */
    plat.clock().advance(plat.costs().mosBootNs);
    stats.counter("partitions_created").inc();

    PartitionId pid = p.id;
    partitions.emplace(pid, std::move(p));
    return pid;
}

Status
Spm::reserveStoreBytes(uint64_t bytes)
{
    hw::Platform &plat = sm.platform();
    if (nextSecureAlloc + storeResident + bytes >
        plat.secureBase() + plat.secureSize())
        return Status(ErrorCode::ResourceExhausted,
                      "secure memory exhausted (module store)");
    storeResident += bytes;
    stats.counter("store_bytes_reserved").inc(bytes);
    return Status::ok();
}

void
Spm::releaseStoreBytes(uint64_t bytes)
{
    CRONUS_ASSERT(bytes <= storeResident,
                  "module-store release exceeds reservation");
    storeResident -= bytes;
    stats.counter("store_bytes_released").inc(bytes);
}

Status
Spm::heartbeat(PartitionId pid)
{
    auto p = mutablePartition(pid);
    if (!p.isOk())
        return p.status();
    ++p.value()->heartbeat;
    return Status::ok();
}

Status
Spm::panic(PartitionId pid)
{
    stats.counter("panics").inc();
    return failPartition(pid);
}

Status
Spm::failPartition(PartitionId pid)
{
    auto pr = mutablePartition(pid);
    if (!pr.isOk())
        return pr.status();
    Partition &p = *pr.value();
    if (p.state == PartitionState::Failed)
        return Status(ErrorCode::InvalidState, "already failed");

    hw::Platform &plat = sm.platform();
    const CostModel &costs = plat.costs();

    auto &tr = obs::Tracer::instance();
    obs::Span fail_span;
    if (tr.active()) {
        fail_span = obs::Span(tr.partitionTrack(p.id, p.deviceName),
                              "spm.fail", "spm");
        fail_span.arg("partition", static_cast<int64_t>(p.id));
        fail_span.arg("incarnation",
                      static_cast<int64_t>(p.incarnation));
    }

    /* Step 1: invalidate surviving partitions' stage-2 and SMMU
     * entries for every page shared with pid. */
    for (auto &[gid, g] : grants) {
        if (!g.active || (g.owner != pid && g.peer != pid))
            continue;
        PartitionId survivor_id = g.owner == pid ? g.peer : g.owner;
        auto survivor = mutablePartition(survivor_id);
        if (survivor.isOk() &&
            survivor.value()->state == PartitionState::Ready) {
            obs::Span shootdown;
            if (tr.active()) {
                shootdown = obs::Span(
                    tr.partitionTrack(survivor_id,
                                      survivor.value()->deviceName),
                    "tlb.shootdown", "tlb");
                shootdown.arg("grant", static_cast<int64_t>(gid));
                shootdown.arg("pages",
                              static_cast<int64_t>(g.pages));
                shootdown.arg("failedPeer",
                              static_cast<int64_t>(pid));
            }
            survivor.value()->stage2.invalidate(g.base, g.pages);
            plat.clock().advance(g.pages * costs.pageTableUpdateNs);
            plat.clock().advance(costs.tlbInvalidateNs);
        }
        plat.smmu().invalidateByTag(gid);
        plat.clock().advance(costs.smmuUpdateNs);
        g.pendingTrap = true;
        g.failedSide = pid;
    }

    /* Mark r_f = 1: new sharing requests involving pid blocked. */
    p.rf = true;
    p.state = PartitionState::Failed;
    stats.counter("partitions_failed").inc();
    return Status::ok();
}

SimTime
Spm::recoveryCost(const Partition &p) const
{
    const CostModel &costs = sm.platform().costs();
    uint64_t mib = (p.memBytes + (1 << 20) - 1) >> 20;
    const hw::Platform &plat = sm.platform();
    const hw::Device *dev = plat.findDevice(p.deviceName);
    uint64_t dev_mib = dev == nullptr
                           ? 0
                           : (dev->memoryBytes() + (1 << 20) - 1) >> 20;
    /* The scrub rebuilds the stage-2 from scratch, which is a full
     * TLB shootdown for the partition. */
    return (mib + dev_mib) * costs.deviceClearNsPerMiB +
           costs.mosBootNs + costs.tlbInvalidateNs;
}

void
Spm::scrubPartition(Partition &p, const MosImage &image)
{
    hw::Platform &plat = sm.platform();
    /* Clear D_f: device contents of the failed partition, and drop
     * its stale SMMU mappings so the old incarnation's DMA windows
     * die with it. */
    if (hw::Device *dev = plat.findDevice(p.deviceName)) {
        dev->reset(true);
        plat.smmu().streamTable(dev->streamId()).clear();
    }
    /* Clear the partition's memory, including smem it owned. */
    plat.dram().clear(p.memBase, p.memBytes);

    /* Reload the mOS and rebuild a fresh identity stage-2 map. */
    p.stage2.clear();
    Status mapped = p.stage2.map(p.memBase, p.memBase,
                                 p.memBytes >> hw::kPageShift,
                                 hw::PagePerms::rw());
    CRONUS_ASSERT(mapped.isOk(), "stage2 rebuild failed");
    p.image = image;
    p.mosHash = image.measure();
    p.heartbeat = 0;
    ++p.incarnation;
    p.rf = false;
    p.state = PartitionState::Ready;
    /* The new incarnation's substrate view is private-only; windows
     * granted *to* other (surviving) partitions stay until their
     * pending traps resolve. */
    backend->partitionScrubbed(p.id);

    /* Grants of the old incarnation do not survive the reboot: the
     * rebuilt stage-2 no longer maps them. Retire them, but keep
     * their pages in the share-once budget: every such grant has a
     * pending trap (failPartition set it), and until the survivor
     * takes that trap its stage-2 still holds the invalidated
     * entries. A re-share would overwrite them and swallow the trap
     * (A1), so the pages return to the budget only when
     * handleInvalidatedAccess resolves it. A rebuilt *survivor*
     * holds no invalidated entry any more, so its trap can never
     * fire: resolve it here and return the pages to the budget. */
    for (auto &[gid, g] : grants) {
        if (g.owner != p.id && g.peer != p.id)
            continue;
        if (g.pendingTrap && g.failedSide != p.id) {
            g.pendingTrap = false;
            releasePages(g);
        }
        if (!g.active)
            continue;
        g.active = false;
        stats.counter("grants_retired").inc();
        notifyGrant(GrantEvent::Kind::Retired, g);
    }
}

void
Spm::releasePages(const ShareGrant &g)
{
    for (uint64_t i = 0; i < g.pages; ++i) {
        auto it = pageGrant.find(g.base + i * hw::kPageSize);
        if (it != pageGrant.end() && it->second == g.id)
            pageGrant.erase(it);
    }
}

Result<SimTime>
Spm::recoveryEstimate(PartitionId pid) const
{
    auto pr = partition(pid);
    if (!pr.isOk())
        return pr.status();
    return recoveryCost(*pr.value());
}

Status
Spm::recoverPartition(PartitionId pid, const MosImage &image,
                      bool charge_clock)
{
    auto pr = mutablePartition(pid);
    if (!pr.isOk())
        return pr.status();
    Partition &p = *pr.value();
    if (p.state != PartitionState::Failed)
        return Status(ErrorCode::InvalidState,
                      "recover requires a failed partition");

    auto &tr = obs::Tracer::instance();
    obs::Span recover_span;
    if (tr.active()) {
        recover_span = obs::Span(
            tr.partitionTrack(p.id, p.deviceName), "spm.recover",
            "spm");
        recover_span.arg("chargeClock",
                         static_cast<int64_t>(charge_clock ? 1 : 0));
    }
    if (charge_clock)
        sm.platform().clock().advance(recoveryCost(p));
    scrubPartition(p, image);
    recover_span.arg("incarnation",
                     static_cast<int64_t>(p.incarnation));

    stats.counter("partitions_recovered").inc();
    return Status::ok();
}

Status
Spm::recoverConcurrently(const std::vector<PartitionId> &pids,
                         const std::vector<MosImage> &images)
{
    if (pids.size() != images.size())
        return Status(ErrorCode::InvalidArgument,
                      "pids/images size mismatch");
    SimTime max_cost = 0;
    for (PartitionId pid : pids) {
        auto pr = mutablePartition(pid);
        if (!pr.isOk())
            return pr.status();
        if (pr.value()->state != PartitionState::Failed)
            return Status(ErrorCode::InvalidState,
                          "recover requires failed partitions");
        max_cost = std::max(max_cost, recoveryCost(*pr.value()));
    }
    sm.platform().clock().advance(max_cost);
    for (size_t i = 0; i < pids.size(); ++i) {
        Partition &p = *mutablePartition(pids[i]).value();
        scrubPartition(p, images[i]);
        stats.counter("partitions_recovered").inc();
    }
    return Status::ok();
}

Status
Spm::handleInvalidatedAccess(Partition &accessor, PhysAddr addr)
{
    hw::Platform &plat = sm.platform();
    auto &tr = obs::Tracer::instance();
    obs::Span trap_span;
    if (tr.active()) {
        trap_span = obs::Span(
            tr.partitionTrack(accessor.id, accessor.deviceName),
            "spm.trap", "spm");
        trap_span.arg("addr", static_cast<int64_t>(addr));
    }
    plat.clock().advance(plat.costs().trapHandleNs);
    stats.counter("share_traps").inc();

    /* Find the grant whose entry faulted: the newest pending grant
     * that covers this page and involves the accessor. Every later
     * share of the page involving the accessor rewrote its entry, so
     * an older pending grant here is stale: its own entry was
     * unmapped by a revoke or rebuilt by a reboot, and resolving it
     * instead would leave the real trap pending for good. */
    for (auto it = grants.rbegin(); it != grants.rend(); ++it) {
        auto &[gid, g] = *it;
        if (!g.pendingTrap)
            continue;
        bool covers = addr >= g.base &&
                      addr < g.base + g.pages * hw::kPageSize;
        bool involves = g.owner == accessor.id ||
                        g.peer == accessor.id;
        if (!covers || !involves)
            continue;

        /* Rewrite only this grant's entries. A page another grant
         * holds was released and re-shared since: its entry is that
         * grant's, and rewriting it would swallow that grant's trap.
         * Pages owned by the accessor recover access; foreign pages
         * lose the mapping entirely. */
        PhysAddr run = g.base;
        for (uint64_t i = 0; i <= g.pages; ++i) {
            PhysAddr page = g.base + i * hw::kPageSize;
            auto held = pageGrant.find(page);
            if (i < g.pages &&
                (held == pageGrant.end() || held->second == gid))
                continue;
            uint64_t n = (page - run) >> hw::kPageShift;
            if (n != 0 && g.owner == accessor.id)
                accessor.stage2.revalidate(run, n);
            else if (n != 0)
                accessor.stage2.unmap(run, n);
            run = page + hw::kPageSize;
        }
        plat.clock().advance(g.pages * plat.costs().pageTableUpdateNs);
        /* Trap resolution rewrote translations: shoot them down.
         * The peer's substrate window dies with the grant. */
        plat.clock().advance(plat.costs().tlbInvalidateNs);
        backend->grantUnmapped(gid, g.peer);
        g.pendingTrap = false;
        bool was_active = g.active;
        g.active = false;
        releasePages(g);
        if (was_active) {
            /* Already-revoked grants only need the page-table
             * cleanup above; their teardown was accounted. */
            stats.counter("grants_retired").inc();
            notifyGrant(GrantEvent::Kind::Retired, g);
        }

        trap_span.arg("grant", static_cast<int64_t>(gid));
        trap_span.arg("failedPeer",
                      static_cast<int64_t>(g.failedSide));
        if (trapHandler)
            trapHandler(TrapSignal{accessor.id, g.failedSide, gid,
                                   addr});
        return Status(ErrorCode::PeerFailed,
                      "shared-memory peer partition failed");
    }
    return Status(ErrorCode::AccessFault,
                  "access to invalidated page without grant");
}

void
Spm::notifyGrant(GrantEvent::Kind kind, const ShareGrant &g)
{
    auto &tr = obs::Tracer::instance();
    if (tr.active()) {
        const char *name = kind == GrantEvent::Kind::Created
                               ? "spm.grant"
                               : kind == GrantEvent::Kind::Revoked
                                     ? "spm.revoke"
                                     : "spm.retire";
        auto it = partitions.find(g.owner);
        std::string dev = it != partitions.end()
                              ? it->second.deviceName
                              : std::string("?");
        JsonObject args;
        args["grant"] = static_cast<int64_t>(g.id);
        args["owner"] = static_cast<int64_t>(g.owner);
        args["peer"] = static_cast<int64_t>(g.peer);
        args["pages"] = static_cast<int64_t>(g.pages);
        tr.instant(tr.partitionTrack(g.owner, dev), name, "spm",
                   std::move(args));
    }
    if (grantHook)
        grantHook(GrantEvent{kind, g.id, g.owner, g.peer});
}

Status
Spm::accessCheck(PartitionId pid, PhysAddr addr, uint64_t len,
                 bool is_write, Partition *&out)
{
    if (accessHook) {
        Status s = accessHook(SpmAccess{pid, addr, len, is_write,
                                        ++accessSeq});
        if (!s.isOk())
            return s;
    }
    /* The lookup cache is consulted *after* the hook: the hook may
     * panic partitions, but state is re-checked below and stage-2
     * mutations evict the TLB, so a cached pointer never bypasses a
     * state change. */
    Partition *p = lastAccessed;
    if (p == nullptr || p->id != pid) {
        auto it = partitions.find(pid);
        if (it == partitions.end())
            return Status(ErrorCode::NotFound,
                          "no partition " + std::to_string(pid));
        p = &it->second;
        lastAccessed = p;
    }
    if (p->state != PartitionState::Ready)
        return Status(ErrorCode::InvalidState, "partition not ready");
    /* Substrate filter (free on TrustZone; PMP unit walk on RISC-V).
     * Runs before translation, so a page the substrate revoked faults
     * here with the same AccessFault an unmapped stage-2 entry gives;
     * pages still granted pass through to the stage-2 walk, keeping
     * the Invalidated proceed-trap semantics backend-independent. */
    CRONUS_RETURN_IF_ERROR(
        backend->checkAccess(pid, addr, len, is_write));
    out = p;
    return Status::ok();
}

uint8_t *
Spm::fastPath(Partition &p, PhysAddr addr, uint64_t len,
              bool is_write)
{
    uint64_t off = addr & (hw::kPageSize - 1);
    if (len == 0 || off + len > hw::kPageSize)
        return nullptr;
    hw::PhysAddr phys_page = 0;
    uint8_t *host = nullptr;
    if (!p.stage2.cachedTranslate(addr >> hw::kPageShift, phys_page,
                                  is_write, host) ||
        host == nullptr)
        return nullptr;
    /* Same externally-visible effect as a bus access: the byte
     * counter moves; the TZASC check is skipped because the SPM only
     * issues secure-world traffic, which it passes unconditionally.
     * Validity is the TLB's tag/epoch discipline: any stage-2
     * mutation evicts the entry, so a stale host pointer can never
     * be reached. */
    sm.platform().noteFastPathAccess(len);
    return host + off;
}

Result<Bytes>
Spm::read(PartitionId pid, PhysAddr addr, uint64_t len)
{
    Bytes out(len);
    Status s = readInto(pid, addr, out.data(), len);
    if (!s.isOk())
        return s;
    return out;
}

Status
Spm::readInto(PartitionId pid, PhysAddr addr, uint8_t *out,
              uint64_t len)
{
    Partition *p = nullptr;
    CRONUS_RETURN_IF_ERROR(accessCheck(pid, addr, len, false, p));
    if (const uint8_t *src = fastPath(*p, addr, len, false)) {
        std::memcpy(out, src, len);
        return Status::ok();
    }
    hw::Translation t = p->stage2.translate(addr, len, false);
    if (t.fault == hw::FaultKind::Invalidated)
        return handleInvalidatedAccess(*p, t.faultVa);
    if (!t.ok())
        return Status(ErrorCode::AccessFault,
                      "stage-2 fault on read");
    Status s =
        sm.platform().busRead(hw::World::Secure, t.phys, out, len);
    if (s.isOk() && ((addr ^ (addr + len - 1)) >> hw::kPageShift) == 0)
        p->stage2.cacheHostPage(addr >> hw::kPageShift,
                                sm.platform().dram().hostPage(t.phys));
    return s;
}

Status
Spm::write(PartitionId pid, PhysAddr addr, const uint8_t *data,
           uint64_t len)
{
    Partition *p = nullptr;
    CRONUS_RETURN_IF_ERROR(accessCheck(pid, addr, len, true, p));
    if (uint8_t *dst = fastPath(*p, addr, len, true)) {
        std::memcpy(dst, data, len);
        return Status::ok();
    }
    hw::Translation t = p->stage2.translate(addr, len, true);
    if (t.fault == hw::FaultKind::Invalidated)
        return handleInvalidatedAccess(*p, t.faultVa);
    if (!t.ok())
        return Status(ErrorCode::AccessFault,
                      "stage-2 fault on write");
    Status s = sm.platform().busWrite(hw::World::Secure, t.phys,
                                      data, len);
    if (s.isOk() && ((addr ^ (addr + len - 1)) >> hw::kPageShift) == 0)
        p->stage2.cacheHostPage(addr >> hw::kPageShift,
                                sm.platform().dram().hostPage(t.phys));
    return s;
}

Status
Spm::write(PartitionId pid, PhysAddr addr, const Bytes &data)
{
    return write(pid, addr, data.data(), data.size());
}

hw::TlbCounters
Spm::tlbCounters() const
{
    hw::TlbCounters sum;
    for (const auto &[pid, p] : partitions)
        sum.add(p.stage2.tlbCounters());
    return sum;
}

Result<uint64_t>
Spm::sharePages(PartitionId owner, PartitionId peer, PhysAddr base,
                uint64_t pages)
{
    if (owner == peer)
        return Status(ErrorCode::InvalidArgument,
                      "cannot share with self");
    auto owner_p = mutablePartition(owner);
    if (!owner_p.isOk())
        return owner_p.status();
    auto peer_p = mutablePartition(peer);
    if (!peer_p.isOk())
        return peer_p.status();
    Partition &po = *owner_p.value();
    Partition &pp = *peer_p.value();
    /* r_f blocks all new sharing with a failing partition. */
    if (po.rf || po.state != PartitionState::Ready)
        return Status(ErrorCode::PeerFailed, "owner partition failed");
    if (pp.rf || pp.state != PartitionState::Ready)
        return Status(ErrorCode::PeerFailed, "peer partition failed");
    if (!hw::isPageAligned(base) || pages == 0)
        return Status(ErrorCode::InvalidArgument,
                      "share range must be whole pages");
    if (base < po.memBase ||
        base + pages * hw::kPageSize > po.memBase + po.memBytes)
        return Status(ErrorCode::PermissionDenied,
                      "share range outside owner's memory");

    /* Share-once rule (§IV-D): a page may be shared only once. */
    for (uint64_t i = 0; i < pages; ++i) {
        if (pageGrant.count(base + i * hw::kPageSize) != 0)
            return Status(ErrorCode::InvalidState,
                          "page already shared (share-once rule)");
    }

    uint64_t gid = nextGrant++;
    hw::Platform &plat = sm.platform();
    Status s = pp.stage2.map(base, base, pages, hw::PagePerms::rw(),
                             gid);
    if (!s.isOk())
        return Status(ErrorCode::InvalidState,
                      "peer stage-2 collision: " + s.toString());
    /* Re-tag the owner's identity entries so failure handling can
     * find them. */
    po.stage2.unmap(base, pages);
    Status s2 = po.stage2.map(base, base, pages, hw::PagePerms::rw(),
                              gid);
    CRONUS_ASSERT(s2.isOk(), "owner retag failed");
    for (uint64_t i = 0; i < pages; ++i)
        pageGrant[base + i * hw::kPageSize] = gid;
    plat.clock().advance(pages * plat.costs().pageTableUpdateNs);
    plat.clock().advance(plat.costs().tlbInvalidateNs);

    /* Overlapped substrate configuration (§VII-A): the peer gains a
     * window over the owner's range. Both partitions were validated
     * above, so the substrate cannot refuse. */
    Status substrate = backend->grantMapped(gid, peer, base, pages);
    CRONUS_ASSERT(substrate.isOk(),
                  "substrate grant map: " + substrate.toString());

    ShareGrant g;
    g.id = gid;
    g.owner = owner;
    g.peer = peer;
    g.base = base;
    g.pages = pages;
    g.active = true;
    grants.emplace(gid, g);
    stats.counter("grants_created").inc();
    notifyGrant(GrantEvent::Kind::Created, g);
    return gid;
}

Status
Spm::revokeGrant(uint64_t grant_id, PartitionId requester)
{
    auto it = grants.find(grant_id);
    if (it == grants.end())
        return Status(ErrorCode::NotFound, "no such grant");
    ShareGrant &g = it->second;
    if (g.owner != requester && g.peer != requester)
        return Status(ErrorCode::PermissionDenied,
                      "not a party to this grant");
    if (!g.active)
        return Status(ErrorCode::InvalidState, "grant not active");

    hw::Platform &plat = sm.platform();
    auto peer_p = mutablePartition(g.peer);
    if (peer_p.isOk()) {
        peer_p.value()->stage2.unmap(g.base, g.pages);
        plat.clock().advance(g.pages * plat.costs().pageTableUpdateNs);
        /* Revocation is a shootdown: the peer's cached translations
         * for these pages die here. */
        plat.clock().advance(plat.costs().tlbInvalidateNs);
    }
    backend->grantUnmapped(grant_id, g.peer);
    releasePages(g);
    g.active = false;
    stats.counter("grants_revoked").inc();
    notifyGrant(GrantEvent::Kind::Revoked, g);
    return Status::ok();
}

Result<const ShareGrant *>
Spm::grant(uint64_t grant_id) const
{
    auto it = grants.find(grant_id);
    if (it == grants.end())
        return Status(ErrorCode::NotFound, "no such grant");
    return &it->second;
}

std::vector<uint64_t>
Spm::grantsOf(PartitionId pid) const
{
    std::vector<uint64_t> out;
    for (const auto &[gid, g] : grants) {
        if (g.active && (g.owner == pid || g.peer == pid))
            out.push_back(gid);
    }
    return out;
}

bool
Spm::validateMosId(PartitionId pid) const
{
    if (lastAccessed != nullptr && lastAccessed->id == pid)
        return lastAccessed->state == PartitionState::Ready;
    auto it = partitions.find(pid);
    return it != partitions.end() &&
           it->second.state == PartitionState::Ready;
}

} // namespace cronus::tee
