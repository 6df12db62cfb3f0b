#include "module_store.hh"

#include "base/logging.hh"

namespace cronus::core
{

ModuleStore::ModuleStore(tee::Spm &partition_manager,
                         uint64_t capacity_bytes)
    : spm(partition_manager), capacityBytes(capacity_bytes)
{
}

ModuleStore::~ModuleStore()
{
    if (resident > 0)
        spm.releaseStoreBytes(resident);
}

crypto::Digest
ModuleStore::digestOf(const std::string &manifest_json,
                      const Bytes &image)
{
    crypto::Sha256 ctx;
    ctx.update(manifest_json);
    ctx.update(image);
    return ctx.finalize();
}

void
ModuleStore::touch(Node &node)
{
    lru.erase(node.lruIt);
    lru.push_front(node.record.digest);
    node.lruIt = lru.begin();
}

Status
ModuleStore::evictFor(uint64_t incoming_bytes)
{
    if (incoming_bytes > capacityBytes)
        return Status(ErrorCode::ResourceExhausted,
                      "module larger than store capacity");
    while (resident + incoming_bytes > capacityBytes) {
        CRONUS_ASSERT(!lru.empty(), "resident bytes without records");
        crypto::Digest victim = lru.back();
        auto it = records.find(victim);
        CRONUS_ASSERT(it != records.end(), "LRU entry without record");
        uint64_t bytes = it->second.record.residentBytes();
        lru.pop_back();
        records.erase(it);
        spm.releaseStoreBytes(bytes);
        resident -= bytes;
        stats.counter("evictions").inc();
    }
    return Status::ok();
}

Result<const ModuleRecord *>
ModuleStore::lookup(const crypto::Digest &digest)
{
    auto it = records.find(digest);
    if (it == records.end()) {
        stats.counter("misses").inc();
        return Status(ErrorCode::NotFound, "module not resident");
    }
    touch(it->second);
    ++it->second.record.hits;
    stats.counter("hits").inc();
    return const_cast<const ModuleRecord *>(&it->second.record);
}

Result<const ModuleRecord *>
ModuleStore::admit(const std::string &manifest_json,
                   const std::string &image_name, const Bytes &image)
{
    /* Content addressing reuses the measurement pass: one walk over
     * the bytes yields the digest, and the virtual clock is charged
     * once below -- exactly what a legacy create() charges. */
    crypto::Digest digest = digestOf(manifest_json, image);
    if (records.count(digest) != 0)
        return lookup(digest);

    /* The store only vouches for pairs it verified itself, through
     * the same verifier EnclaveManager::create uses. */
    auto verified = verifyModule(manifest_json, image_name, image);
    if (!verified.isOk())
        return verified.status();

    uint64_t bytes = manifest_json.size() + image.size();
    CRONUS_RETURN_IF_ERROR(evictFor(bytes));
    CRONUS_RETURN_IF_ERROR(spm.reserveStoreBytes(bytes));

    hw::Platform &plat = spm.monitor().platform();
    plat.clock().advance(static_cast<SimTime>(
        bytes * plat.costs().shaNsPerByte));

    Node node;
    node.record.digest = digest;
    node.record.manifestJson = manifest_json;
    node.record.manifest = std::move(verified.value().manifest);
    node.record.imageName = image_name;
    node.record.image = image;
    node.record.imageHash = verified.value().imageHash;
    node.record.measurement = verified.value().measurement;
    lru.push_front(digest);
    auto [it, inserted] = records.emplace(digest, std::move(node));
    CRONUS_ASSERT(inserted, "digest raced into the store");
    it->second.lruIt = lru.begin();
    resident += bytes;
    stats.counter("admissions").inc();
    return const_cast<const ModuleRecord *>(&it->second.record);
}

} // namespace cronus::core
