#include "manifest.hh"

#include <cctype>

namespace cronus::core
{

Result<uint64_t>
Manifest::parseMemorySize(const std::string &text)
{
    if (text.empty())
        return Status(ErrorCode::InvalidArgument,
                      "empty memory size");
    size_t pos = 0;
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos])))
        ++pos;
    if (pos == 0)
        return Status(ErrorCode::InvalidArgument,
                      "memory size must start with digits");
    uint64_t value;
    try {
        value = std::stoull(text.substr(0, pos));
    } catch (const std::exception &) {
        return Status(ErrorCode::InvalidArgument,
                      "memory size out of range");
    }
    std::string suffix = text.substr(pos);
    uint64_t scale = 1;
    if (suffix == "" || suffix == "B")
        scale = 1;
    else if (suffix == "K" || suffix == "KB")
        scale = 1ull << 10;
    else if (suffix == "M" || suffix == "MB")
        scale = 1ull << 20;
    else if (suffix == "G" || suffix == "GB")
        scale = 1ull << 30;
    else
        return Status(ErrorCode::InvalidArgument,
                      "unknown memory suffix '" + suffix + "'");
    if (value > ~0ull / scale)
        return Status(ErrorCode::InvalidArgument,
                      "memory size overflow");
    return value * scale;
}

std::string
Manifest::build(const std::string &device_type,
                const std::string &image_name, const Bytes &image,
                std::vector<McallDecl> calls, uint64_t memory_bytes)
{
    Manifest m;
    m.deviceType = device_type;
    if (!image_name.empty())
        m.images[image_name] = crypto::digestHex(crypto::sha256(image));
    m.mEcalls = std::move(calls);
    m.memoryBytes = memory_bytes;
    return m.toJson();
}

Result<Manifest>
Manifest::fromJson(const std::string &text)
{
    auto doc = parseJson(text);
    if (!doc.isOk())
        return doc.status();
    const JsonValue &root = doc.value();

    Manifest m;
    auto device = root.getString("device_type");
    if (!device.isOk())
        return device.status();
    m.deviceType = device.value();
    if (m.deviceType != "cpu" && m.deviceType != "gpu" &&
        m.deviceType != "npu")
        return Status(ErrorCode::InvalidArgument,
                      "unknown device_type '" + m.deviceType + "'");

    if (root.has("images")) {
        auto images = root.getObject("images");
        if (!images.isOk())
            return images.status();
        for (const auto &[file, hash] : images.value()) {
            if (!hash.isString())
                return Status(ErrorCode::InvalidArgument,
                              "image hash must be a string");
            m.images[file] = hash.asString();
        }
    }

    auto calls = root.getArray("mEcalls");
    if (!calls.isOk())
        return calls.status();
    for (const auto &entry : calls.value()) {
        McallDecl decl;
        if (entry.isString()) {
            decl.name = entry.asString();
        } else if (entry.isObject()) {
            auto name = entry.getString("name");
            if (!name.isOk())
                return name.status();
            decl.name = name.value();
            decl.async = entry["async"].isBool() &&
                         entry["async"].asBool();
        } else {
            return Status(ErrorCode::InvalidArgument,
                          "mEcalls entries must be strings/objects");
        }
        if (decl.name.empty())
            return Status(ErrorCode::InvalidArgument,
                          "empty mECall name");
        m.mEcalls.push_back(decl);
    }
    if (m.mEcalls.empty())
        return Status(ErrorCode::InvalidArgument,
                      "manifest declares no mECalls");

    auto resources = root.getObject("resources");
    if (!resources.isOk())
        return resources.status();
    auto mem_it = resources.value().find("memory");
    if (mem_it == resources.value().end() ||
        !mem_it->second.isString())
        return Status(ErrorCode::InvalidArgument,
                      "resources.memory missing");
    auto mem = parseMemorySize(mem_it->second.asString());
    if (!mem.isOk())
        return mem.status();
    m.memoryBytes = mem.value();
    if (m.memoryBytes == 0)
        return Status(ErrorCode::InvalidArgument,
                      "zero memory quota");
    return m;
}

std::string
Manifest::toJson() const
{
    JsonObject root;
    root["device_type"] = deviceType;
    JsonObject images_obj;
    for (const auto &[file, hash] : images)
        images_obj[file] = hash;
    root["images"] = JsonValue(std::move(images_obj));
    JsonArray calls;
    for (const auto &decl : mEcalls) {
        JsonObject entry;
        entry["name"] = decl.name;
        entry["async"] = decl.async;
        calls.push_back(JsonValue(std::move(entry)));
    }
    root["mEcalls"] = JsonValue(std::move(calls));
    JsonObject resources;
    resources["memory"] = std::to_string(memoryBytes);
    root["resources"] = JsonValue(std::move(resources));
    return JsonValue(std::move(root)).dump();
}

crypto::Digest
Manifest::measure() const
{
    return crypto::sha256(toJson());
}

bool
Manifest::declaresCall(const std::string &name) const
{
    for (const auto &decl : mEcalls) {
        if (decl.name == name)
            return true;
    }
    return false;
}

bool
Manifest::isAsync(const std::string &name) const
{
    for (const auto &decl : mEcalls) {
        if (decl.name == name)
            return decl.async;
    }
    return false;
}

crypto::Digest
measureEnclave(const Manifest &manifest, const crypto::Digest &image_hash)
{
    crypto::Sha256 ctx;
    ctx.update(crypto::digestToBytes(manifest.measure()));
    ctx.update(crypto::digestToBytes(image_hash));
    return ctx.finalize();
}

Result<VerifiedModule>
verifyModule(const std::string &manifest_json,
             const std::string &image_name, const Bytes &image)
{
    auto manifest = Manifest::fromJson(manifest_json);
    if (!manifest.isOk())
        return manifest.status();
    VerifiedModule verified{std::move(manifest.value())};
    if (!image.empty() || !image_name.empty()) {
        const auto &images = verified.manifest.images;
        auto declared = images.find(image_name);
        if (declared == images.end())
            return Status(ErrorCode::InvalidArgument,
                          "image '" + image_name +
                          "' not declared in manifest");
        verified.imageHash = crypto::sha256(image);
        if (crypto::digestHex(verified.imageHash) != declared->second)
            return Status(ErrorCode::IntegrityViolation,
                          "image hash mismatch for '" + image_name +
                          "'");
    }
    verified.measurement =
        measureEnclave(verified.manifest, verified.imageHash);
    return verified;
}

} // namespace cronus::core
