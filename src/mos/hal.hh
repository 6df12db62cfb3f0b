/**
 * @file
 * Hardware Adaptation Layer (§IV-B).
 *
 * The HAL gives the Enclave Manager one way to configure, attest and
 * virtualize a device for mEnclaves. `Hal` is the interface the
 * manager sees; `DeviceHal<Dev>` writes once what every device
 * shares:
 *  - the probe: ioremap the device, check its kind and its magic
 *    register (`Dev::kMagic`, the value the device's MMIO returns);
 *  - device-context create and destroy;
 *  - attestDevice: the device signs accel::configMessage() with its
 *    RoT key and the HAL verifies the signature;
 *  - one SMMU-mapped DMA bounce window with the two staging loops
 *    (host->device through dmaRead, device->host through dmaWrite +
 *    readInto). GPU and NPU set it up eagerly at context create; the
 *    CPU moves no data by DMA and never maps one.
 * GpuHal, NpuHal and CpuHal add only their own operations (module
 * load, memory, launch/sync, snapshot/restore, NPU programs, CPU
 * execute) and keep their virtual-time charges at those call sites.
 */

#ifndef CRONUS_MOS_HAL_HH
#define CRONUS_MOS_HAL_HH

#include <algorithm>
#include <string>
#include <type_traits>

#include "accel/attested_device.hh"
#include "base/logging.hh"
#include "crypto/keys.hh"
#include "shim_kernel.hh"

namespace cronus::accel
{
class CpuDevice;
} // namespace cronus::accel

namespace cronus::mos
{

/** Result of the HAL's hardware-authenticity check (§IV-A). */
struct DeviceAttestation
{
    crypto::PublicKey devicePublicKey;
    crypto::Signature configSignature;
    Bytes challenge;
};

class Hal
{
  public:
    explicit Hal(ShimKernel &shim_kernel) : shim(shim_kernel) {}
    virtual ~Hal() = default;

    /** "cpu" | "gpu" | "npu" -- matched against manifests. */
    virtual std::string deviceType() const = 0;

    /** Allocate an isolated device context for one mEnclave. */
    virtual Result<uint64_t> createDeviceContext() = 0;
    virtual Status destroyDeviceContext(uint64_t ctx, bool scrub) = 0;

    /**
     * Verify the device really owns its RoT key and produce the
     * material the attestation report embeds (PubK_acc).
     */
    virtual Result<DeviceAttestation> attestDevice(
        const Bytes &challenge) = 0;

    ShimKernel &shimKernel() { return shim; }

  protected:
    ShimKernel &shim;
};

/** The driver skeleton every device kind shares. */
template <typename Dev>
class DeviceHal : public Hal
{
  public:
    DeviceHal(ShimKernel &shim_kernel, std::string device_name)
        : Hal(shim_kernel), devName(std::move(device_name)) {}

    Result<uint64_t>
    createDeviceContext() override
    {
        /* Set up the DMA staging window eagerly so copies pay no
         * first-use penalty. */
        CRONUS_RETURN_IF_ERROR(kDma ? ensureBounce() : ensureProbed());
        shim.heartbeat();
        auto ctx = dev->createContext();
        if (!ctx.isOk())
            return ctx.status();
        return uint64_t(ctx.value());
    }

    Status
    destroyDeviceContext(uint64_t ctx, bool scrub) override
    {
        CRONUS_RETURN_IF_ERROR(ensureProbed());
        return dev->destroyContext(id(ctx), scrub);
    }

    Result<DeviceAttestation>
    attestDevice(const Bytes &challenge) override
    {
        CRONUS_RETURN_IF_ERROR(ensureProbed());
        DeviceAttestation att;
        att.challenge = challenge;
        att.devicePublicKey = dev->devicePublicKey();
        att.configSignature = dev->attestConfig(challenge);

        /* The mOS verifies the device owns the key before reporting
         * it (fabricated-accelerator defense, §IV-A). */
        if (!crypto::verify(att.devicePublicKey,
                            accel::configMessage(dev->name(),
                                                 dev->compatible(),
                                                 dev->configWord(),
                                                 challenge),
                            att.configSignature))
            return Status(ErrorCode::AuthFailed,
                          deviceType() +
                              " failed hardware authenticity check");
        return att;
    }

    Dev &
    rawDevice()
    {
        CRONUS_ASSERT(dev != nullptr, "HAL not probed");
        return *dev;
    }

    /** Host address (IOVA) of the DMA bounce buffer, for tests. */
    hw::PhysAddr bounceBase() const { return bounce; }

  protected:
    /** The CPU is the one device kind that does no DMA. */
    static constexpr bool kDma = !std::is_same_v<Dev, accel::CpuDevice>;

    /** Gpu/Npu/CpuContextId are all 32-bit device context ids. */
    static uint32_t id(uint64_t ctx) { return static_cast<uint32_t>(ctx); }

    /** ioremap the device and sanity-check its kind and magic. */
    Status
    ensureProbed()
    {
        if (dev != nullptr)
            return Status::ok();
        auto mapped = shim.ioremap(devName);
        if (!mapped.isOk())
            return mapped.status();
        auto *as_dev = dynamic_cast<Dev *>(mapped.value());
        if (as_dev == nullptr)
            return Status(ErrorCode::InvalidArgument,
                          "'" + devName + "' is not a " + deviceType() +
                              " device");
        auto magic = as_dev->mmioRead(0x0);
        if (!magic.isOk() || magic.value() != Dev::kMagic)
            return Status(ErrorCode::InvalidState,
                          deviceType() + " magic register mismatch");
        dev = as_dev;
        return Status::ok();
    }

    /** Probe, then allocate + SMMU-map the DMA staging window on
     *  first use. */
    Status
    ensureBounce()
    {
        CRONUS_RETURN_IF_ERROR(ensureProbed());
        if (bounce != 0)
            return Status::ok();
        /* The staging area lives in the partition's secure memory and
         * is mapped into the device's SMMU stream, so every copy
         * flows through the checked DMA path (and a secure-bus device
         * can only reach secure memory). */
        auto region = shim.allocPages(kBouncePages);
        if (!region.isOk())
            return region.status();
        bounce = region.value();
        return shim.dmaMap(dev->streamId(), bounce, bounce,
                           kBouncePages);
    }

    /**
     * Host->device: stage @p src through the bounce window; the
     * device DMA-reads each window and @p store(off, data, len) puts
     * it into device memory.
     */
    template <typename Store>
    Status
    stageToDevice(const Bytes &src, Store &&store)
    {
        hw::Platform &plat = shim.platform();
        for (uint64_t off = 0; off < src.size(); off += kWindow) {
            uint64_t len = std::min<uint64_t>(kWindow, src.size() - off);
            CRONUS_RETURN_IF_ERROR(
                shim.write(bounce, src.data() + off, len));
            Bytes staged(len);
            CRONUS_RETURN_IF_ERROR(
                plat.dmaRead(*dev, bounce, staged.data(), len));
            CRONUS_RETURN_IF_ERROR(store(off, staged.data(), len));
        }
        return Status::ok();
    }

    /**
     * Device->host: @p load(off, out, len) reads @p len bytes of
     * device memory per window; the device DMA-writes them into the
     * bounce window, which is read straight into the result.
     */
    template <typename Load>
    Result<Bytes>
    stageFromDevice(uint64_t len, Load &&load)
    {
        hw::Platform &plat = shim.platform();
        Bytes out(len);
        for (uint64_t off = 0; off < len; off += kWindow) {
            uint64_t n = std::min<uint64_t>(kWindow, len - off);
            Bytes staged(n);
            CRONUS_RETURN_IF_ERROR(load(off, staged.data(), n));
            CRONUS_RETURN_IF_ERROR(
                plat.dmaWrite(*dev, bounce, staged.data(), n));
            CRONUS_RETURN_IF_ERROR(
                shim.readInto(bounce, out.data() + off, n));
        }
        return out;
    }

    Dev *dev = nullptr;

  private:
    static constexpr uint64_t kBouncePages = 64;
    static constexpr uint64_t kWindow = kBouncePages * hw::kPageSize;

    std::string devName;
    hw::PhysAddr bounce = 0;
};

} // namespace cronus::mos

#endif // CRONUS_MOS_HAL_HH
