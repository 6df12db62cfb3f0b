/**
 * @file
 * Table II: the prototyped system's configuration.
 *
 * The paper's Table II lists the host/guest testbed. Our "testbed"
 * is the simulated platform; this binary prints its full
 * configuration -- memory map, devices, and the calibrated cost
 * model -- so any reported number can be traced to its inputs.
 */

#include "bench_util.hh"
#include "core/system.hh"

using namespace cronus;
using namespace cronus::bench;

int
main()
{
    Logger::instance().setQuiet(true);
    header("Table II: simulated platform configuration");

    core::CronusSystem system;
    hw::Platform &plat = system.platform();

    std::printf("%-28s %s\n", "platform", "simulated TrustZone + "
                                          "S-EL2 (deterministic)");
    std::printf("%-28s %llu MiB normal + %llu MiB secure\n",
                "DRAM",
                static_cast<unsigned long long>(plat.normalSize() >>
                                                20),
                static_cast<unsigned long long>(plat.secureSize() >>
                                                20));

    std::printf("\ndevices (from the frozen DT):\n");
    hw::DeviceTree dt = system.monitor().deviceTree();
    for (const auto &node : dt.all()) {
        std::printf("  %-8s %-22s irq=%-3u %s%s\n",
                    node.name.c_str(), node.compatible.c_str(),
                    node.irq,
                    node.world == hw::World::Secure ? "secure"
                                                    : "normal",
                    node.memBytes
                        ? (" mem=" +
                           std::to_string(node.memBytes >> 20) +
                           "MiB").c_str()
                        : "");
    }

    const CostModel &costs = plat.costs();
    std::printf("\ncost model (virtual ns):\n");
    std::printf("  %-28s %llu\n", "world switch",
                static_cast<unsigned long long>(costs.worldSwitchNs));
    std::printf("  %-28s %llu\n", "S-EL2 RPC leg (4 switches)",
                static_cast<unsigned long long>(
                    costs.sel2RpcSwitchNs));
    std::printf("  %-28s %llu\n", "stage-2 PTE update",
                static_cast<unsigned long long>(
                    costs.pageTableUpdateNs));
    std::printf("  %-28s %llu\n", "GPU kernel submit (driver)",
                static_cast<unsigned long long>(costs.gpuSubmitNs));
    std::printf("  %-28s %.2f / %.2f\n",
                "memcpy / DMA (ns per byte)", costs.memcpyNsPerByte,
                costs.dmaNsPerByte);
    std::printf("  %-28s %.2f / %.2f\n",
                "AES / HMAC (ns per byte)", costs.aesNsPerByte,
                costs.hmacNsPerByte);
    std::printf("  %-28s %llu ms\n", "mOS (re)boot",
                static_cast<unsigned long long>(costs.mosBootNs /
                                                kNsPerMs));
    std::printf("  %-28s %llu s\n", "machine reboot comparator",
                static_cast<unsigned long long>(
                    costs.machineRebootNs / kNsPerSec));

    std::printf("\npartitions at boot:\n%s\n",
                system.metrics()
                    .snapshot()["sources"]["partitions"]
                    .dump()
                    .c_str());
    return 0;
}
