/**
 * @file
 * DNN training example: PyTorch-style LeNet training protected by
 * CRONUS, compared against native (unprotected) execution.
 */

#include <cstdio>

#include "baseline/cronus_backend.hh"
#include "baseline/direct.hh"
#include "workloads/dnn.hh"

using namespace cronus;
using namespace cronus::workloads;

int
main()
{
    Logger::instance().setQuiet(true);
    registerDnnKernels();

    TrainConfig config;
    config.batchSize = 32;
    config.iterations = 6;

    baseline::DirectBackend native(baseline::DirectBackend::Kind::Linux,
                                   dnnKernelNames());

    baseline::CronusBackendConfig cronus_cfg;
    cronus_cfg.gpuKernels = dnnKernelNames();
    baseline::CronusBackend cronus(cronus_cfg);

    std::printf("%-10s %-10s %14s %14s %9s\n", "model", "dataset",
                "native it(us)", "cronus it(us)", "overhead");
    struct Job
    {
        ModelSpec model;
        DatasetSpec dataset;
    };
    for (const Job &job :
         {Job{lenet2(), mnist()}, Job{resnet50(), cifar10()}}) {
        auto n = trainModel(native, job.model, job.dataset, config);
        auto c = trainModel(cronus, job.model, job.dataset, config);
        if (!n.isOk() || !c.isOk()) {
            std::printf("training failed\n");
            return 1;
        }
        double overhead = 100.0 * (double(c.value().perIterationNs) /
                                       n.value().perIterationNs -
                                   1.0);
        std::printf("%-10s %-10s %14.1f %14.1f %8.1f%%\n",
                    job.model.name.c_str(),
                    job.dataset.name.c_str(),
                    n.value().perIterationNs / 1000.0,
                    c.value().perIterationNs / 1000.0, overhead);
    }
    std::printf("dnn_training OK\n");
    return 0;
}
