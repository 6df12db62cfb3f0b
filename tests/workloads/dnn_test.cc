/** DNN training and TVM inference workload tests. */

#include <gtest/gtest.h>

#include "baseline/cronus_backend.hh"
#include "baseline/direct.hh"
#include "workloads/dnn.hh"
#include "workloads/tvm.hh"
#include "workloads/vta_bench.hh"

namespace cronus::workloads
{
namespace
{

std::unique_ptr<baseline::ComputeBackend>
makeNative()
{
    Logger::instance().setQuiet(true);
    registerDnnKernels();
    return std::make_unique<baseline::DirectBackend>(
        baseline::DirectBackend::Kind::Linux, dnnKernelNames());
}

std::unique_ptr<baseline::ComputeBackend>
makeCronus()
{
    Logger::instance().setQuiet(true);
    registerDnnKernels();
    baseline::CronusBackendConfig c;
    c.gpuKernels = dnnKernelNames();
    return std::make_unique<baseline::CronusBackend>(c);
}

TEST(DnnModelTest, ModelShapes)
{
    EXPECT_EQ(lenet2().name, "LeNet-2");
    EXPECT_EQ(resnet50().layers.size(), 50u);
    EXPECT_EQ(densenet121().layers.size(), 121u);
    /* Relative FLOP ordering matches the real networks. */
    EXPECT_LT(lenet2().totalFlopsPerSample(),
              resnet50().totalFlopsPerSample());
    EXPECT_LT(resnet50().totalFlopsPerSample(),
              vgg16().totalFlopsPerSample());
    EXPECT_LT(vgg16().totalFlopsPerSample(),
              densenet121().totalFlopsPerSample());
    EXPECT_GT(vgg16().totalParamBytes(),
              resnet50().totalParamBytes());
}

TEST(DnnTrainTest, TrainingRunsAndScalesWithModel)
{
    auto backend = makeNative();
    TrainConfig cfg;
    cfg.iterations = 4;
    auto small = trainModel(*backend, lenet2(), mnist(), cfg);
    ASSERT_TRUE(small.isOk()) << small.status().toString();
    EXPECT_GT(small.value().perIterationNs, 0u);
    EXPECT_EQ(small.value().kernelLaunches,
              4u * 3 * lenet2().layers.size());

    auto big = trainModel(*backend, resnet50(), cifar10(), cfg);
    ASSERT_TRUE(big.isOk());
    EXPECT_GT(big.value().perIterationNs,
              small.value().perIterationNs);
}

TEST(DnnTrainTest, CronusOverheadWithinBand)
{
    TrainConfig cfg;
    cfg.iterations = 4;
    auto native = makeNative();
    auto cronus = makeCronus();
    SimTime native_iter =
        trainModel(*native, lenet2(), mnist(), cfg).value()
            .perIterationNs;
    SimTime cronus_iter =
        trainModel(*cronus, lenet2(), mnist(), cfg).value()
            .perIterationNs;
    double ratio = double(cronus_iter) / native_iter;
    EXPECT_GT(ratio, 0.99);
    EXPECT_LT(ratio, 1.25);
}

TEST(VtaBenchTest, ThroughputAndVerification)
{
    auto backend = makeNative();
    VtaBenchConfig cfg;
    auto result = runVtaBench(*backend, cfg);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_TRUE(result.value().verified);
    EXPECT_GT(result.value().gemmOpsPerSecond, 0.0);
}

TEST(VtaBenchTest, WorksThroughCronusNpuEnclave)
{
    auto backend = makeCronus();
    VtaBenchConfig cfg;
    cfg.batches = 4;
    auto result = runVtaBench(*backend, cfg);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_TRUE(result.value().verified);
}

TEST(TvmTest, InferenceLatencyOrdering)
{
    auto backend = makeNative();
    auto r18 = runInferenceNpu(*backend, tvmResnet18());
    auto r50 = runInferenceNpu(*backend, tvmResnet50());
    auto yolo = runInferenceNpu(*backend, tvmYolov3());
    ASSERT_TRUE(r18.isOk());
    ASSERT_TRUE(r50.isOk());
    ASSERT_TRUE(yolo.isOk());
    EXPECT_TRUE(r18.value().verified);
    EXPECT_TRUE(r50.value().verified);
    EXPECT_TRUE(yolo.value().verified);
    EXPECT_LT(r18.value().latencyNs, r50.value().latencyNs);
    EXPECT_LT(r50.value().latencyNs, yolo.value().latencyNs);
}

TEST(TvmTest, NpuBeatsScalarCpu)
{
    auto backend = makeNative();
    auto npu = runInferenceNpu(*backend, tvmResnet18());
    auto cpu = runInferenceCpu(*backend, tvmResnet18());
    ASSERT_TRUE(npu.isOk());
    ASSERT_TRUE(cpu.isOk());
    EXPECT_LT(npu.value().latencyNs, cpu.value().latencyNs);
}

TEST(TvmTest, InferenceThroughCronus)
{
    auto backend = makeCronus();
    auto r = runInferenceNpu(*backend, tvmResnet18());
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_TRUE(r.value().verified);
}

} // namespace
} // namespace cronus::workloads
