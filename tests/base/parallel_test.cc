/**
 * @file
 * runTasks, the fuzz runner's --jobs pool: every task runs exactly
 * once, on worker threads and on the inline path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "base/parallel.hh"

namespace cronus
{
namespace
{

TEST(ParallelExecutorTest, RunTasksRunsEveryTask)
{
    std::atomic<uint64_t> sum{0};
    std::vector<std::function<void()>> tasks;
    for (uint64_t i = 1; i <= 100; ++i)
        tasks.push_back([&sum, i] { sum += i; });
    runTasks(4, tasks);
    EXPECT_EQ(sum.load(), 5050u);

    sum = 0;
    runTasks(1, tasks);  // inline path
    EXPECT_EQ(sum.load(), 5050u);
}

} // namespace
} // namespace cronus
