#include "parallel.hh"

#include <algorithm>
#include <atomic>
#include <thread>

namespace cronus
{

void
runTasks(unsigned workers,
         const std::vector<std::function<void()>> &tasks)
{
    if (workers <= 1 || tasks.size() <= 1) {
        for (const auto &t : tasks)
            t();
        return;
    }
    std::atomic<size_t> next{0};
    auto drain = [&] {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= tasks.size())
                return;
            tasks[i]();
        }
    };
    const unsigned helpers =
        static_cast<unsigned>(std::min<size_t>(workers, tasks.size())) -
        1;
    std::vector<std::thread> pool;
    pool.reserve(helpers);
    for (unsigned i = 0; i < helpers; ++i)
        pool.emplace_back(drain);
    drain();
    for (std::thread &t : pool)
        t.join();
}

} // namespace cronus
