/**
 * @file
 * Coarse-grain host parallelism for independent simulations.
 *
 * The simulator itself is serial: every figure, fleet and fuzz run
 * executes on one thread against one virtual clock. What runs in
 * parallel is whole *runs* -- the fuzz runner's --jobs mode hands
 * each seed to a worker, and each seed owns its own simulated
 * universe, so the only shared state is the process-wide singletons
 * (logger, tracer, function registries), which lock.
 */

#ifndef CRONUS_BASE_PARALLEL_HH
#define CRONUS_BASE_PARALLEL_HH

#include <functional>
#include <vector>

namespace cronus
{

/**
 * Run @p tasks to completion on @p workers threads (the caller's
 * thread participates; workers <= 1 runs inline, in order).
 */
void runTasks(unsigned workers,
              const std::vector<std::function<void()>> &tasks);

} // namespace cronus

#endif // CRONUS_BASE_PARALLEL_HH
