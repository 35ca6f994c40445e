/**
 * @file
 * The host clock every timed path reads: scheduler node spans, the
 * stage pipe's straggler busy-extension, the serve dispatcher's
 * arrival timers and the runner's timed repetitions. Keeping one
 * definition gives those paths a single place to agree on (and, for
 * deterministic tests, to substitute) the time source.
 */

#ifndef MMBENCH_CORE_CLOCK_HH
#define MMBENCH_CORE_CLOCK_HH

#include <chrono>

namespace mmbench {
namespace core {

/** Monotonic host time in microseconds (arbitrary epoch). */
inline double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace core
} // namespace mmbench

#endif // MMBENCH_CORE_CLOCK_HH
