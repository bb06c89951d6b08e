#ifndef FAIRBENCH_COMMON_TIMER_H_
#define FAIRBENCH_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace fairbench {

/// Nanoseconds on the monotonic clock, as a raw counter suitable for
/// subtraction. The epoch is unspecified (typically boot time); only
/// differences between two calls are meaningful. This is the time base of
/// the obs tracing layer (src/obs/trace.h): span begin/end stamps come from
/// here so they are totally ordered per thread and never jump backwards.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic wall-clock stopwatch used by the efficiency/scalability
/// harnesses (Fig 11). Runtimes reported by FairBench are always the
/// *overhead over the fairness-unaware baseline*, matching the paper.
class Timer {
 public:
  Timer() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last Restart().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Microseconds elapsed since construction or the last Restart().
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

  /// Whole nanoseconds elapsed since construction or the last Restart();
  /// exact integer differences, for stage splits that must add up.
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fairbench

#endif  // FAIRBENCH_COMMON_TIMER_H_
