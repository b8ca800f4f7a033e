#pragma once
/// \file estimate.hpp
/// The benchmark's repetition estimator and the CPU rotation it relies on.
///
/// On the shared hosts this benchmark runs on, each CPU alternates between
/// an uncontended mode and a contended one that is 1.4-1.8x slower, for
/// seconds at a time and independently of the other CPUs (an n = 5000
/// co-firing trial pinned to each of 4 CPUs in turn for 2.5 s: fastest
/// 6.3-6.7 ms on some, 9.0-9.3 ms on others, and the set changing from
/// one round to the next). A process left where the scheduler put it can
/// spend a whole 30 s run on a contended CPU. So the measuring thread
/// moves to the next CPU it may use at every repetition, and a run's
/// figure is the fastest repetition: contention only ever adds time, so
/// the minimum has no fast outliers to guard against, and it is the
/// uncontended cost whenever any CPU was quiet during any repetition.

#include <sched.h>

#include <algorithm>
#include <vector>

namespace labbench {

/// Fastest of `samples`. Requires a non-empty vector.
inline double fastest(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

/// Moves the calling thread round-robin over the CPUs of its affinity
/// mask, one per next(); restores the original mask when destroyed. Does
/// nothing when the mask cannot be read.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

}  // namespace labbench
