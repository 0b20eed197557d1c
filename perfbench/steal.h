#ifndef XAR_PERFBENCH_STEAL_H_
#define XAR_PERFBENCH_STEAL_H_

// Host steal: CPU time the hypervisor handed this VM's CPUs to other tenants
// while they had work to run. On a shared host it comes and goes within
// seconds, and a stretch of a run with much of it reads slower for reasons
// outside the program. StealMonitor samples it through a run, so that each
// measurement can be taken over the quietest stretches: the quarter of a
// phase's windows, or of city_sim's repetitions, that lost the smallest
// share of their busy CPU time to steal. Taking the share of busy time, not
// of all time, keeps stretches where the program itself is busier from
// looking noisier.

#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "xarbench.h"

namespace xarbench {

class StealMonitor {
 public:
  /// Starts sampling /proc/stat every 50 ms on a background thread.
  StealMonitor();
  /// Stops the thread and waits for it.
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Stolen share of the busy (non-idle) CPU time in [from, to], between the
  /// samples nearest outside both ends; 0 when no busy time was counted.
  double Share(SteadyTime from, SteadyTime to) const;

  /// Quietest(shares) of the `n` consecutive windows of `window_s` seconds
  /// starting at `t0`.
  std::vector<bool> QuietWindows(SteadyTime t0, double window_s,
                                 std::size_t n) const;

 private:
  struct Sample {
    SteadyTime t;
    double steal;
    double busy;
  };
  void Sampler();

  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Marks the entries of `shares` at or below their lower quartile: the
/// quietest quarter, or more on ties (all of them on a quiet host).
std::vector<bool> Quietest(const std::vector<double>& shares);

}  // namespace xarbench

#endif  // XAR_PERFBENCH_STEAL_H_
