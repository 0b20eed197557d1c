#include "steal.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>

namespace xarbench {
namespace {

constexpr std::chrono::milliseconds kPeriod(50);

/// Steal and busy (all but idle and iowait) CPU ticks of the whole host,
/// from /proc/stat's first line.
void ReadTicks(double* steal, double* busy) {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double field = 0;
  *steal = 0;
  *busy = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    if (i != 3 && i != 4) *busy += field;
    if (i == 7) *steal = field;
  }
}

SteadyTime At(SteadyTime t0, double s) {
  return t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(s));
}

}  // namespace

StealMonitor::StealMonitor() : thread_(&StealMonitor::Sampler, this) {}

StealMonitor::~StealMonitor() {
  stop_.store(true);
  thread_.join();
}

void StealMonitor::Sampler() {
  SteadyTime next = std::chrono::steady_clock::now();
  while (!stop_.load()) {
    Sample s;
    s.t = std::chrono::steady_clock::now();
    ReadTicks(&s.steal, &s.busy);
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back(s);
    }
    next += kPeriod;
    std::this_thread::sleep_until(next);
  }
}

double StealMonitor::Share(SteadyTime from, SteadyTime to) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return 0.0;
  auto before = [](const Sample& s, SteadyTime t) { return s.t < t; };
  // Last sample at or before `from`, first at or after `to`.
  auto hi = std::lower_bound(samples_.begin(), samples_.end(), to, before);
  if (hi == samples_.end()) --hi;
  auto lo = std::lower_bound(samples_.begin(), samples_.end(), from, before);
  if (lo != samples_.begin() && (lo == samples_.end() || lo->t > from)) --lo;
  if (lo >= hi) return 0.0;
  const double busy = hi->busy - lo->busy;
  return busy > 0 ? (hi->steal - lo->steal) / busy : 0.0;
}

std::vector<bool> StealMonitor::QuietWindows(SteadyTime t0, double window_s,
                                             std::size_t n) const {
  std::vector<double> shares;
  for (std::size_t w = 0; w < n; ++w) {
    shares.push_back(
        Share(At(t0, static_cast<double>(w) * window_s),
              At(t0, static_cast<double>(w + 1) * window_s)));
  }
  return Quietest(shares);
}

std::vector<bool> Quietest(const std::vector<double>& shares) {
  const double quartile = Quantile(shares, 0.25);
  std::vector<bool> keep;
  for (double s : shares) keep.push_back(s <= quartile);
  return keep;
}

}  // namespace xarbench
