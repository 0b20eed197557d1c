#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "steal.h"
#include "xarbench.h"

namespace xarbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& base) {
  if (!std::isfinite(value)) value = 0.0;
  metrics_.push_back({name, value, unit});
  std::printf("  %-36s %14.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
              base.c_str());
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++checks_;
  if (!ok) ++failed_checks_;
  std::printf("check %-28s %s  %s\n", name.c_str(), ok ? "PASS" : "FAIL",
              detail.c_str());
}

void Report::Note(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

void Report::AddAttempts(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

int Report::Finish() const {
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string Base(const std::string& label, double count) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(%s %.0f)", label.c_str(), count);
  return buf;
}

void PrintSetupTimes(const std::vector<double>& setup_s,
                     const std::vector<double>& steal) {
  std::printf("set-up times, s (host steal %%):");
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    std::printf(" %.3f (%.1f)", setup_s[i], 100.0 * steal[i]);
  }
  std::printf("\n");
}

void SetupMetric(const std::vector<double>& setup_s,
                 const std::vector<double>& steal, Report* report) {
  const std::vector<bool> keep = Quietest(steal);
  std::vector<double> quiet;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    if (keep[i]) quiet.push_back(setup_s[i]);
  }
  char base[120];
  std::snprintf(base, sizeof(base),
                "(median of the %zu of %zu set-ups with least host steal)",
                quiet.size(), setup_s.size());
  report->Metric("setup_s", Quantile(quiet, 0.5), "s", base);
}

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + stream).NextU64();
}

}  // namespace xarbench
