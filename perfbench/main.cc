// xarbench, the XAR benchmark program. Usually run through run.py, which
// builds it:
//
//   xarbench --workload search_open|book_mix|city_sim --seed N --seconds S
//            --trace 0|1 [--out-dir DIR]
//
// Prints a human-readable account of the run (phase tallies, output checks,
// metrics with the counts they were taken over) and, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 repeats the workload with the
// tracing decorators on and reports the per-layer metrics. Span logs of a
// traced run are written to --out-dir.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "steal.h"
#include "xarbench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "xarbench: %s\nusage: xarbench --workload "
               "search_open|book_mix|city_sim --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xarbench::Args args;
  if (argc % 2 == 0) return Usage("flags come in pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds >= 1.0 && args.seconds <= 120.0)) {
        return Usage("--seconds must be within 1..120");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  xarbench::Report report;
  const xarbench::StealMonitor host;
  const xarbench::SteadyTime started = std::chrono::steady_clock::now();
  std::printf("xarbench %s seed %llu, %.0f s, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "search_open") {
    xarbench::RunSearchOpen(args, host, &report);
  } else if (args.workload == "book_mix") {
    xarbench::RunBookMix(args, host, &report);
  } else if (args.workload == "city_sim") {
    xarbench::RunCitySim(args, host, &report);
  } else {
    return Usage("unknown workload");
  }
  std::printf("host steal: %.2f%% of busy CPU time during the run\n",
              100.0 * host.Share(started, std::chrono::steady_clock::now()));
  return report.Finish();
}
