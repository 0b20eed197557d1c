#ifndef XAR_PERFBENCH_XARBENCH_H_
#define XAR_PERFBENCH_XARBENCH_H_

// Shared pieces of the XAR benchmark program: the command line, the metric
// report, the world every workload is set up on, and small statistics
// helpers. Tracing lives in trace.h and the open-loop socket generator in
// loadgen.h.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "discretize/region_index.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "graph/spatial_index.h"
#include "workload/taxi_trip.h"
#include "xar/options.h"
#include "xar/ride.h"

namespace xarbench {

using namespace xar;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Collects metrics and output checks, prints a human-readable table as it
/// goes and, at the end, the one-line JSON result the runner relays.
class Report {
 public:
  /// `base` names the counts a ratio or mean was taken over; printed beside
  /// the value so no ratio appears without its denominator.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& base = "");
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Note(const std::string& text);
  void AddAttempts(std::uint64_t attempted, std::uint64_t failed);
  bool correct() const { return checks_ > 0 && failed_checks_ == 0; }
  /// Prints the JSON result line; returns the process exit code.
  int Finish() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::size_t checks_ = 0;
  std::size_t failed_checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- Time and statistics -------------------------------------------------

using SteadyTime = std::chrono::steady_clock::time_point;

inline double SecondsSince(SteadyTime t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();
/// a / b, or 0 when b is 0 (the base is printed beside every ratio).
inline double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }
std::string Base(const std::string& label, double count);
/// Prints the duration of each set-up, in order, with the host steal it saw.
void PrintSetupTimes(const std::vector<double>& setup_s,
                     const std::vector<double>& steal);
/// Reports setup_s: the median of the set-up times in the quietest quarter
/// by host steal (steal.h).
void SetupMetric(const std::vector<double>& setup_s,
                 const std::vector<double>& steal, Report* report);
/// A well-mixed seed for one input stream of a workload, so neighbouring
/// --seed values give unrelated inputs.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

// --- The world -------------------------------------------------------------

/// City graph, spatial index, CH-backed oracle (prewarmed), cluster
/// discretization and the CBD-heavy synthetic taxi trip stream.
struct World {
  RoadGraph graph;
  std::unique_ptr<SpatialNodeIndex> spatial;
  std::unique_ptr<GraphOracle> oracle;
  std::unique_ptr<RegionIndex> region;
  std::vector<TaxiTrip> trips;
};

/// The road network (a 24x24 synthetic city) and its discretization are the
/// deployment and never change; the `num_trips`-trip day is the workload
/// input and comes from the seed.
std::unique_ptr<World> BuildWorld(std::size_t num_trips, std::uint64_t seed);

/// Every `stride`-th trip is a ride offer, the rest are commuters.
void SplitTrips(const std::vector<TaxiTrip>& trips, std::size_t stride,
                std::vector<TaxiTrip>* offers,
                std::vector<TaxiTrip>* requests);

RideOffer OfferOf(const TaxiTrip& trip);
RideRequest RequestOf(const TaxiTrip& trip, std::uint32_t rider_id,
                      double window_s);

// --- Workloads -------------------------------------------------------------

class StealMonitor;

/// Each workload measures over the stretches of the run in which `host` saw
/// the least steal.
void RunSearchOpen(const Args& args, const StealMonitor& host, Report* report);
void RunBookMix(const Args& args, const StealMonitor& host, Report* report);
void RunCitySim(const Args& args, const StealMonitor& host, Report* report);

}  // namespace xarbench

#endif  // XAR_PERFBENCH_XARBENCH_H_
