#ifndef XAR_BENCH_BENCH_COMMON_H_
#define XAR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "discretize/region_index.h"
#include "graph/generator.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "graph/routing_backend.h"
#include "graph/spatial_index.h"
#include "workload/taxi_trip.h"
#include "workload/trip_generator.h"
#include "xar/options.h"

namespace xar {
namespace bench {

/// Scale factor for all figure benches: 1.0 reproduces the default (quick)
/// configuration; export XAR_BENCH_SCALE=4 for a longer, closer-to-paper
/// run. Every bench prints the scale it ran at.
inline double BenchScale() {
  const char* env = std::getenv("XAR_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

/// The shared experimental substrate: one synthetic city, its
/// discretization (paper defaults: 100 m grids, ε = 4δ = 1 km), a routing
/// oracle and an NYC-like trip workload.
struct BenchWorld {
  RoadGraph graph;
  std::unique_ptr<SpatialNodeIndex> spatial;
  std::unique_ptr<RegionIndex> region;
  std::unique_ptr<GraphOracle> oracle;
  std::vector<TaxiTrip> trips;
};

struct BenchWorldOptions {
  std::size_t city_rows = 28;
  std::size_t city_cols = 28;
  double delta_m = 250.0;  ///< epsilon = 4*delta = 1 km (paper default)
  std::size_t num_trips = 12000;
  std::size_t landmark_candidates = 500;
  std::uint64_t seed = 42;
  /// Routing backend the world's oracle runs (XarOptions::routing_backend
  /// is honored by forwarding it here).
  RoutingBackendKind routing_backend = XarOptions{}.routing_backend;
  /// Worker threads for backend preprocessing (0 = hardware concurrency);
  /// forwarded like XarOptions::preprocess_threads.
  std::size_t preprocess_threads = 0;
};

inline BenchWorld MakeBenchWorld(const BenchWorldOptions& opt = {}) {
  BenchWorld world;
  CityOptions city;
  city.rows = opt.city_rows;
  city.cols = opt.city_cols;
  city.seed = opt.seed;
  world.graph = GenerateCity(city);
  world.spatial = std::make_unique<SpatialNodeIndex>(world.graph);

  DiscretizationOptions dopt;
  dopt.delta_m = opt.delta_m;
  dopt.landmarks.num_candidates = opt.landmark_candidates;
  dopt.landmarks.seed = opt.seed + 1;
  world.region = std::make_unique<RegionIndex>(
      RegionIndex::Build(world.graph, *world.spatial, dopt));

  XarOptions xar_options;
  xar_options.routing_backend = opt.routing_backend;
  xar_options.preprocess_threads = opt.preprocess_threads;
  world.oracle = std::make_unique<GraphOracle>(
      world.graph, /*cache_capacity=*/std::size_t{1} << 16,
      opt.routing_backend, xar_options.BackendOptions(),
      xar_options.oracle_cache);

  WorkloadOptions wopt;
  wopt.num_trips = opt.num_trips;
  wopt.seed = opt.seed + 2;
  world.trips = GenerateTrips(world.graph.bounds(), wopt);
  return world;
}

/// Splits a time-sorted trip stream into (offers, requests) by interleaving
/// (every `stride`-th trip becomes an offer), so both sides cover the same
/// hours of the day — a prefix/suffix split would leave them temporally
/// disjoint and no matches would ever form.
inline void SplitTrips(const std::vector<TaxiTrip>& trips, std::size_t stride,
                       std::vector<TaxiTrip>* offers,
                       std::vector<TaxiTrip>* requests) {
  offers->clear();
  requests->clear();
  for (std::size_t i = 0; i < trips.size(); ++i) {
    if (i % stride == 0) {
      offers->push_back(trips[i]);
    } else {
      requests->push_back(trips[i]);
    }
  }
}

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("(XAR reproduction; synthetic city + NYC-like workload, scale %.1fx)\n",
              BenchScale());
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace xar

#endif  // XAR_BENCH_BENCH_COMMON_H_
