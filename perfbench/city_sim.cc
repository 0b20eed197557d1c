// city_sim — why: the only workload where refresh (snapshot rebuild, CH
// prewarm, landmark matrix), persistent kinetic trees and cold per-refresh
// oracle caches dominate, and serve is absent. An in-process EventSim runs
// single-threaded, as fast as possible, over a rush hour with cancels,
// no-shows, traffic ticks and periodic refreshes, driving a 4-shard
// ConcurrentXarSystem through MakeSimTarget. Its outputs are bit-
// deterministic in the seed (EventSimResult::fingerprint), so its quality
// metrics guard exactly.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/event_sim.h"
#include "layers.h"
#include "steal.h"
#include "trace.h"
#include "xar/concurrent_xar.h"
#include "xarbench.h"

namespace xarbench {
namespace {

constexpr std::size_t kShards = 4;
/// Set-ups per run (see SetupMetric). In some runs the first three or four
/// set-ups take twice as long as the rest, so more of them keep the median
/// among the steady ones.
constexpr std::size_t kSetupRepeats = 16;
constexpr double kRushBeginS = 7.5 * 3600.0;
constexpr double kRushEndS = 9 * 3600.0;
/// Trips per simulated day, and the exact number of rush-hour requests
/// sampled from it, so every seed simulates the same amount of work.
constexpr std::size_t kDayTrips = 30000;
constexpr std::size_t kSimRequests = 2400;

ScenarioConfig Scenario(std::uint64_t seed) {
  ScenarioConfig config;
  config.protocol.window_s = 900.0;
  config.traffic.tick_period_s = 300.0;
  config.traffic.rush_amplitude = 0.35;
  config.events.cancel_probability = 0.05;
  config.events.no_show_probability = 0.05;
  config.refresh_period_s = 450.0;
  config.seed = StreamSeed(seed, 5);
  return config;
}

XarOptions SystemOptions() {
  XarOptions options;
  options.kinetic_booking = true;
  return options;
}

/// kSimRequests trips drawn uniformly from the rush-hour window, in time
/// order.
std::vector<TaxiTrip> RushHour(const World& world, std::uint64_t seed) {
  std::vector<TaxiTrip> window =
      FilterByTimeWindow(world.trips, kRushBeginS, kRushEndS);
  Rng rng(StreamSeed(seed, 4));
  const std::size_t n = std::min(kSimRequests, window.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(window[i], window[i + rng.NextU64() % (window.size() - i)]);
  }
  window.resize(n);
  std::sort(window.begin(), window.end(),
            [](const TaxiTrip& a, const TaxiTrip& b) {
              return a.pickup_time_s < b.pickup_time_s;
            });
  return window;
}

struct SimRep {
  EventSimResult result;
  double wall_s = 0.0;
  /// Wall time of each simulated request's SearchAndBook call (the scenario
  /// books on every request), in ms.
  std::vector<double> request_ms;
  double steal = 0.0;  ///< host steal share while it ran
};

/// Times each SearchAndBook call and forwards everything else untouched.
class TimingSimTarget final : public SimTarget {
 public:
  TimingSimTarget(SimTarget& inner, std::vector<double>* request_ms)
      : inner_(inner), request_ms_(request_ms) {}

  std::vector<RideMatch> Search(const RideRequest& request) const override {
    return inner_.Search(request);
  }
  Result<BookingRecord> SearchAndBook(const RideRequest& request) override {
    const SteadyTime t0 = std::chrono::steady_clock::now();
    Result<BookingRecord> booked = inner_.SearchAndBook(request);
    request_ms_->push_back(SecondsSince(t0) * 1e3);
    return booked;
  }
  Result<RideId> CreateRide(const RideOffer& offer) override {
    return inner_.CreateRide(offer);
  }
  Status CancelBooking(RideId ride, RequestId request) override {
    return inner_.CancelBooking(ride, request);
  }
  Status ReportNoShow(RideId ride, RequestId request) override {
    return inner_.ReportNoShow(ride, request);
  }
  void AdvanceTime(double now_s) override { inner_.AdvanceTime(now_s); }
  RefreshStats RefreshDiscretization(const GraphDelta& delta) override {
    return inner_.RefreshDiscretization(delta);
  }
  Result<Ride> GetRide(RideId id) const override { return inner_.GetRide(id); }
  std::uint64_t epoch() const override { return inner_.epoch(); }

 private:
  SimTarget& inner_;
  std::vector<double>* request_ms_;
};

/// One untraced repetition on a fresh system (the world's oracle is shared,
/// so its cache is warm after the first repetition).
SimRep RunPlain(const World& world, const std::vector<TaxiTrip>& trips,
                std::uint64_t seed, const StealMonitor& host) {
  ConcurrentXarSystem system(world.graph, *world.spatial, *world.region,
                             *world.oracle, SystemOptions(), kShards);
  EventSim sim(world.graph, SystemOptions(), Scenario(seed));
  std::unique_ptr<SimTarget> inner = MakeSimTarget(system);
  SimRep rep;
  rep.request_ms.reserve(trips.size());
  TimingSimTarget target(*inner, &rep.request_ms);
  const SteadyTime t0 = std::chrono::steady_clock::now();
  rep.result = sim.Run(target, trips);
  rep.wall_s = SecondsSince(t0);
  rep.steal = host.Share(t0, std::chrono::steady_clock::now());
  return rep;
}

/// Per-layer totals of the traced repetitions.
struct TracedTotals {
  LayerInputs layers;
  double wall_s = 0;
};

SimRep RunTraced(const World& world, const std::vector<TaxiTrip>& trips,
                 std::uint64_t seed, SpanRecorder* recorder,
                 TracedTotals* totals) {
  TracingOracle oracle(*world.oracle, *recorder);
  const OracleCounters oracle_before = OracleCounters::Of(*world.oracle);
  ConcurrentXarSystem system(world.graph, *world.spatial, *world.region,
                             oracle, SystemOptions(), kShards);
  EventSim sim(world.graph, SystemOptions(), Scenario(seed));
  std::unique_ptr<SimTarget> inner = MakeSimTarget(system);
  TracingSimTarget target(*inner, *recorder);
  SimRep rep;
  recorder->Enable(true);
  const SteadyTime t0 = std::chrono::steady_clock::now();
  rep.result = sim.Run(target, trips);
  rep.wall_s = SecondsSince(t0);
  recorder->Enable(false);

  // The system is fresh, so its cumulative counters are this repetition's.
  LayerInputs& in = totals->layers;
  totals->wall_s += rep.wall_s;
  in.requests += static_cast<double>(rep.result.requests);
  in.edge_traversals += static_cast<double>(rep.result.edge_traversals);
  in.sim_refreshes += static_cast<double>(rep.result.refreshes);
  const RetryStats r = system.retry_stats();
  in.retry.booked_first_try += r.booked_first_try;
  in.retry.booked_after_research += r.booked_after_research;
  in.retry.stale_rejections += r.stale_rejections;
  in.retry.priced_candidates += r.priced_candidates;
  in.retry.priced_dropped += r.priced_dropped;
  const MatchIndexStats m = system.match_stats();
  in.match += m.counters;
  in.index_bytes = static_cast<double>(m.bytes);
  in.pooling += system.pooling_stats();
  in.oracle += OracleCounters::Of(*world.oracle) - oracle_before;
  in.oracle += target.RefreshOracleCounters();
  in.refresh_stats.insert(in.refresh_stats.end(), target.refreshes().begin(),
                          target.refreshes().end());
  return rep;
}

void CheckResult(const EventSimResult& r, std::size_t trips, Report* report) {
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "%zu requests, %zu matched, %zu refreshes, %zu eta samples, "
                "fingerprint %016llx",
                r.requests, r.matched, r.refreshes, r.eta_samples,
                static_cast<unsigned long long>(r.fingerprint));
  report->Check("sim_result",
                r.requests == trips && r.matched > 0 && r.refreshes > 0 &&
                    r.eta_samples > 0,
                detail);
}

/// Repetitions until `seconds` have passed (at least `min_reps`); the first
/// one warms the shared oracle and is not measured.
std::vector<SimRep> PlainReps(const World& world,
                              const std::vector<TaxiTrip>& trips,
                              std::uint64_t seed, double seconds,
                              std::size_t min_reps, const StealMonitor& host) {
  std::vector<SimRep> reps;
  const SteadyTime t0 = std::chrono::steady_clock::now();
  while (reps.size() < min_reps || SecondsSince(t0) < seconds) {
    reps.push_back(RunPlain(world, trips, seed, host));
  }
  return reps;
}

/// The repetitions after the first `skip` that saw the least host steal:
/// the quietest quarter, or more on ties.
std::vector<SimRep> QuietReps(const std::vector<SimRep>& reps,
                              std::size_t skip) {
  std::vector<double> shares;
  for (std::size_t i = skip; i < reps.size(); ++i) {
    shares.push_back(reps[i].steal);
  }
  const std::vector<bool> keep = Quietest(shares);
  std::vector<SimRep> quiet;
  for (std::size_t i = skip; i < reps.size(); ++i) {
    if (keep[i - skip]) quiet.push_back(reps[i]);
  }
  return quiet;
}

/// The median over the repetitions of each one's `q`-quantile of request
/// latency.
double MedianRequestMs(const std::vector<SimRep>& reps, double q) {
  std::vector<double> per_rep;
  for (const SimRep& rep : reps) {
    per_rep.push_back(Quantile(rep.request_ms, q));
  }
  return Quantile(per_rep, 0.5);
}

double MedianRate(const std::vector<SimRep>& reps, std::size_t skip) {
  std::vector<double> rates;
  for (std::size_t i = skip; i < reps.size(); ++i) {
    rates.push_back(static_cast<double>(reps[i].result.requests) /
                    reps[i].wall_s);
  }
  return Quantile(rates, 0.5);
}

void CheckDeterministic(const std::vector<SimRep>& reps,
                        const std::string& name, std::uint64_t expected,
                        Report* report) {
  std::size_t same = 0;
  for (const SimRep& rep : reps) {
    if (rep.result.fingerprint == expected) ++same;
  }
  char detail[120];
  std::snprintf(detail, sizeof(detail), "%zu/%zu repetitions match %016llx",
                same, reps.size(), static_cast<unsigned long long>(expected));
  report->Check(name, same == reps.size(), detail);
}

void LayerMetrics(TracedTotals* t, std::vector<Span> spans,
                  double plain_rate, double traced_rate, double eta_error_s,
                  double eta_samples, Report* report) {
  LayerInputs& in = t->layers;
  // Simulator self time: Run wall time minus the time spent inside the
  // top-level SimTarget spans.
  double in_target_ms = 0.0;
  for (const Span& s : spans) {
    if (s.parent == Span::kNoParent && !IsOracleSpan(s.kind)) {
      in_target_ms += s.dur_ms();
    }
  }
  in.refresh_ms = SpanMs(spans, SpanKind::kRefresh, false);
  in.call_label = "sim";
  in.request_label = "sim requests";
  in.call_spans = spans;
  in.oracle_spans = std::move(spans);
  in.sim_self_ms = (t->wall_s * 1e3 - in_target_ms) / in.repetitions;
  in.edge_traversals /= in.repetitions;
  in.sim_refreshes /= in.repetitions;
  in.eta_error_s = eta_error_s;
  in.eta_samples = eta_samples;
  in.trace_overhead = Ratio(plain_rate, traced_rate) - 1.0;
  in.overhead_label = "(untraced / traced sim requests per s - 1)";
  ReportLayers(in, report);
}

}  // namespace

void RunCitySim(const Args& args, const StealMonitor& host, Report* report) {
  std::vector<double> setup_s, setup_steal;
  std::unique_ptr<World> world;
  std::vector<TaxiTrip> trips;
  const std::size_t setups = args.trace ? 1 : kSetupRepeats;
  for (std::size_t rep = 0; rep < setups; ++rep) {
    world.reset();
    const SteadyTime t0 = std::chrono::steady_clock::now();
    world = BuildWorld(kDayTrips, args.seed);
    trips = RushHour(*world, args.seed);
    setup_s.push_back(SecondsSince(t0));
    setup_steal.push_back(
        host.Share(t0, std::chrono::steady_clock::now()));
  }
  PrintSetupTimes(setup_s, setup_steal);
  std::printf("setup: %zu rush-hour trips, %zu repetitions of set-up\n",
              trips.size(), setups);

  if (!args.trace) {
    const std::vector<SimRep> reps =
        PlainReps(*world, trips, args.seed, args.seconds, 3, host);
    const EventSimResult& r = reps.back().result;
    CheckResult(r, trips.size(), report);
    CheckDeterministic(reps, "fingerprint_repeats", r.fingerprint, report);
    report->AddAttempts(static_cast<std::uint64_t>(r.requests) * (reps.size() - 1),
                        0);
    std::printf("%zu repetitions (first warms the oracle cache), req/s "
                "(host steal %%):", reps.size());
    for (const SimRep& rep : reps) {
      std::printf(" %.1f (%.1f)",
                  static_cast<double>(rep.result.requests) / rep.wall_s,
                  100.0 * rep.steal);
    }
    std::printf("\n");
    const std::vector<SimRep> quiet = QuietReps(reps, 1);
    std::printf("end-to-end metrics:\n");
    SetupMetric(setup_s, setup_steal, report);
    report->Metric("rss_mb", PeakRssMb(), "MB");
    char measured[160];
    std::snprintf(measured, sizeof(measured),
                  "(median over the %zu of %zu measured repetitions with "
                  "least host steal)",
                  quiet.size(), reps.size() - 1);
    report->Metric("request_p50_ms", MedianRequestMs(quiet, 0.50), "ms",
                   std::string(measured) + ", in-process SearchAndBook");
    report->Metric("request_p99_ms", MedianRequestMs(quiet, 0.99), "ms",
                   std::string(measured) + ", in-process SearchAndBook");
    report->Metric("goodput_rps", MedianRate(quiet, 0), "req/s",
                   std::string(measured) + ", simulated requests per s");
    report->Metric("match_rate",
                   Ratio(static_cast<double>(r.matched),
                         static_cast<double>(r.requests)),
                   "ratio", Base("requests", r.requests));
    std::printf("  %-36s %14.6f s      %s, not in the result\n",
                "eta_error_s", r.mean_eta_error_s,
                Base("completed rides", r.eta_samples).c_str());
    return;
  }

  const std::vector<SimRep> plain =
      PlainReps(*world, trips, args.seed, args.seconds / 2, 2, host);
  const std::uint64_t fingerprint = plain.back().result.fingerprint;
  CheckResult(plain.back().result, trips.size(), report);
  SpanRecorder recorder;
  TracedTotals totals;
  std::vector<SimRep> traced;
  const SteadyTime t0 = std::chrono::steady_clock::now();
  while (traced.empty() || SecondsSince(t0) < args.seconds / 2) {
    traced.push_back(RunTraced(*world, trips, args.seed, &recorder, &totals));
  }
  CheckDeterministic(plain, "fingerprint_repeats", fingerprint, report);
  CheckDeterministic(traced, "fingerprint_traced", fingerprint, report);
  totals.layers.repetitions = static_cast<double>(traced.size());
  report->AddAttempts(static_cast<std::uint64_t>(totals.layers.requests), 0);
  std::vector<Span> spans = recorder.Collect();
  const std::string path = args.out_dir + "/spans_city_sim.csv";
  recorder.WriteCsv(path);
  std::printf("%zu untraced + %zu traced repetitions; %zu spans written to %s\n",
              plain.size(), traced.size(), spans.size(), path.c_str());
  report->Note(
      "oracle spans cover every epoch: the SimTarget decorator wraps the "
      "oracle EventSim builds at each refresh. Not covered from outside: the "
      "landmark-matrix batch of a rebuild, which calls the routing backend "
      "directly and shows only in discretize.matrix_ms");
  std::printf("per-layer metrics:\n");
  const EventSimResult& last = traced.back().result;
  LayerMetrics(&totals, std::move(spans), MedianRate(plain, 1),
               MedianRate(traced, 0), last.mean_eta_error_s,
               static_cast<double>(last.eta_samples), report);
}

}  // namespace xarbench
