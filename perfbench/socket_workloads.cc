// The two socket workloads, search_open and book_mix: a 4-shard
// ConcurrentXarSystem behind XarServeServer, driven over loopback by the
// open-loop generator. A traced second run decorates the served system's
// oracle, and an in-process replay of the same request stream against an
// identically built system times each ConcurrentXarSystem call.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "layers.h"
#include "loadgen.h"
#include "serve/client.h"
#include "serve/server.h"
#include "steal.h"
#include "trace.h"
#include "xar/concurrent_xar.h"
#include "xarbench.h"

namespace xarbench {
namespace {

constexpr std::size_t kShards = 4;
/// Set-up runs this many times per run (see SetupMetric).
constexpr std::size_t kSetupRepeats = 8;
/// Answers are awaited this long past the last due time; a request still
/// unanswered then is a timeout, and every miss is charged this latency.
constexpr double kDrainS = 3.0;
constexpr double kMissMs = kDrainS * 1e3;
/// Departure window every request asks for (the simulators' default).
constexpr double kWindowS = 900.0;
/// Probe sample compared between the wire and in-process search.
constexpr std::size_t kProbes = 64;

// search_open: SEARCH only, at two fixed absolute Poisson rates, chosen once
// against this benchmark's own socket-path capacity on a 4-core x86 VM
// (8k-12k SEARCH/s) and never derived from a measurement in the same run, so
// a parent commit and a change receive the same load. Peak sits well above
// capacity. Nominal sits at about a fifth of it rather than half: at half
// capacity the run-to-run spread (IQR / median over seeds) of the p50 was
// about 0.5 on that host, at a fifth about 0.1. Even there its tail follows
// the host's scheduling noise: at 1000/s as at 2000/s, and taken over the
// quietest quarter of the windows by steal or by generator lag, the p99
// spread 0.5-2.4 over seeds in a noisy hour, against 0.05-0.15 for the p50.
// So search_open is left out of BENCHMARK.json and runs only for reading.
constexpr double kNominalRps = 2000.0;
constexpr double kPeakRps = 16000.0;
/// Latency limit a request must meet to count toward goodput_rps.
constexpr double kGoodputLimitMs = 250.0;
/// Trips per day: every third one is a ride on the road all day long.
constexpr std::size_t kSearchDayTrips = 20000;
constexpr double kNominalShare = 0.6;  ///< of the run; the rest is peak
constexpr double kSearchWarmupS = 0.3;

// book_mix: the trip stream from 08:00 replayed at a fixed time compression;
// each commuter looks kLooks times, then books (look-to-book r = 3).
constexpr double kBookStartS = 8 * 3600.0;
/// A city ten times busier than search_open's, so the 08:00 hour alone
/// offers about 340 commuters per wall second at this compression.
constexpr std::size_t kBookMixDayTrips = 200000;
constexpr double kCompression = 150.0;  ///< sim seconds per wall second
constexpr int kLooks = 3;
constexpr double kLookGapS = 0.010;
constexpr double kAdvanceEveryS = 0.1;
constexpr double kRefreshEveryS = 0.5;
constexpr std::size_t kLoadLanes = 2;
/// The result is taken over the quietest quarter of each measured phase's
/// windows of this length, by host steal (steal.h).
constexpr double kMeasureWindowS = 0.5;

struct Phase {
  std::string name;
  double duration_s = 0.0;
  bool overload = false;  ///< BUSY is expected here (peak), not a failure
  std::vector<Lane> lanes;
  SteadyTime start{};  ///< when the schedule started, once run
};

/// A workload's inputs, all generated from the seed.
struct Plan {
  std::vector<RideOffer> population;  ///< created during set-up
  double clock_s = -1.0;              ///< AdvanceTime before warm-up if >= 0
  std::vector<RideRequest> warm_books;  ///< in-process SearchAndBook warm-up
  std::vector<RideRequest> probes;
  std::vector<Phase> warmup;  ///< wire traffic, not measured
  std::vector<Phase> measured;
};

struct Counters {
  RetryStats retry;
  MatchIndexStats match;
  PoolingStats pooling;
  OracleCounters oracle;
  serve::ServeCounters serve;
  serve::LatencyHistogram::Snapshot search_hist;
  serve::LatencyHistogram::Snapshot sab_hist;
};

/// One deployment: the system and the server in front of it.
struct Served {
  std::unique_ptr<ConcurrentXarSystem> system;
  std::unique_ptr<serve::XarServeServer> server;
};

/// What one driven run leaves for the metrics.
struct ServedRun {
  std::vector<Phase> phases;
  std::vector<Counters> before, after;  ///< per measured phase
  std::vector<RefreshStats> refreshes;  ///< sampled after each refresh
};

Counters Snap(const Served& d, const DistanceOracle& oracle) {
  Counters c;
  c.retry = d.system->retry_stats();
  c.match = d.system->match_stats();
  c.pooling = d.system->pooling_stats();
  c.oracle = OracleCounters::Of(oracle);
  c.serve = d.server->counters();
  c.search_hist = d.server->verb_histogram(serve::Verb::kSearch).Take();
  c.sab_hist = d.server->verb_histogram(serve::Verb::kSearchAndBook).Take();
  return c;
}

/// Stops the server before the system it serves goes away.
void Teardown(Served* d) {
  if (d->server != nullptr) d->server->Stop();
  d->server.reset();
  d->system.reset();
}

Served Deploy(const World& world, DistanceOracle& oracle, const Plan& plan) {
  Served d;
  d.system = std::make_unique<ConcurrentXarSystem>(
      world.graph, *world.spatial, *world.region, oracle, XarOptions{},
      kShards);
  for (const RideOffer& offer : plan.population) {
    if (!d.system->CreateRide(offer).ok()) {
      std::fprintf(stderr, "set-up: CreateRide failed\n");
      std::exit(2);
    }
  }
  if (plan.clock_s >= 0.0) d.system->AdvanceTime(plan.clock_s);
  d.server = std::make_unique<serve::XarServeServer>(*d.system);
  const Status started = d.server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "set-up: server start failed: %s\n",
                 started.ToString().c_str());
    std::exit(2);
  }
  return d;
}

// --- Plans -------------------------------------------------------------------

/// Poisson arrivals at `rps` for `duration_s`, spread round-robin over
/// `lanes` lanes, each a SEARCH for a random commuter trip.
Phase SearchPhase(const std::string& name, double rps, double duration_s,
                  const std::vector<TaxiTrip>& commuters, Rng* rng,
                  std::uint32_t* rider) {
  Phase phase;
  phase.name = name;
  phase.duration_s = duration_s;
  phase.lanes.resize(kLoadLanes);
  double t = 0.0;
  for (std::size_t k = 0;; ++k) {
    t += -std::log(1.0 - rng->NextDouble()) / rps;
    if (t >= duration_s) break;
    Action a;
    a.due_s = t;
    a.op = Op::kSearch;
    // Rider ids cycle so the server's per-connection pending-search map
    // stays bounded over a long run.
    a.request = RequestOf(commuters[rng->NextU64() % commuters.size()],
                          1 + (*rider)++ % 8192, kWindowS);
    phase.lanes[k % kLoadLanes].actions.push_back(a);
  }
  return phase;
}

std::vector<RideRequest> Probes(const std::vector<TaxiTrip>& commuters,
                                Rng* rng) {
  std::vector<RideRequest> probes;
  for (std::size_t i = 0; i < kProbes; ++i) {
    probes.push_back(RequestOf(commuters[rng->NextU64() % commuters.size()],
                               900000 + static_cast<std::uint32_t>(i),
                               kWindowS));
  }
  return probes;
}

// search_open — why: search is shortest-path-free by design, so serve, the
// shard fan-out and the match index do all the work while graph, schedule
// and discretize sit idle. It exercises search, lock-free reader and serve
// changes, and bypasses pricing and refresh changes.
Plan SearchOpenPlan(const World& world, std::uint64_t seed, double seconds) {
  Plan plan;
  std::vector<TaxiTrip> offers, commuters;
  SplitTrips(world.trips, 3, &offers, &commuters);
  for (const TaxiTrip& t : offers) plan.population.push_back(OfferOf(t));
  Rng rng(StreamSeed(seed, 2));
  plan.probes = Probes(commuters, &rng);
  std::uint32_t rider = 0;
  plan.warmup.push_back(SearchPhase("warmup", kNominalRps, kSearchWarmupS,
                                    commuters, &rng, &rider));
  plan.measured.push_back(SearchPhase("nominal", kNominalRps,
                                      seconds * kNominalShare, commuters,
                                      &rng, &rider));
  plan.measured.push_back(SearchPhase("peak", kPeakRps,
                                      seconds * (1.0 - kNominalShare),
                                      commuters, &rng, &rider));
  plan.measured.back().overload = true;
  return plan;
}

// book_mix — why: writes run beside reads. Exclusive shard locks, wave
// pricing through the oracle's many-to-many batch on a warm cache, the Book
// splice, and stale rejections after an epoch swap all happen under search
// traffic, so a change that speeds readers by slowing writers shows here.
Plan BookMixPlan(const World& world, std::uint64_t seed, double seconds) {
  Plan plan;
  const double end_s = kBookStartS + seconds * kCompression;
  Phase phase;
  phase.name = "mix";
  phase.duration_s = seconds;
  phase.lanes.resize(kLoadLanes + 1);
  Lane& supply = phase.lanes[kLoadLanes];  // creates, clock, REFRESH
  std::vector<TaxiTrip> warm_trips;
  std::size_t commuter = 0;
  for (std::size_t i = 0; i < world.trips.size(); ++i) {
    const TaxiTrip& trip = world.trips[i];
    const double t = trip.pickup_time_s;
    const bool offer = i % 3 == 0;
    if (t < kBookStartS - 3600.0 || t >= end_s) continue;
    if (t < kBookStartS) {
      // The hour before the replay: rides already on the road, and the
      // commuters of its last ten minutes book in-process to warm the
      // oracle cache.
      if (offer) {
        plan.population.push_back(OfferOf(trip));
      } else if (t >= kBookStartS - 600.0) {
        warm_trips.push_back(trip);
        plan.warm_books.push_back(
            RequestOf(trip, 500000 + static_cast<std::uint32_t>(i),
                      kWindowS));
      }
      continue;
    }
    const double due = (t - kBookStartS) / kCompression;
    Action a;
    a.due_s = due;
    if (offer) {
      a.op = Op::kCreate;
      a.offer = OfferOf(trip);
      supply.actions.push_back(a);
      continue;
    }
    a.request = RequestOf(trip, 1000000 + static_cast<std::uint32_t>(i),
                          kWindowS);
    Lane& lane = phase.lanes[commuter++ % kLoadLanes];
    for (int look = 0; look <= kLooks; ++look) {
      a.op = look < kLooks ? Op::kSearch : Op::kSearchAndBook;
      a.due_s = due + look * kLookGapS;
      lane.actions.push_back(a);
    }
  }
  for (double t = 0.0; t < seconds; t += kAdvanceEveryS) {
    Action a;
    a.due_s = t;
    a.op = Op::kAdvance;
    a.sim_time_s = kBookStartS + t * kCompression;
    supply.actions.push_back(a);
  }
  for (double t = kRefreshEveryS / 2; t < seconds; t += kRefreshEveryS) {
    Action a;
    a.due_s = t;
    a.op = Op::kRefresh;
    supply.actions.push_back(a);
  }
  for (Lane& lane : phase.lanes) {
    std::stable_sort(lane.actions.begin(), lane.actions.end(),
                     [](const Action& a, const Action& b) {
                       return a.due_s < b.due_s;
                     });
  }
  plan.clock_s = kBookStartS;
  Rng rng(StreamSeed(seed, 3));
  plan.probes = Probes(warm_trips, &rng);
  plan.measured.push_back(std::move(phase));
  return plan;
}

// --- Checks ------------------------------------------------------------------

/// Wire SEARCH answers for the probe sample must equal in-process SearchTopK
/// on the same quiescent system, row for row and bit for bit.
void CheckProbes(const Served& d, const Plan& plan, const std::string& tag,
                 Report* report) {
  serve::ServeClient client;
  std::size_t equal = 0, rows = 0;
  std::string first_error;
  if (Status s = client.Connect(d.server->port()); !s.ok()) {
    first_error = s.ToString();
  }
  for (const RideRequest& r : plan.probes) {
    if (!client.connected()) break;
    serve::SearchPayload p;
    p.rider_id = r.id.value();
    p.source_lat = r.source.lat;
    p.source_lng = r.source.lng;
    p.dest_lat = r.destination.lat;
    p.dest_lng = r.destination.lng;
    p.earliest_departure_s = r.earliest_departure_s;
    p.latest_departure_s = r.latest_departure_s;
    p.walk_limit_m = r.walk_limit_m;
    p.top_k = kTopK;
    Result<serve::SearchResult> wire = client.Search(p);
    const std::vector<RideMatch> local = d.system->SearchTopK(r, kTopK);
    bool same = wire.ok() && wire->matches.size() == local.size();
    for (std::size_t i = 0; same && i < local.size(); ++i) {
      const serve::MatchRow& w = wire->matches[i];
      same = w.ride_id == local[i].ride.value() &&
             w.walk_m == local[i].TotalWalkM() &&
             w.eta_s == local[i].eta_source_s &&
             w.detour_m == local[i].detour_estimate_m;
    }
    if (same) {
      ++equal;
      rows += local.size();
    } else if (first_error.empty()) {
      first_error = "probe rider " + std::to_string(r.id.value());
    }
  }
  char detail[160];
  std::snprintf(detail, sizeof(detail), "%zu/%zu probes equal, %zu rows %s",
                equal, plan.probes.size(), rows, first_error.c_str());
  // A probe set whose answers are all empty would prove nothing.
  report->Check("probe_search" + tag, equal == plan.probes.size() && rows > 0,
                detail);
}

/// The server must have completed exactly the requests answered by a
/// worker, shed exactly the BUSY ones, and left nothing unanswered.
void CheckAnswered(const Phase& phase, const Counters& before,
                   const Counters& after, const std::string& tag,
                   Report* report) {
  Tally all;
  for (Op op : {Op::kSearch, Op::kSearchAndBook, Op::kRefresh}) {
    const Tally t = TallyOf(phase.lanes, op);
    all.attempted += t.attempted;
    all.ok += t.ok;
    all.busy += t.busy;
    all.failed += t.failed;
    all.error += t.error;
    all.timeout += t.timeout;
  }
  const std::uint64_t completed = after.serve.completed - before.serve.completed;
  const std::uint64_t shed = after.serve.shed - before.serve.shed;
  const bool ok = completed == all.ok + all.failed && shed == all.busy &&
                  all.error == 0 && all.timeout == 0;
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "server completed %llu shed %llu; client %s",
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(shed), all.ToString().c_str());
  report->Check("answered_" + phase.name + tag, ok, detail);
}

/// Every ride's booked seats must agree with the bookings the clients were
/// told about (warm-up bookings plus OK SEARCH_AND_BOOK answers).
void CheckSeats(const Served& d, const std::vector<std::uint32_t>& booked,
                const std::string& tag, Report* report) {
  std::map<std::uint32_t, int> expected;
  for (std::uint32_t ride : booked) ++expected[ride];
  const std::size_t rides = d.system->NumRides();
  std::size_t agree = 0;
  std::size_t seats = 0;
  for (std::size_t id = 0; id < rides; ++id) {
    Result<Ride> ride = d.system->GetRide(RideId(static_cast<std::uint32_t>(id)));
    if (!ride.ok()) continue;
    const int used = ride->seats_total - ride->seats_available;
    const auto it = expected.find(static_cast<std::uint32_t>(id));
    const int want = it == expected.end() ? 0 : it->second;
    seats += static_cast<std::size_t>(used);
    if (used == want) ++agree;
  }
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "%zu/%zu rides agree, %zu seats booked, %zu bookings answered",
                agree, rides, seats, booked.size());
  report->Check("booked_seats" + tag, agree == rides && seats == booked.size(),
                detail);
}

// --- Driving -----------------------------------------------------------------

/// Warm-up, output checks and the measured phases against one deployment.
/// With a recorder, spans are recorded during the measured phases only.
ServedRun Drive(Served& d, const DistanceOracle& oracle, const Plan& plan,
                SpanRecorder* recorder, const std::string& tag,
                Report* report) {
  ServedRun run;
  std::vector<std::uint32_t> booked;
  for (const RideRequest& r : plan.warm_books) {
    Result<BookingRecord> b = d.system->SearchAndBook(r);
    if (b.ok()) booked.push_back(b->ride.value());
  }
  CheckProbes(d, plan, tag, report);

  ConcurrentXarSystem& system = *d.system;
  std::uint64_t refreshes_seen = system.refresh_stats().refreshes;
  const LocalFn local = [&](const Action& a) {
    if (a.op == Op::kCreate) return system.CreateRide(a.offer).ok();
    system.AdvanceTime(a.sim_time_s);
    // The clock tick also samples the refresh counters, so each REFRESH's
    // own stats are kept (the system exposes only the last one).
    const RefreshStats stats = system.refresh_stats();
    if (stats.refreshes != refreshes_seen) {
      refreshes_seen = stats.refreshes;
      run.refreshes.push_back(stats);
    }
    return true;
  };

  for (Phase phase : plan.warmup) {
    RunLanes(d.server->port(), &phase.lanes, kDrainS, local);
  }
  for (const Phase& planned : plan.measured) {
    Phase phase = planned;
    run.before.push_back(Snap(d, oracle));
    if (recorder != nullptr) recorder->Enable(true);
    phase.start = RunLanes(d.server->port(), &phase.lanes, kDrainS, local);
    if (recorder != nullptr) recorder->Enable(false);
    run.after.push_back(Snap(d, oracle));
    std::printf("phase %s%s done, peak RSS %.1f MB\n", phase.name.c_str(),
                tag.c_str(), PeakRssMb());
    CheckAnswered(phase, run.before.back(), run.after.back(), tag, report);
    for (const Lane& lane : phase.lanes) {
      for (std::size_t i = 0; i < lane.actions.size(); ++i) {
        if (lane.actions[i].op == Op::kSearchAndBook &&
            lane.done[i].outcome == Outcome::kOk) {
          booked.push_back(lane.done[i].ride_id);
        }
      }
    }
    run.phases.push_back(std::move(phase));
  }
  if (!plan.warm_books.empty() || !booked.empty()) {
    CheckSeats(d, booked, tag, report);
  }
  return run;
}

/// Replays the measured stream in-process, in due order, one call at a time,
/// with a span around each ConcurrentXarSystem call.
void Replay(ConcurrentXarSystem& system, const Plan& plan,
            SpanRecorder* recorder) {
  for (const RideRequest& r : plan.warm_books) (void)system.SearchAndBook(r);
  std::vector<const Action*> stream;
  for (const Phase& phase : plan.measured) {
    if (phase.overload) continue;  // same requests as nominal, faster
    for (const Lane& lane : phase.lanes) {
      for (const Action& a : lane.actions) stream.push_back(&a);
    }
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Action* a, const Action* b) {
                     return a->due_s < b->due_s;
                   });
  recorder->Enable(true);
  for (const Action* a : stream) {
    switch (a->op) {
      case Op::kSearch: {
        SpanRecorder::Scope span(recorder, SpanKind::kSearch);
        (void)system.SearchTopK(a->request, kTopK);
        break;
      }
      case Op::kSearchAndBook: {
        SpanRecorder::Scope span(recorder, SpanKind::kSearchAndBook);
        (void)system.SearchAndBook(a->request);
        break;
      }
      case Op::kRefresh: {
        SpanRecorder::Scope span(recorder, SpanKind::kRefresh);
        (void)system.RefreshDiscretization();
        break;
      }
      case Op::kCreate: {
        SpanRecorder::Scope span(recorder, SpanKind::kCreate);
        (void)system.CreateRide(a->offer);
        break;
      }
      case Op::kAdvance: {
        SpanRecorder::Scope span(recorder, SpanKind::kAdvance);
        system.AdvanceTime(a->sim_time_s);
        break;
      }
    }
  }
  recorder->Enable(false);
}

// --- Metrics -----------------------------------------------------------------

void PrintPhases(const ServedRun& run, const std::string& tag) {
  for (const Phase& phase : run.phases) {
    const std::vector<double> lag = LagsMs(phase.lanes);
    std::printf("phase %s%s (%.2f s, gen lag p99 %.3f ms over %zu sends)\n",
                phase.name.c_str(), tag.c_str(), phase.duration_s,
                Quantile(lag, 0.99), lag.size());
    for (Op op : {Op::kSearch, Op::kSearchAndBook, Op::kRefresh}) {
      const Tally t = TallyOf(phase.lanes, op);
      if (t.attempted == 0) continue;
      const char* name = op == Op::kSearch          ? "SEARCH"
                         : op == Op::kSearchAndBook ? "SEARCH_AND_BOOK"
                                                    : "REFRESH";
      std::printf("  %-16s %s\n", name, t.ToString().c_str());
    }
  }
}

/// Operations that failed: errors and timeouts everywhere, BUSY outside an
/// overload phase, application failures except an unmatched booking.
void CountAttempts(const ServedRun& run, Report* report) {
  std::uint64_t attempted = 0, failed = 0;
  for (const Phase& phase : run.phases) {
    for (Op op : {Op::kSearch, Op::kSearchAndBook, Op::kRefresh, Op::kCreate,
                  Op::kAdvance}) {
      const Tally t = TallyOf(phase.lanes, op);
      attempted += t.attempted;
      failed += t.error + t.timeout + (phase.overload ? 0 : t.busy) +
                (op == Op::kSearchAndBook ? 0 : t.failed);
    }
  }
  report->AddAttempts(attempted, failed);
}

/// Prints `op`'s p50 and p99 latency from due over the whole phase, for
/// reading beside the result.
void PrintOpLatency(const Phase& phase, Op op, const char* name,
                    bool failed_is_answer) {
  const std::vector<double> ms =
      LatenciesMs(phase.lanes, {op}, kMeasureWindowS, {}, kMissMs,
                  failed_is_answer);
  std::printf("  %-36s %14.6f ms     (all %zu), not in the result\n",
              (std::string(name) + "_p50_ms").c_str(), Quantile(ms, 0.50),
              ms.size());
  std::printf("  %-36s %14.6f ms     (all %zu), not in the result\n",
              (std::string(name) + "_p99_ms").c_str(), Quantile(ms, 0.99),
              ms.size());
}

/// Prints latency quantiles of the requests in `ops` over the whole phase,
/// for reading: it shows where the result's percentiles sit in the
/// distribution, e.g. whether the p99 is among the requests caught behind a
/// REFRESH.
void PrintLadder(const Phase& phase, std::initializer_list<Op> ops,
                 bool failed_is_answer) {
  const std::vector<double> ms =
      LatenciesMs(phase.lanes, ops, kMeasureWindowS, {}, kMissMs,
                  failed_is_answer);
  std::printf("  request latency over all windows (ms):");
  for (double q : {0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    std::printf(" p%g %.3f", q * 100, Quantile(ms, q));
  }
  std::printf(" (%zu requests)\n", ms.size());
}

/// The phase's kMeasureWindowS windows that lost the least busy CPU time to
/// host steal.
std::vector<bool> QuietWindows(const Phase& phase, const StealMonitor& host) {
  return host.QuietWindows(
      phase.start, kMeasureWindowS,
      static_cast<std::size_t>(phase.duration_s / kMeasureWindowS + 1e-9));
}

std::string QuietBase(const std::vector<bool>& keep, const char* what) {
  char base[160];
  std::snprintf(base, sizeof(base),
                "(%s the %zu of %zu %.1f s windows with least host steal)",
                what,
                static_cast<std::size_t>(
                    std::count(keep.begin(), keep.end(), true)),
                keep.size(), kMeasureWindowS);
  return base;
}

/// request_p50_ms and request_p99_ms: latency from due of the requests in
/// `ops` due in the phase's quiet windows. Each window holds one REFRESH in
/// book_mix, so the share of requests caught behind one is kept.
void RequestLatencyMetrics(const Phase& phase, std::initializer_list<Op> ops,
                           bool failed_is_answer, const StealMonitor& host,
                           Report* report) {
  const std::vector<bool> keep = QuietWindows(phase, host);
  const std::vector<double> ms =
      LatenciesMs(phase.lanes, ops, kMeasureWindowS, keep, kMissMs,
                  failed_is_answer);
  const std::string base =
      QuietBase(keep, (std::to_string(ms.size()) + " requests due in").c_str());
  report->Metric("request_p50_ms", Quantile(ms, 0.50), "ms", base);
  report->Metric("request_p99_ms", Quantile(ms, 0.99), "ms", base);
}

/// goodput_rps: requests in `ops` answered within kGoodputLimitMs, per
/// second, the median over the phase's quiet windows. With
/// `failed_is_answer` an application FAILED (an unmatched booking) counts as
/// an answer.
void GoodputMetric(const Phase& phase, std::initializer_list<Op> ops,
                   bool failed_is_answer, const StealMonitor& host,
                   Report* report) {
  const std::vector<bool> keep = QuietWindows(phase, host);
  std::vector<double> good(keep.size(), 0.0);
  for (const Lane& lane : phase.lanes) {
    for (std::size_t i = 0; i < lane.actions.size(); ++i) {
      const Op op = lane.actions[i].op;
      if (std::find(ops.begin(), ops.end(), op) == ops.end()) continue;
      const auto w =
          static_cast<std::size_t>(lane.actions[i].due_s / kMeasureWindowS);
      const Completion& c = lane.done[i];
      const bool answered =
          c.outcome == Outcome::kOk ||
          (failed_is_answer && c.outcome == Outcome::kFailed);
      if (w < good.size() && answered &&
          c.latency_s * 1e3 <= kGoodputLimitMs) {
        good[w] += 1.0 / kMeasureWindowS;
      }
    }
  }
  std::vector<double> kept;
  for (std::size_t w = 0; w < good.size(); ++w) {
    if (keep[w]) kept.push_back(good[w]);
  }
  report->Metric("goodput_rps", Quantile(kept, 0.5), "req/s",
                 QuietBase(keep, ("median over the " + phase.name +
                                  " phase's").c_str()));
}

/// The end-to-end median the traced run repeats, for bench.trace_overhead:
/// SEARCH p50 at nominal, or SEARCH_AND_BOOK p50 in book_mix.
double OverheadProbe(const ServedRun& run, bool book_mix) {
  const Phase& phase = run.phases.front();
  return Quantile(
      book_mix ? LatenciesMs(phase.lanes, {Op::kSearchAndBook},
                             kMeasureWindowS, {}, kMissMs, true)
               : LatenciesMs(phase.lanes, {Op::kSearch}, kMeasureWindowS, {},
                             kMissMs, false),
      0.5);
}

/// Per-layer metrics of the traced served run (B) and the replay (C).
void LayerMetrics(const ServedRun& served, std::vector<Span> served_spans,
                  std::vector<Span> replay_spans, const ServedRun& untraced,
                  bool book_mix, Report* report) {
  LayerInputs in;
  const Counters& first_before = served.before.front();
  const Counters& first_after = served.after.front();
  in.search_residence = serve::LatencyHistogram::Delta(
      first_after.search_hist, first_before.search_hist);
  in.sab_residence = serve::LatencyHistogram::Delta(first_after.sab_hist,
                                                    first_before.sab_hist);
  for (const Lane& lane : served.phases.front().lanes) {
    for (std::size_t i = 0; i < lane.actions.size(); ++i) {
      const Completion& c = lane.done[i];
      if (lane.actions[i].op == Op::kSearch && c.outcome == Outcome::kOk) {
        in.search_rtt_ms.push_back(
            (lane.actions[i].due_s + c.latency_s - c.sent_s) * 1e3);
      }
    }
  }
  for (std::size_t p = 0; p < served.phases.size(); ++p) {
    const Counters& a = served.after[p];
    const Counters& b = served.before[p];
    in.shed += static_cast<double>(a.serve.shed - b.serve.shed);
    in.offered += static_cast<double>(a.serve.shed - b.serve.shed +
                                      a.serve.accepted - b.serve.accepted);
    const RetryStats r = Minus(a.retry, b.retry);
    in.retry.booked_first_try += r.booked_first_try;
    in.retry.booked_after_research += r.booked_after_research;
    in.retry.stale_rejections += r.stale_rejections;
    in.retry.priced_candidates += r.priced_candidates;
    in.retry.priced_dropped += r.priced_dropped;
    in.match += Minus(a.match.counters, b.match.counters);
    in.pooling += Minus(a.pooling, b.pooling);
    in.oracle += a.oracle - b.oracle;
    for (Op op : {Op::kSearch, Op::kSearchAndBook}) {
      in.requests += static_cast<double>(
          TallyOf(served.phases[p].lanes, op).attempted);
    }
    for (const Lane& lane : served.phases[p].lanes) {
      for (std::size_t i = 0; i < lane.actions.size(); ++i) {
        if (lane.actions[i].op == Op::kRefresh &&
            lane.done[i].outcome == Outcome::kOk) {
          in.refresh_ms.push_back(lane.done[i].latency_s * 1e3);
        }
      }
    }
  }
  in.queue_highwater =
      static_cast<double>(served.after.back().serve.queue_highwater);
  in.index_bytes = static_cast<double>(served.after.back().match.bytes);
  in.call_spans = std::move(replay_spans);
  in.call_label = "replayed";
  in.oracle_spans = std::move(served_spans);
  in.request_label = "wire requests";
  in.refresh_stats = served.refreshes;
  for (const Phase& phase : untraced.phases) {
    const std::vector<double> lag = LagsMs(phase.lanes);
    in.gen_lag_ms.insert(in.gen_lag_ms.end(), lag.begin(), lag.end());
  }
  in.trace_overhead =
      Ratio(OverheadProbe(served, book_mix), OverheadProbe(untraced, book_mix)) -
      1.0;
  in.overhead_label = book_mix ? "(book p50 traced / untraced - 1)"
                               : "(search p50 traced / untraced - 1)";
  ReportLayers(in, report);
}

void RunSocketWorkload(const Args& args, bool book_mix,
                       const StealMonitor& host, Report* report) {
  const std::size_t day_trips = book_mix ? kBookMixDayTrips : kSearchDayTrips;
  auto make_plan = [&](const World& world, double seconds) {
    return book_mix ? BookMixPlan(world, args.seed, seconds)
                    : SearchOpenPlan(world, args.seed, seconds);
  };

  if (!args.trace) {
    // Set-up, several times; the last deployment serves the run.
    std::vector<double> setup_s, setup_steal;
    std::unique_ptr<World> world;
    Served served;
    Plan plan;
    for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
      // Free everything before building again, so the peak RSS holds one
      // deployment and one plan, not two.
      Teardown(&served);
      plan = Plan();
      world.reset();
      const SteadyTime t0 = std::chrono::steady_clock::now();
      world = BuildWorld(day_trips, args.seed);
      plan = make_plan(*world, args.seconds);
      served = Deploy(*world, *world->oracle, plan);
      setup_s.push_back(SecondsSince(t0));
      setup_steal.push_back(
          host.Share(t0, std::chrono::steady_clock::now()));
    }
    PrintSetupTimes(setup_s, setup_steal);
    std::printf("setup: %zu rides, %zu trips, server on port %u (%zu workers), "
                "peak RSS %.1f MB\n",
                served.system->NumRides(), world->trips.size(),
                served.server->port(), served.server->num_workers(),
                PeakRssMb());
    ServedRun run = Drive(served, *world->oracle, plan, nullptr, "", report);
    Teardown(&served);
    PrintPhases(run, "");
    CountAttempts(run, report);
    std::printf("end-to-end metrics:\n");
    SetupMetric(setup_s, setup_steal, report);
    report->Metric("rss_mb", PeakRssMb(), "MB");
    if (book_mix) {
      // The request is every look and booking of the mix.
      const Phase& mix = run.phases.front();
      RequestLatencyMetrics(mix, {Op::kSearch, Op::kSearchAndBook}, true, host,
                            report);
      GoodputMetric(mix, {Op::kSearch, Op::kSearchAndBook}, true, host,
                    report);
      const Tally t = TallyOf(mix.lanes, Op::kSearchAndBook);
      report->Metric("match_rate", Ratio(t.ok, t.attempted), "ratio",
                     Base("booking attempts", t.attempted));
      PrintLadder(mix, {Op::kSearch, Op::kSearchAndBook}, true);
      PrintOpLatency(mix, Op::kSearch, "search", false);
      PrintOpLatency(mix, Op::kSearchAndBook, "book", true);
    } else {
      // The request is a SEARCH: latency at nominal, goodput at peak.
      const Phase& nominal = run.phases[0];
      RequestLatencyMetrics(nominal, {Op::kSearch}, false, host, report);
      GoodputMetric(run.phases[1], {Op::kSearch}, false, host, report);
      double attempted = 0, matched = 0;
      for (const Lane& lane : nominal.lanes) {
        for (std::size_t i = 0; i < lane.actions.size(); ++i) {
          ++attempted;
          if (lane.done[i].outcome == Outcome::kOk && lane.done[i].rows > 0) {
            ++matched;
          }
        }
      }
      report->Metric("match_rate", Ratio(matched, attempted), "ratio",
                     Base("nominal searches, share with a ride offered",
                          attempted));
      PrintLadder(nominal, {Op::kSearch}, false);
      PrintOpLatency(nominal, Op::kSearch, "search", false);
    }
    return;
  }

  // Traced: A = untraced baseline, B = served with a tracing oracle,
  // C = in-process replay with spans around each system call. A and B each
  // get half the run.
  const double half = args.seconds / 2;
  std::unique_ptr<World> world = BuildWorld(day_trips, args.seed);
  const Plan plan = make_plan(*world, half);
  ServedRun untraced;
  {
    Served a = Deploy(*world, *world->oracle, plan);
    untraced = Drive(a, *world->oracle, plan, nullptr, "", report);
    Teardown(&a);
  }
  SpanRecorder served_recorder;
  TracingOracle served_oracle(*world->oracle, served_recorder);
  ServedRun traced;
  {
    Served b = Deploy(*world, served_oracle, plan);
    traced = Drive(b, *world->oracle, plan, &served_recorder, "_traced",
                   report);
    Teardown(&b);
  }
  SpanRecorder replay_recorder;
  TracingOracle replay_oracle(*world->oracle, replay_recorder);
  {
    ConcurrentXarSystem c(world->graph, *world->spatial, *world->region,
                          replay_oracle, XarOptions{}, kShards);
    for (const RideOffer& offer : plan.population) (void)c.CreateRide(offer);
    if (plan.clock_s >= 0.0) c.AdvanceTime(plan.clock_s);
    Replay(c, plan, &replay_recorder);
  }
  PrintPhases(untraced, "");
  PrintPhases(traced, " (traced)");
  CountAttempts(traced, report);
  std::vector<Span> served_spans = served_recorder.Collect();
  std::vector<Span> replay_spans = replay_recorder.Collect();
  const std::string stem = args.out_dir + "/spans_" + args.workload;
  served_recorder.WriteCsv(stem + "_served.csv");
  replay_recorder.WriteCsv(stem + "_replay.csv");
  std::printf("spans: %zu served, %zu replayed, written to %s_*.csv\n",
              served_spans.size(), replay_spans.size(), stem.c_str());
  std::printf("per-layer metrics:\n");
  LayerMetrics(traced, std::move(served_spans), std::move(replay_spans),
               untraced, book_mix, report);
}

}  // namespace

void RunSearchOpen(const Args& args, const StealMonitor& host,
                   Report* report) {
  RunSocketWorkload(args, /*book_mix=*/false, host, report);
}

void RunBookMix(const Args& args, const StealMonitor& host, Report* report) {
  RunSocketWorkload(args, /*book_mix=*/true, host, report);
}

}  // namespace xarbench
