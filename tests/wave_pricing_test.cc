// Wave pricing on the booking hot path (ConcurrentXarSystem::PriceWave)
// and the meeting-points scenario (XarOptions::meeting_points): one search
// wave is priced by ONE oracle many-to-many call, pricing never changes a
// booking outcome, the priced detour equals the detour Book actually
// charges, and meeting-point matches keep the paper's 4-epsilon guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/oracle.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

std::vector<TaxiTrip> Trips(const TestCity& city, std::size_t n,
                            std::uint64_t seed) {
  WorkloadOptions opt;
  opt.num_trips = n;
  opt.seed = seed;
  return GenerateTrips(city.graph.bounds(), opt);
}

RideRequest ToRequest(const TaxiTrip& t) {
  RideRequest req;
  req.id = t.id;
  req.source = t.pickup;
  req.destination = t.dropoff;
  req.earliest_departure_s = t.pickup_time_s;
  req.latest_departure_s = t.pickup_time_s + 900;
  return req;
}

/// Creates `n` seeded ride offers on any system with a CreateRide.
template <typename System>
void Seed(System* xar, const TestCity& city, std::size_t n,
          std::uint64_t seed) {
  for (const TaxiTrip& t : Trips(city, n, seed)) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    (void)xar->CreateRide(offer);
  }
}

// The tentpole acceptance check: a booking search with a cold distance
// cache issues exactly ONE many-to-many batch against the backend, no
// matter how many candidates the wave has. (CreateRide routes via
// DriveRoute, which never populates the distance cache, so every pricing
// pair is a miss.) Single-threaded, a rejected wave is never re-searched
// (nothing moved), so one SearchAndBook call prices exactly one wave.
TEST(BatchPricingTest, OneBatchOracleCallPerWave) {
  TestCity& city = SharedCity();
  GraphOracle oracle(city.graph);
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region, oracle, {},
                          /*num_shards=*/1);
  Seed(&xar, city, 250, 410);

  ASSERT_NE(oracle.routing_backend(), nullptr);
  for (const TaxiTrip& t : Trips(city, 120, 411)) {
    RideRequest req = ToRequest(t);
    if (xar.Search(req).empty()) continue;
    // First priced wave on a cold cache: every pricing pair is a miss, so
    // the wave must cost exactly one backend batch (later waves may be
    // partially or fully answered by the distance cache).
    ASSERT_EQ(oracle.routing_backend()->m2m_batch_count(), 0u);
    (void)xar.SearchAndBook(req);
    EXPECT_EQ(oracle.routing_backend()->m2m_batch_count(), 1u)
        << "one search wave must price in one backend batch";
    EXPECT_EQ(xar.retry_stats().priced_waves, 1u);
    EXPECT_GT(xar.retry_stats().priced_candidates, 0u);
    return;
  }
  FAIL() << "workload produced no searchable request";
}

// The priced detour annotated on the winning match is the detour Book then
// actually charges (same splice legs, same replaced spans).
TEST(BatchPricingTest, PricedDetourMatchesBookedActualDetour) {
  TestCity& city = SharedCity();
  GraphOracle oracle(city.graph);
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region, oracle, {},
                          /*num_shards=*/1);
  Seed(&xar, city, 250, 420);

  std::size_t checked = 0;
  for (const TaxiTrip& t : Trips(city, 200, 421)) {
    RideRequest req = ToRequest(t);
    std::vector<RideMatch> matches = xar.Search(req);
    if (matches.empty()) continue;
    xar.PriceWave(&matches);
    for (const RideMatch& match : matches) {
      ASSERT_GE(match.priced_detour_m, 0.0)
          << "a freshly searched match must price";
      Result<BookingRecord> booked = xar.Book(match.ride, req, match);
      if (!booked.ok()) continue;
      EXPECT_NEAR(match.priced_detour_m, booked->actual_detour_m,
                  1e-6 * std::max(1.0, booked->actual_detour_m));
      ++checked;
      break;
    }
    if (checked >= 12) break;
  }
  EXPECT_GE(checked, 3u) << "workload too sparse to exercise pricing";
}

// Pricing is observability, not policy: the priced SearchAndBook pipeline,
// at 1 and at 4 shards, books exactly the rides a plain XarSystem books by
// running Search and then Book on each match in walk order with no pricing
// at all — same ok-ness, same ride, same detour, same walk.
TEST(BatchPricingTest, BookingOutcomesUnchangedByPricing) {
  TestCity& city = SharedCity();
  GraphOracle oracle_plain(city.graph);
  GraphOracle oracle_one(city.graph);
  GraphOracle oracle_four(city.graph);
  XarSystem plain(city.graph, *city.spatial, *city.region, oracle_plain);
  ConcurrentXarSystem one(city.graph, *city.spatial, *city.region, oracle_one,
                          {}, /*num_shards=*/1);
  ConcurrentXarSystem four(city.graph, *city.spatial, *city.region,
                           oracle_four, {}, /*num_shards=*/4);
  Seed(&plain, city, 220, 430);
  Seed(&one, city, 220, 430);
  Seed(&four, city, 220, 430);

  auto book_unpriced = [&](const RideRequest& req) -> Result<BookingRecord> {
    for (const RideMatch& match : plain.Search(req)) {
      Result<BookingRecord> booked = plain.Book(match.ride, req, match);
      if (booked.ok()) return booked;
    }
    return Status::NotFound("no bookable ride for request");
  };

  std::size_t booked = 0;
  for (const TaxiTrip& t : Trips(city, 150, 431)) {
    RideRequest req = ToRequest(t);
    Result<BookingRecord> want = book_unpriced(req);
    for (ConcurrentXarSystem* xar : {&one, &four}) {
      Result<BookingRecord> got = xar->SearchAndBook(req);
      ASSERT_EQ(got.ok(), want.ok())
          << "pricing changed matchability at " << xar->num_shards()
          << " shards";
      if (!got.ok()) continue;
      EXPECT_EQ(got->ride, want->ride);
      EXPECT_DOUBLE_EQ(got->actual_detour_m, want->actual_detour_m);
      EXPECT_DOUBLE_EQ(got->walk_m, want->walk_m);
    }
    if (want.ok()) ++booked;
  }
  EXPECT_GT(booked, 0u);
  EXPECT_GT(one.retry_stats().priced_waves, 0u);
  EXPECT_GT(four.retry_stats().priced_waves, 0u);
}

// meeting_points with one candidate per side is the classic scenario,
// match for match; more candidates can only widen the result set.
TEST(MeetingPointsTest, OneCandidateReproducesClassicSearch) {
  TestCity& city = SharedCity();
  XarOptions classic;
  XarOptions mp1;
  mp1.meeting_points = true;
  mp1.meeting_point_candidates = 1;
  XarOptions mp4;
  mp4.meeting_points = true;
  mp4.meeting_point_candidates = 4;
  XarSystem xar_classic(city.graph, *city.spatial, *city.region, *city.oracle,
                        classic);
  XarSystem xar_mp1(city.graph, *city.spatial, *city.region, *city.oracle,
                    mp1);
  XarSystem xar_mp4(city.graph, *city.spatial, *city.region, *city.oracle,
                    mp4);
  Seed(&xar_classic, city, 220, 440);
  Seed(&xar_mp1, city, 220, 440);
  Seed(&xar_mp4, city, 220, 440);

  std::size_t nonempty = 0;
  std::size_t widened = 0;
  for (const TaxiTrip& t : Trips(city, 120, 441)) {
    RideRequest req = ToRequest(t);
    std::vector<RideMatch> base = xar_classic.Search(req);
    std::vector<RideMatch> k1 = xar_mp1.Search(req);
    ASSERT_EQ(base.size(), k1.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].ride, k1[i].ride);
      EXPECT_DOUBLE_EQ(base[i].TotalWalkM(), k1[i].TotalWalkM());
      EXPECT_EQ(base[i].pickup_landmark, k1[i].pickup_landmark);
      EXPECT_EQ(base[i].dropoff_landmark, k1[i].dropoff_landmark);
    }
    std::vector<RideMatch> k4 = xar_mp4.Search(req);
    EXPECT_GE(k4.size(), base.size())
        << "meeting points may only widen the candidate set";
    if (!base.empty()) ++nonempty;
    if (k4.size() > base.size()) ++widened;
  }
  EXPECT_GT(nonempty, 0u);
  EXPECT_GT(widened, 0u) << "expected at least one request to gain a "
                            "meeting-point alternative";
}

// The paper's detour guarantee survives the meeting-points widening: every
// emitted combination passes the same cluster-level threshold checks, so
// each booking stays within estimated + 4*epsilon (+ the 2*Delta
// grid->landmark association slack).
TEST(MeetingPointsTest, DetourGuaranteeHoldsWithMeetingPoints) {
  TestCity& city = SharedCity();
  GraphOracle oracle(city.graph);
  XarOptions opt;
  opt.meeting_points = true;
  opt.meeting_point_candidates = 4;
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region, oracle,
                          opt, /*num_shards=*/1);
  Seed(&xar, city, 250, 450);

  const double slack = 4 * city.region->epsilon() +
                       2 * city.region->options().max_drive_to_landmark_m;
  std::size_t booked = 0;
  for (const TaxiTrip& t : Trips(city, 200, 451)) {
    Result<BookingRecord> booking = xar.SearchAndBook(ToRequest(t));
    if (!booking.ok()) continue;
    ++booked;
    EXPECT_LE(booking->actual_detour_m,
              booking->estimated_detour_m + slack + 1e-6)
        << "4-epsilon bound violated on a meeting-point booking";
    EXPECT_LE(booking->shortest_path_computations, 4u);
  }
  EXPECT_GT(booked, 5u);
}

// Concurrent wave pricing: the sharded SearchAndBook prices each wave in
// one oracle batch with no shard locks held; the retry stats expose it.
TEST(BatchPricingTest, ConcurrentWavePricingCountsWaves) {
  TestCity& city = SharedCity();
  GraphOracle oracle(city.graph);
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region, oracle, {},
                          /*num_shards=*/4);
  Seed(&xar, city, 250, 460);
  std::size_t booked = 0;
  for (const TaxiTrip& t : Trips(city, 150, 461)) {
    if (xar.SearchAndBook(ToRequest(t)).ok()) ++booked;
  }
  EXPECT_GT(booked, 0u);
  RetryStats stats = xar.retry_stats();
  EXPECT_GT(stats.priced_waves, 0u);
  EXPECT_GE(stats.priced_candidates, stats.priced_waves);
  // Stats surface: the retry section carries the pricing counters.
  StatsSection section = RetryStatsSection(stats);
  std::vector<std::string> names;
  for (const auto& row : section.rows) {
    for (const StatsMetric& m : row) names.push_back(m.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "priced_waves"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "priced_dropped"),
            names.end());
}

// The oracle stats section surfaces the backend batch/fallback counters
// (satellite: STATS observability).
TEST(BatchPricingTest, OracleStatsSectionHasBatchCounters) {
  TestCity& city = SharedCity();
  GraphOracle oracle(city.graph);
  StatsSection section = OracleStatsSection(oracle);
  std::vector<std::string> names;
  for (const auto& row : section.rows) {
    for (const StatsMetric& m : row) names.push_back(m.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "m2m_batch_queries"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "m2m_fallback_queries"),
            names.end());
}

}  // namespace
}  // namespace xar
