#include "xar/concurrent_xar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "tests/test_helpers.h"
#include "workload/trip_generator.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

void ExpectSameMatches(const std::vector<RideMatch>& a,
                       const std::vector<RideMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ride, b[i].ride);
    EXPECT_DOUBLE_EQ(a[i].walk_source_m, b[i].walk_source_m);
    EXPECT_DOUBLE_EQ(a[i].walk_dest_m, b[i].walk_dest_m);
    EXPECT_DOUBLE_EQ(a[i].eta_source_s, b[i].eta_source_s);
    EXPECT_DOUBLE_EQ(a[i].eta_dest_s, b[i].eta_dest_s);
    EXPECT_DOUBLE_EQ(a[i].detour_estimate_m, b[i].detour_estimate_m);
    EXPECT_EQ(a[i].source_cluster, b[i].source_cluster);
    EXPECT_EQ(a[i].dest_cluster, b[i].dest_cluster);
    EXPECT_EQ(a[i].pickup_landmark, b[i].pickup_landmark);
    EXPECT_EQ(a[i].dropoff_landmark, b[i].dropoff_landmark);
  }
}

class ConcurrentXarTest : public ::testing::Test {
 protected:
  ConcurrentXarTest()
      : city_(SharedCity()),
        oracle_(city_.graph),
        xar_(city_.graph, *city_.spatial, *city_.region, oracle_) {}

  std::vector<TaxiTrip> Trips(std::size_t n, std::uint64_t seed) {
    WorkloadOptions opt;
    opt.num_trips = n;
    opt.seed = seed;
    return GenerateTrips(city_.graph.bounds(), opt);
  }

  // Creates one ride per generated trip; round-robin shard assignment keeps
  // the id sequence identical for every shard count.
  void LoadSupply(ConcurrentXarSystem& xar, std::size_t n, std::uint64_t seed) {
    for (const TaxiTrip& t : Trips(n, seed)) {
      RideOffer offer;
      offer.source = t.pickup;
      offer.destination = t.dropoff;
      offer.departure_time_s = t.pickup_time_s;
      (void)xar.CreateRide(offer);
    }
  }

  RideRequest ToRequest(const TaxiTrip& t) const {
    RideRequest req;
    req.id = t.id;
    req.source = t.pickup;
    req.destination = t.dropoff;
    req.earliest_departure_s = t.pickup_time_s;
    req.latest_departure_s = t.pickup_time_s + 900;
    return req;
  }

  TestCity& city_;
  GraphOracle oracle_;
  ConcurrentXarSystem xar_;
};

TEST_F(ConcurrentXarTest, SingleThreadedSemanticsMatchPlainSystem) {
  GraphOracle plain_oracle(city_.graph);
  XarSystem plain(city_.graph, *city_.spatial, *city_.region, plain_oracle);
  for (const TaxiTrip& t : Trips(120, 70)) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    Result<RideId> a = xar_.CreateRide(offer);
    Result<RideId> b = plain.CreateRide(offer);
    ASSERT_EQ(a.ok(), b.ok());
  }
  for (const TaxiTrip& t : Trips(60, 71)) {
    RideRequest req = ToRequest(t);
    std::vector<RideMatch> a = xar_.Search(req);
    std::vector<RideMatch> b = plain.Search(req);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].ride, b[i].ride);
  }
}

TEST_F(ConcurrentXarTest, ShardedSearchMatchesSingleShardSystem) {
  // The same supply loaded into a 4-shard and a 1-shard system (round-robin
  // creation keeps the id sequence identical) must yield identical search
  // results, both in full and truncated to a top-k after the shard merge.
  GraphOracle sharded_oracle(city_.graph);
  GraphOracle single_oracle(city_.graph);
  ConcurrentXarSystem sharded(city_.graph, *city_.spatial, *city_.region,
                              sharded_oracle, {}, /*num_shards=*/4);
  ConcurrentXarSystem single(city_.graph, *city_.spatial, *city_.region,
                             single_oracle, {}, /*num_shards=*/1);
  for (const TaxiTrip& t : Trips(250, 41)) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    ASSERT_EQ(sharded.CreateRide(offer).ok(), single.CreateRide(offer).ok());
  }
  constexpr std::size_t kK = 2;
  std::size_t nonempty = 0;
  for (const TaxiTrip& t : Trips(100, 53)) {
    RideRequest req = ToRequest(t);
    std::vector<RideMatch> all = single.Search(req);
    ExpectSameMatches(all, sharded.Search(req));
    std::vector<RideMatch> top = sharded.SearchTopK(req, kK);
    EXPECT_LE(top.size(), kK);
    ExpectSameMatches(single.SearchTopK(req, kK), top);
    nonempty += all.empty() ? 0 : 1;
  }
  // The workload must actually exercise matching, or the test is vacuous.
  EXPECT_GT(nonempty, 0u);
}

TEST_F(ConcurrentXarTest, ParallelSearchesIdenticalToSerialSearches) {
  // Searches fanned out across threads over one 4-shard system (each takes
  // every shard's read lock in turn and shares the oracle) must return what
  // the same searches return one after another.
  GraphOracle oracle(city_.graph);
  ConcurrentXarSystem xar(city_.graph, *city_.spatial, *city_.region, oracle,
                          {}, /*num_shards=*/4);
  LoadSupply(xar, 250, 41);
  std::vector<RideRequest> requests;
  for (const TaxiTrip& t : Trips(120, 50)) requests.push_back(ToRequest(t));

  std::vector<std::vector<RideMatch>> serial;
  serial.reserve(requests.size());
  for (const RideRequest& req : requests) serial.push_back(xar.Search(req));

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<RideMatch>> parallel(requests.size());
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < requests.size(); i += kThreads) {
        parallel[i] = xar.Search(requests[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::size_t nonempty = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ExpectSameMatches(serial[i], parallel[i]);
    nonempty += serial[i].empty() ? 0 : 1;
  }
  // The workload must actually exercise matching, or the test is vacuous.
  EXPECT_GT(nonempty, 0u);
}

TEST_F(ConcurrentXarTest, RepeatedSearchesAreDeterministic) {
  // Search leaves no state behind that changes a later answer: the oracle's
  // caches warmed by one pass, run in reverse, yield the first pass's results.
  GraphOracle oracle(city_.graph);
  ConcurrentXarSystem xar(city_.graph, *city_.spatial, *city_.region, oracle,
                          {}, /*num_shards=*/4);
  LoadSupply(xar, 250, 41);
  std::vector<RideRequest> requests;
  for (const TaxiTrip& t : Trips(80, 51)) requests.push_back(ToRequest(t));
  std::vector<std::vector<RideMatch>> first;
  for (const RideRequest& req : requests) first.push_back(xar.Search(req));
  for (std::size_t i = requests.size(); i-- > 0;) {
    ExpectSameMatches(first[i], xar.Search(requests[i]));
  }
}

TEST_F(ConcurrentXarTest, TopKOverrideTruncatesEachResult) {
  // A top-k search across shards keeps exactly the k best-ranked matches of
  // the full (k = 0) result, not k from each shard or an arbitrary k.
  GraphOracle oracle(city_.graph);
  ConcurrentXarSystem xar(city_.graph, *city_.spatial, *city_.region, oracle,
                          {}, /*num_shards=*/4);
  LoadSupply(xar, 250, 41);
  constexpr std::size_t kK = 2;
  std::size_t truncated = 0;
  for (const TaxiTrip& t : Trips(80, 52)) {
    RideRequest req = ToRequest(t);
    std::vector<RideMatch> all = xar.SearchTopK(req, 0);
    std::vector<RideMatch> top = xar.SearchTopK(req, kK);
    ASSERT_EQ(top.size(), std::min(all.size(), kK));
    truncated += all.size() > kK ? 1 : 0;
    all.resize(top.size());
    ExpectSameMatches(all, top);
  }
  // Some request must have had more than k matches to cut.
  EXPECT_GT(truncated, 0u);
}

TEST_F(ConcurrentXarTest, GetRideCopiesState) {
  RideOffer offer;
  const BoundingBox& b = city_.graph.bounds();
  offer.source = {b.min_lat + 0.2 * (b.max_lat - b.min_lat),
                  b.min_lng + 0.2 * (b.max_lng - b.min_lng)};
  offer.destination = {b.min_lat + 0.8 * (b.max_lat - b.min_lat),
                       b.min_lng + 0.8 * (b.max_lng - b.min_lng)};
  offer.departure_time_s = 8 * 3600;
  Result<RideId> ride = xar_.CreateRide(offer);
  ASSERT_TRUE(ride.ok());
  Result<Ride> copy = xar_.GetRide(*ride);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->id, *ride);
  EXPECT_FALSE(xar_.GetRide(RideId(9999)).ok());
}

TEST_F(ConcurrentXarTest, ParallelSearchersWithConcurrentWriters) {
  // Load initial supply.
  std::vector<TaxiTrip> supply = Trips(400, 72);
  for (const TaxiTrip& t : supply) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    (void)xar_.CreateRide(offer);
  }

  std::atomic<std::size_t> searches{0};
  std::atomic<std::size_t> matches{0};
  std::atomic<std::size_t> bookings{0};

  // Finite work per thread: shared_mutex gives no fairness guarantee, so a
  // run-until-stopped reader loop can starve the writer on a single core.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::vector<TaxiTrip> probes =
          Trips(250, 73 + static_cast<std::uint64_t>(r));
      for (const TaxiTrip& t : probes) {
        std::vector<RideMatch> found = xar_.Search(ToRequest(t));
        searches.fetch_add(1, std::memory_order_relaxed);
        matches.fetch_add(found.size(), std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }

  std::thread writer([&] {
    std::vector<TaxiTrip> stream = Trips(150, 80);
    for (const TaxiTrip& t : stream) {
      Result<BookingRecord> booked = xar_.SearchAndBook(ToRequest(t));
      if (booked.ok()) {
        bookings.fetch_add(1, std::memory_order_relaxed);
      } else {
        RideOffer offer;
        offer.source = t.pickup;
        offer.destination = t.dropoff;
        offer.departure_time_s = t.pickup_time_s;
        (void)xar_.CreateRide(offer);
      }
      std::this_thread::yield();
    }
  });

  writer.join();
  for (std::thread& th : readers) th.join();

  EXPECT_GT(searches.load(), 0u);
  EXPECT_GT(bookings.load(), 0u);
  // The system is intact after concurrent traffic: a fresh search works and
  // every booking kept the invariants.
  std::vector<TaxiTrip> post = Trips(50, 90);
  for (const TaxiTrip& t : post) {
    for (const RideMatch& m : xar_.Search(ToRequest(t))) {
      Result<Ride> ride = xar_.GetRide(m.ride);
      ASSERT_TRUE(ride.ok());
      EXPECT_TRUE(ride->active);
      EXPECT_GE(ride->seats_available, 1);
    }
  }
}

TEST_F(ConcurrentXarTest, SearchAndBookIsAtomic) {
  // One ride with one seat, many threads racing SearchAndBook: exactly one
  // can win for each seat; no double-booking.
  RideOffer offer;
  const BoundingBox& b = city_.graph.bounds();
  offer.source = {b.min_lat + 0.1 * (b.max_lat - b.min_lat),
                  b.min_lng + 0.1 * (b.max_lng - b.min_lng)};
  offer.destination = {b.min_lat + 0.9 * (b.max_lat - b.min_lat),
                       b.min_lng + 0.9 * (b.max_lng - b.min_lng)};
  offer.departure_time_s = 8 * 3600;
  offer.seats = 1;
  ASSERT_TRUE(xar_.CreateRide(offer).ok());

  RideRequest base;
  base.source = {b.min_lat + 0.35 * (b.max_lat - b.min_lat),
                 b.min_lng + 0.35 * (b.max_lng - b.min_lng)};
  base.destination = {b.min_lat + 0.7 * (b.max_lat - b.min_lat),
                      b.min_lng + 0.7 * (b.max_lng - b.min_lng)};
  base.earliest_departure_s = 8 * 3600;
  base.latest_departure_s = 8 * 3600 + 1800;

  std::atomic<int> wins{0};
  std::vector<std::thread> riders;
  for (int r = 0; r < 6; ++r) {
    riders.emplace_back([&, r] {
      RideRequest req = base;
      req.id = RequestId(static_cast<RequestId::underlying_type>(100 + r));
      if (xar_.SearchAndBook(req).ok()) wins.fetch_add(1);
    });
  }
  for (std::thread& th : riders) th.join();
  EXPECT_EQ(wins.load(), 1);
}

/// Corridor helper shared by the retry-policy tests below: a diagonal offer
/// and a request sitting inside it.
struct Corridor {
  RideOffer offer;
  RideRequest request;
};

Corridor MakeCorridor(const BoundingBox& b, std::uint32_t request_id) {
  Corridor c;
  c.offer.source = {b.min_lat + 0.1 * (b.max_lat - b.min_lat),
                    b.min_lng + 0.1 * (b.max_lng - b.min_lng)};
  c.offer.destination = {b.min_lat + 0.9 * (b.max_lat - b.min_lat),
                         b.min_lng + 0.9 * (b.max_lng - b.min_lng)};
  c.offer.departure_time_s = 8 * 3600;
  c.request.id = RequestId(request_id);
  c.request.source = {b.min_lat + 0.35 * (b.max_lat - b.min_lat),
                      b.min_lng + 0.35 * (b.max_lng - b.min_lng)};
  c.request.destination = {b.min_lat + 0.7 * (b.max_lat - b.min_lat),
                           b.min_lng + 0.7 * (b.max_lng - b.min_lng)};
  c.request.earliest_departure_s = 8 * 3600;
  c.request.latest_departure_s = 8 * 3600 + 1800;
  return c;
}

TEST_F(ConcurrentXarTest, RetryCountersTrackOutcomes) {
  Corridor c = MakeCorridor(city_.graph.bounds(), 300);

  // Empty system: the round-0 search is empty on a stable epoch, so
  // SearchAndBook gives up without a retry round.
  EXPECT_FALSE(xar_.SearchAndBook(c.request).ok());
  RetryStats stats = xar_.retry_stats();
  EXPECT_EQ(stats.unmatched, 1u);
  EXPECT_EQ(stats.booked_first_try, 0u);
  EXPECT_EQ(stats.booked_after_research, 0u);
  EXPECT_EQ(stats.stale_rejections, 0u);

  // With supply in place the first optimistic round wins.
  ASSERT_TRUE(xar_.CreateRide(c.offer).ok());
  EXPECT_TRUE(xar_.SearchAndBook(c.request).ok());
  stats = xar_.retry_stats();
  EXPECT_EQ(stats.booked_first_try, 1u);
  EXPECT_EQ(stats.booked_after_research, 0u);
  EXPECT_EQ(stats.stale_rejections, 0u);
  EXPECT_EQ(stats.unmatched, 1u);
}

TEST_F(ConcurrentXarTest, ForcedStaleCandidateIsReSearched) {
  // Ride A has one seat; the victim's round-0 search will find it.
  Corridor c = MakeCorridor(city_.graph.bounds(), 310);
  c.offer.seats = 1;
  Result<RideId> ride_a = xar_.CreateRide(c.offer);
  ASSERT_TRUE(ride_a.ok());

  // The hook fires between the victim's search and its book: a thief takes
  // ride A's only seat (direct Search+Book, not SearchAndBook — the hook
  // must not recurse into itself) and a second identical ride B appears, so
  // the victim's re-search round has somewhere to land.
  std::atomic<bool> fired{false};
  RideOffer offer_b = c.offer;
  xar_.SetPostSearchHookForTest([&](const RideRequest&, std::size_t round) {
    if (round != 0 || fired.exchange(true)) return;
    RideRequest thief = c.request;
    thief.id = RequestId(311);
    std::vector<RideMatch> matches = xar_.Search(thief);
    ASSERT_FALSE(matches.empty());
    ASSERT_TRUE(xar_.Book(matches.front().ride, thief, matches.front()).ok());
    ASSERT_TRUE(xar_.CreateRide(offer_b).ok());
  });

  Result<BookingRecord> booked = xar_.SearchAndBook(c.request);
  ASSERT_TRUE(booked.ok());
  EXPECT_NE(booked->ride, *ride_a);

  RetryStats stats = xar_.retry_stats();
  EXPECT_EQ(stats.booked_first_try, 0u);
  EXPECT_EQ(stats.booked_after_research, 1u);
  EXPECT_GE(stats.stale_rejections, 1u);
  EXPECT_EQ(stats.unmatched, 0u);
}

TEST_F(ConcurrentXarTest, EpochBumpMidSearchTriggersReSearch) {
  // Round 0 searches an empty system — but the hook then creates supply and
  // refreshes, moving the epoch mid-flight. The empty-result-on-stable-epoch
  // early exit must NOT fire, and the re-search round books.
  Corridor c = MakeCorridor(city_.graph.bounds(), 320);
  std::atomic<bool> fired{false};
  xar_.SetPostSearchHookForTest([&](const RideRequest&, std::size_t round) {
    if (round != 0 || fired.exchange(true)) return;
    ASSERT_TRUE(xar_.CreateRide(c.offer).ok());
    (void)xar_.RefreshDiscretization();
  });

  Result<BookingRecord> booked = xar_.SearchAndBook(c.request);
  ASSERT_TRUE(booked.ok());
  EXPECT_EQ(xar_.epoch(), 1u);

  RetryStats stats = xar_.retry_stats();
  EXPECT_EQ(stats.booked_first_try, 0u);
  EXPECT_EQ(stats.booked_after_research, 1u);
  EXPECT_EQ(stats.stale_rejections, 0u);
  EXPECT_EQ(stats.unmatched, 0u);
}

}  // namespace
}  // namespace xar
