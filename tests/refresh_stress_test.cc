// Refresh-under-load stress: a refresher thread repeatedly rebuilds and
// swaps the discretization while booker / searcher / creator threads
// hammer the sharded system. Afterwards nothing may be lost: every created
// ride is still retrievable, seat accounting is exact (no double-booked or
// leaked seat across re-homing), and the epochs the refresher observed are
// strictly monotone. Run under -DXAR_SANITIZE=thread this is the data-race
// detector for the snapshot-swap path (ctest -L stress).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"

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

RideRequest ToRequest(const TaxiTrip& t, std::uint32_t id_offset) {
  RideRequest req;
  req.id = RequestId(id_offset + t.id.value());
  req.source = t.pickup;
  req.destination = t.dropoff;
  req.earliest_departure_s = t.pickup_time_s;
  req.latest_departure_s = t.pickup_time_s + 900;
  return req;
}

TEST(RefreshStressTest, RefreshLoopRacingSearchCreateBook) {
  TestCity& city = SharedCity();
  GraphOracle oracle(city.graph);
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region, oracle, {},
                          /*num_shards=*/4);

  // Initial supply, created before the race so every thread finds matches.
  std::mutex created_mutex;
  std::vector<RideId> created;
  for (const TaxiTrip& t : Trips(city, 250, 80)) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    Result<RideId> ride = xar.CreateRide(offer);
    if (ride.ok()) created.push_back(*ride);
  }
  ASSERT_GT(created.size(), 0u);

  // Winner ledger kept by the bookers themselves, independent of system
  // internals: seats per ride plus every (ride, request) pair booked.
  std::mutex ledger_mutex;
  std::unordered_map<RideId, int> booked_seats;
  std::vector<std::pair<RideId, RequestId>> booked_pairs;
  std::atomic<std::size_t> bookings{0};
  std::atomic<std::size_t> searches{0};

  constexpr std::size_t kRefreshes = 4;
  std::vector<std::uint64_t> observed_epochs;

  std::vector<std::thread> threads;
  // Refresher: rebuild + swap, no-op deltas (same graph, new epoch each
  // time), racing everything below.
  threads.emplace_back([&] {
    for (std::size_t r = 0; r < kRefreshes; ++r) {
      RefreshStats stats = xar.RefreshDiscretization();
      observed_epochs.push_back(stats.epoch);
    }
  });
  // Booker threads: optimistic SearchAndBook streams; a refresh mid-flight
  // surfaces as a stale rejection and a re-search round, never as an error
  // other than NotFound.
  for (int b = 0; b < 2; ++b) {
    threads.emplace_back([&, b] {
      for (const TaxiTrip& t :
           Trips(city, 120, 81 + static_cast<std::uint64_t>(b))) {
        Result<BookingRecord> booking = xar.SearchAndBook(
            ToRequest(t, static_cast<std::uint32_t>(10000 * (b + 1))));
        if (booking.ok()) {
          bookings.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(ledger_mutex);
          booked_seats[booking->ride] += booking->seats;
          booked_pairs.emplace_back(booking->ride, booking->request);
        } else {
          EXPECT_EQ(booking.status().code(), StatusCode::kNotFound);
        }
      }
    });
  }
  // Searcher: a stream of plain searches pinning snapshots mid-refresh.
  threads.emplace_back([&] {
    for (const TaxiTrip& t : Trips(city, 240, 85)) {
      (void)xar.Search(ToRequest(t, 50000));
      searches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Creator: grows the supply while refreshes re-home it.
  threads.emplace_back([&] {
    for (const TaxiTrip& t : Trips(city, 80, 86)) {
      RideOffer offer;
      offer.source = t.pickup;
      offer.destination = t.dropoff;
      offer.departure_time_s = t.pickup_time_s;
      Result<RideId> ride = xar.CreateRide(offer);
      if (ride.ok()) {
        std::lock_guard<std::mutex> lock(created_mutex);
        created.push_back(*ride);
      }
    }
  });
  for (std::thread& th : threads) th.join();

  EXPECT_GT(searches.load(), 0u);
  EXPECT_GT(bookings.load(), 0u);

  // Epochs are strictly monotone and fully adopted.
  ASSERT_EQ(observed_epochs.size(), kRefreshes);
  for (std::size_t i = 0; i < observed_epochs.size(); ++i) {
    EXPECT_EQ(observed_epochs[i], i + 1);
  }
  EXPECT_EQ(xar.epoch(), kRefreshes);
  RefreshStats refresh = xar.refresh_stats();
  EXPECT_EQ(refresh.refreshes, kRefreshes);
  EXPECT_EQ(refresh.epoch, kRefreshes);

  // No lost rides: every id handed out is still resolvable, and re-homing
  // neither dropped nor duplicated entries.
  EXPECT_EQ(xar.NumRides(), created.size());
  for (RideId id : created) {
    ASSERT_TRUE(xar.GetRide(id).ok()) << "ride " << id.value() << " lost";
  }

  // No duplicate bookings: each (ride, request) pair won at most once.
  std::unordered_set<std::uint64_t> seen;
  for (const auto& [ride, request] : booked_pairs) {
    std::uint64_t key =
        (static_cast<std::uint64_t>(ride.value()) << 32) | request.value();
    EXPECT_TRUE(seen.insert(key).second)
        << "request " << request.value() << " booked twice on ride "
        << ride.value();
  }

  // Seat accounting stayed exact across every epoch swap.
  for (RideId id : created) {
    Result<Ride> ride = xar.GetRide(id);
    ASSERT_TRUE(ride.ok());
    int booked = 0;
    if (auto it = booked_seats.find(id); it != booked_seats.end()) {
      booked = it->second;
    }
    EXPECT_GE(ride->seats_available, 0);
    EXPECT_EQ(ride->seats_available, ride->seats_total - booked)
        << "ride " << id.value();
  }

  // Retry accounting is consistent with the bookers' own ledger.
  RetryStats retries = xar.retry_stats();
  EXPECT_EQ(retries.booked_first_try + retries.booked_after_research,
            bookings.load());
}

TEST(RefreshStressTest, AsyncRefreshCompletesWhileSearchersRun) {
  TestCity& city = SharedCity();
  GraphOracle oracle(city.graph);
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region, oracle, {},
                          /*num_shards=*/2);
  for (const TaxiTrip& t : Trips(city, 120, 90)) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    (void)xar.CreateRide(offer);
  }

  std::future<RefreshStats> refresh = std::async(
      std::launch::async, [&] { return xar.RefreshDiscretization(); });
  std::size_t matched = 0;
  for (const TaxiTrip& t : Trips(city, 200, 91)) {
    matched += xar.Search(ToRequest(t, 70000)).empty() ? 0 : 1;
  }
  RefreshStats stats = refresh.get();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(xar.epoch(), 1u);
  EXPECT_GT(matched, 0u);
}

}  // namespace
}  // namespace xar
