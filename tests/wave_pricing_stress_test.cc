// Concurrent batch-pricing stress: booker threads whose SearchAndBook waves
// are priced by the shared oracle's many-to-many batch (meeting points on,
// so waves are wide) race a refresher that swaps in perturbed graphs WITH
// their own oracles — exercising the lock-free oracle re-point that wave
// pricing reads. Afterwards seat accounting must be exact and the pricing
// counters consistent. Run under -DXAR_SANITIZE=thread this is the data
// race detector for the PriceWave / oracle-swap path (ctest -L stress).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "graph/generator.h"
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

TEST(BatchPricingStressTest, PricedWavesRaceOracleSwappingRefreshes) {
  TestCity& city = SharedCity();
  GraphOracle oracle(city.graph);
  XarOptions options;
  options.meeting_points = true;
  options.meeting_point_candidates = 3;
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region, oracle,
                          options, /*num_shards=*/4);

  for (const TaxiTrip& t : Trips(city, 300, 500)) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    (void)xar.CreateRide(offer);
  }
  ASSERT_GT(xar.NumRides(), 0u);

  // Refresh payloads built up front: each delta's graph and oracle must
  // outlive every thread that might still price on them.
  constexpr std::size_t kRefreshes = 3;
  std::vector<std::unique_ptr<RoadGraph>> graphs;
  std::vector<std::unique_ptr<GraphOracle>> oracles;
  for (std::size_t r = 0; r < kRefreshes; ++r) {
    graphs.push_back(std::make_unique<RoadGraph>(
        PerturbEdgeWeights(city.graph, 0.2, 501 + r)));
    oracles.push_back(std::make_unique<GraphOracle>(*graphs.back()));
  }

  std::mutex ledger_mutex;
  std::unordered_map<RideId, int> booked_seats;
  std::atomic<std::size_t> bookings{0};

  std::vector<std::thread> threads;
  // Refresher: every round swaps graph AND oracle, re-pointing the wave
  // pricing oracle while bookers batch on it.
  threads.emplace_back([&] {
    for (std::size_t r = 0; r < kRefreshes; ++r) {
      GraphDelta delta;
      delta.graph = graphs[r].get();
      delta.oracle = oracles[r].get();
      RefreshStats stats = xar.RefreshDiscretization(delta);
      EXPECT_EQ(stats.epoch, r + 1);
    }
  });
  // Bookers: wide (meeting-point) waves, each priced in one oracle batch.
  for (int b = 0; b < 3; ++b) {
    threads.emplace_back([&, b] {
      for (const TaxiTrip& t :
           Trips(city, 150, 510 + static_cast<std::uint64_t>(b))) {
        Result<BookingRecord> booking = xar.SearchAndBook(
            ToRequest(t, static_cast<std::uint32_t>(10000 * (b + 1))));
        if (booking.ok()) {
          bookings.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(ledger_mutex);
          booked_seats[booking->ride] += booking->seats;
        } else {
          EXPECT_EQ(booking.status().code(), StatusCode::kNotFound);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_GT(bookings.load(), 0u);
  EXPECT_EQ(xar.epoch(), kRefreshes);

  // Seat accounting stayed exact under priced, racing waves.
  for (const auto& [ride_id, seats] : booked_seats) {
    Result<Ride> ride = xar.GetRide(ride_id);
    ASSERT_TRUE(ride.ok());
    EXPECT_GE(ride->seats_available, 0);
    EXPECT_EQ(ride->seats_available, ride->seats_total - seats)
        << "ride " << ride_id.value();
  }

  // Pricing counters are self-consistent: every booked wave was priced,
  // and drops never exceed candidates.
  RetryStats stats = xar.retry_stats();
  EXPECT_GT(stats.priced_waves, 0u);
  EXPECT_GE(stats.priced_candidates, stats.priced_waves);
  EXPECT_LE(stats.priced_dropped, stats.priced_candidates);
  EXPECT_EQ(stats.booked_first_try + stats.booked_after_research,
            bookings.load());
}

}  // namespace
}  // namespace xar
