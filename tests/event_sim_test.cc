// Event-driven city simulator (sim/event_sim.h): live RefreshDiscretization
// epoch swaps mid-simulation, cancellation / no-show scenarios, fixed-seed
// bit-determinism, serial-vs-sharded agreement, and SearchAndBook's
// no-dead-round rule (`ctest -L sim`).

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "sim/event_sim.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::MakeTestCity;
using testing::SharedCity;
using testing::TestCity;

std::vector<TaxiTrip> RushHourTrips(const TestCity& city, std::size_t total) {
  WorkloadOptions options;
  options.num_trips = total;
  options.seed = 11;
  std::vector<TaxiTrip> all = GenerateTrips(city.graph.bounds(), options);
  // One morning-rush hour keeps the event horizon (and thus CH rebuild
  // count) small while still spanning several refresh periods.
  return FilterByTimeWindow(all, 8 * 3600.0, 9 * 3600.0);
}

ScenarioConfig TrafficScenario() {
  ScenarioConfig config;
  config.protocol.window_s = 900.0;
  config.traffic.tick_period_s = 300.0;
  config.traffic.load_alpha = 0.05;
  config.events.cancel_probability = 0.15;
  config.events.no_show_probability = 0.15;
  config.refresh_period_s = 900.0;
  config.seed = 5;
  return config;
}

TEST(EventSimTest, LiveRefreshesMidSimulationWithBookingsAround) {
  TestCity& city = SharedCity();
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region,
                          *city.oracle, {}, /*num_shards=*/1);
  std::vector<TaxiTrip> trips = RushHourTrips(city, 1500);
  ASSERT_GT(trips.size(), 50u);

  EventSim sim(city.graph, XarOptions{}, TrafficScenario());
  EventSimResult result = RunEventSim(xar, sim, trips);

  EXPECT_EQ(result.requests, trips.size());
  EXPECT_GT(result.matched, 0u);
  EXPECT_GT(result.rides_created, 0u);
  EXPECT_GT(result.edge_traversals, 0u);
  EXPECT_GT(result.traffic_ticks, 0u);

  // >= 2 live epoch swaps mid-simulation, with bookings before and after.
  EXPECT_GE(result.refreshes, 2u);
  EXPECT_GE(result.final_epoch, 2u);
  EXPECT_GT(result.bookings_before_first_refresh, 0u);
  EXPECT_GT(result.bookings_after_last_refresh, 0u);

  // Vehicles completed their routes in the (congested) world, so the
  // staleness signal has samples, and congestion makes it nonzero.
  EXPECT_GT(result.eta_samples, 0u);
  EXPECT_GT(result.mean_eta_error_s, 0.0);

  // The event mix drove live cancellations and no-shows.
  EXPECT_GT(result.cancels_attempted, 0u);
  EXPECT_GT(result.cancels_succeeded, 0u);
  EXPECT_GT(result.no_shows_attempted, 0u);
  EXPECT_GT(result.no_shows_succeeded, 0u);
}

TEST(EventSimTest, FixedSeedIsBitDeterministic) {
  TestCity& city = SharedCity();
  std::vector<TaxiTrip> trips = RushHourTrips(city, 1000);

  EventSimResult runs[2];
  for (int i = 0; i < 2; ++i) {
    ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region,
                            *city.oracle, {}, /*num_shards=*/1);
    EventSim sim(city.graph, XarOptions{}, TrafficScenario());
    runs[i] = RunEventSim(xar, sim, trips);
  }

  EXPECT_EQ(runs[0].fingerprint, runs[1].fingerprint);
  EXPECT_EQ(runs[0].requests, runs[1].requests);
  EXPECT_EQ(runs[0].matched, runs[1].matched);
  EXPECT_EQ(runs[0].rides_created, runs[1].rides_created);
  EXPECT_EQ(runs[0].edge_traversals, runs[1].edge_traversals);
  EXPECT_EQ(runs[0].refreshes, runs[1].refreshes);
  EXPECT_EQ(runs[0].cancels_succeeded, runs[1].cancels_succeeded);
  EXPECT_EQ(runs[0].no_shows_succeeded, runs[1].no_shows_succeeded);
  EXPECT_EQ(runs[0].bookings.size(), runs[1].bookings.size());
  EXPECT_EQ(runs[0].mean_eta_error_s, runs[1].mean_eta_error_s);
}

// One serial-vs-sharded agreement case: a shard count and a look-to-book
// ratio. {4, 1} and {3, 3} are the configurations the deleted parallel
// replay driver was checked at; {2, 1} and {4, 3} widen the grid.
struct AgreementCase {
  std::size_t shards;
  std::size_t look_to_book;
};

void PrintTo(const AgreementCase& c, std::ostream* os) {
  *os << c.shards << " shards, look-to-book " << c.look_to_book;
}

class SerialConcurrentAgreementTest
    : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(SerialConcurrentAgreementTest,
       SerialAndConcurrentSystemsAgreeOnCounts) {
  const AgreementCase c = GetParam();
  TestCity& city = SharedCity();
  std::vector<TaxiTrip> trips = RushHourTrips(city, 800);

  ScenarioConfig config = TrafficScenario();
  config.protocol.look_to_book = c.look_to_book;

  ConcurrentXarSystem serial(city.graph, *city.spatial, *city.region,
                             *city.oracle, {}, /*num_shards=*/1);
  EventSim serial_sim(city.graph, XarOptions{}, config);
  EventSimResult serial_result = RunEventSim(serial, serial_sim, trips);

  GraphOracle sharded_oracle(city.graph);
  ConcurrentXarSystem sharded(city.graph, *city.spatial, *city.region,
                              sharded_oracle, {}, c.shards);
  EventSim sharded_sim(city.graph, XarOptions{}, config);
  EventSimResult sharded_result = RunEventSim(sharded, sharded_sim, trips);

  // Driven single-threaded, the sharded system replays the same protocol:
  // round-robin creation reproduces the dense id sequence and the merged
  // shard searches rank identically, so every booking lines up with the
  // 1-shard system even though its rides are split across shards.
  EXPECT_GT(serial_result.matched, 0u);
  EXPECT_EQ(serial_result.requests, sharded_result.requests);
  EXPECT_EQ(serial_result.matched, sharded_result.matched);
  EXPECT_EQ(serial_result.rides_created, sharded_result.rides_created);
  EXPECT_EQ(serial_result.refreshes, sharded_result.refreshes);
  EXPECT_EQ(serial_result.cancels_succeeded, sharded_result.cancels_succeeded);
  EXPECT_EQ(serial_result.no_shows_succeeded,
            sharded_result.no_shows_succeeded);
  ASSERT_EQ(serial_result.bookings.size(), sharded_result.bookings.size());
  for (std::size_t i = 0; i < serial_result.bookings.size(); ++i) {
    EXPECT_EQ(serial_result.bookings[i].request,
              sharded_result.bookings[i].request);
    EXPECT_EQ(serial_result.bookings[i].ride, sharded_result.bookings[i].ride);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndLookToBook, SerialConcurrentAgreementTest,
    ::testing::Values(AgreementCase{2, 1}, AgreementCase{4, 1},
                      AgreementCase{3, 3}, AgreementCase{4, 3}),
    [](const ::testing::TestParamInfo<AgreementCase>& info) {
      return std::to_string(info.param.shards) + "Shards_LookToBook" +
             std::to_string(info.param.look_to_book);
    });

// A wave whose every candidate Book rejected is final when nothing moved:
// driven single-threaded, no write and no refresh can land inside one
// SearchAndBook call, so a second round would search, price and be
// rejected exactly like the first.
TEST(EventSimTest, RejectedWaveIsNotResearchedWhenNothingMoved) {
  TestCity& city = SharedCity();
  std::vector<TaxiTrip> trips = RushHourTrips(city, 4000);

  XarOptions options;
  options.kinetic_booking = true;
  options.default_seats = 2;
  options.default_detour_limit_m = 2000.0;
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region,
                          *city.oracle, options, /*num_shards=*/1);
  std::size_t research_rounds = 0;
  xar.SetPostSearchHookForTest([&](const RideRequest&, std::size_t round) {
    if (round > 0) ++research_rounds;
  });

  ScenarioConfig config;
  config.protocol.window_s = 900.0;
  config.protocol.walk_limit_m = 900.0;
  config.fleet = 60;
  EventSim sim(city.graph, options, config);
  EventSimResult result = RunEventSim(xar, sim, trips);

  const RetryStats stats = xar.retry_stats();
  ASSERT_GT(result.matched, 0u);
  ASSERT_GT(stats.priced_waves, result.matched)
      << "the scenario must reject every candidate of some wave";
  EXPECT_EQ(research_rounds, 0u);
  EXPECT_LE(stats.priced_waves, result.requests);
  EXPECT_EQ(stats.booked_after_research, 0u);
  EXPECT_EQ(stats.booked_first_try, result.matched);
}

class NoShowTest : public ::testing::Test {
 protected:
  NoShowTest()
      : city_(SharedCity()),
        xar_(city_.graph, *city_.spatial, *city_.region, *city_.oracle) {}

  RideId CreateDiagonalRide(double t = 8 * 3600.0) {
    const BoundingBox& b = city_.graph.bounds();
    RideOffer offer;
    offer.source = {b.min_lat + 0.1 * (b.max_lat - b.min_lat),
                    b.min_lng + 0.1 * (b.max_lng - b.min_lng)};
    offer.destination = {b.min_lat + 0.9 * (b.max_lat - b.min_lat),
                         b.min_lng + 0.9 * (b.max_lng - b.min_lng)};
    offer.departure_time_s = t;
    Result<RideId> ride = xar_.CreateRide(offer);
    EXPECT_TRUE(ride.ok());
    return *ride;
  }

  Result<BookingRecord> BookMidRider(RequestId id, double t = 8 * 3600.0) {
    const BoundingBox& b = city_.graph.bounds();
    RideRequest req;
    req.id = id;
    req.source = {b.min_lat + 0.35 * (b.max_lat - b.min_lat),
                  b.min_lng + 0.35 * (b.max_lng - b.min_lng)};
    req.destination = {b.min_lat + 0.7 * (b.max_lat - b.min_lat),
                       b.min_lng + 0.7 * (b.max_lng - b.min_lng)};
    req.earliest_departure_s = t;
    req.latest_departure_s = t + 1800;
    std::vector<RideMatch> matches = xar_.Search(req);
    if (matches.empty()) return Status::NotFound("no match");
    return xar_.Book(matches.front().ride, req, matches.front());
  }

  TestCity& city_;
  XarSystem xar_;
};

TEST_F(NoShowTest, NoShowAfterPickupEtaReturnsSeatAndReindexes) {
  RideId ride = CreateDiagonalRide();
  double base_length = xar_.GetRide(ride)->route.length_m;
  Result<BookingRecord> booking = BookMidRider(RequestId(1));
  ASSERT_TRUE(booking.ok());

  // The vehicle reaches the pickup; the rider is not there. Cancellation is
  // no longer legal, but reporting the no-show is.
  xar_.AdvanceTime(booking->pickup_eta_s + 1.0);
  EXPECT_EQ(xar_.CancelBooking(ride, RequestId(1)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(xar_.ReportNoShow(ride, RequestId(1)).ok());

  const Ride* r = xar_.GetRide(ride);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->via_points.size(), 2u);
  EXPECT_EQ(r->seats_available, r->seats_total);
  EXPECT_NEAR(r->route.length_m, base_length, 1.0);
  EXPECT_NEAR(r->detour_used_m, 0.0, 1.0);
  EXPECT_TRUE(xar_.bookings().empty());
}

TEST_F(NoShowTest, NoShowBeforePickupAlsoWorks) {
  RideId ride = CreateDiagonalRide();
  Result<BookingRecord> booking = BookMidRider(RequestId(1));
  ASSERT_TRUE(booking.ok());
  // Reported early (rider called ahead): same unwinding as a cancellation.
  ASSERT_TRUE(xar_.ReportNoShow(ride, RequestId(1)).ok());
  EXPECT_EQ(xar_.GetRide(ride)->seats_available,
            xar_.GetRide(ride)->seats_total);
}

TEST_F(NoShowTest, NoShowAfterDropoffEtaFails) {
  RideId ride = CreateDiagonalRide();
  Result<BookingRecord> booking = BookMidRider(RequestId(1));
  ASSERT_TRUE(booking.ok());
  xar_.AdvanceTime(booking->dropoff_eta_s + 1.0);
  EXPECT_EQ(xar_.ReportNoShow(ride, RequestId(1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(NoShowTest, NoShowUnknownBookingFails) {
  RideId ride = CreateDiagonalRide();
  EXPECT_EQ(xar_.ReportNoShow(ride, RequestId(77)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(xar_.ReportNoShow(RideId(999), RequestId(1)).code(),
            StatusCode::kNotFound);
}

TEST_F(NoShowTest, SeatFreedByNoShowIsRebookable) {
  ConcurrentXarSystem xar(city_.graph, *city_.spatial, *city_.region,
                          *city_.oracle, {}, /*num_shards=*/1);
  // Dedicated system so the default seat pool is fully booked, no-shown,
  // and rebooked by a different rider.
  const BoundingBox& b = city_.graph.bounds();
  RideOffer offer;
  offer.source = {b.min_lat + 0.1 * (b.max_lat - b.min_lat),
                  b.min_lng + 0.1 * (b.max_lng - b.min_lng)};
  offer.destination = {b.min_lat + 0.9 * (b.max_lat - b.min_lat),
                       b.min_lng + 0.9 * (b.max_lng - b.min_lng)};
  offer.departure_time_s = 8 * 3600.0;
  offer.seats = 1;
  Result<RideId> ride = xar.CreateRide(offer);
  ASSERT_TRUE(ride.ok());

  RideRequest req;
  req.id = RequestId(1);
  req.source = {b.min_lat + 0.35 * (b.max_lat - b.min_lat),
                b.min_lng + 0.35 * (b.max_lng - b.min_lng)};
  req.destination = {b.min_lat + 0.7 * (b.max_lat - b.min_lat),
                     b.min_lng + 0.7 * (b.max_lng - b.min_lng)};
  req.earliest_departure_s = 8 * 3600.0;
  req.latest_departure_s = 8 * 3600.0 + 1800;
  Result<BookingRecord> first = xar.SearchAndBook(req);
  ASSERT_TRUE(first.ok());
  // The only seat is taken: a second rider cannot book.
  RideRequest req2 = req;
  req2.id = RequestId(2);
  EXPECT_FALSE(xar.SearchAndBook(req2).ok());

  ASSERT_TRUE(xar.ReportNoShow(first->ride, RequestId(1)).ok());
  // The freed seat is findable again through the index.
  Result<BookingRecord> second = xar.SearchAndBook(req2);
  EXPECT_TRUE(second.ok());
}

}  // namespace
}  // namespace xar
