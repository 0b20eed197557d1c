#include "sim/simulator.h"

#include "common/clock.h"

namespace xar {
namespace {

constexpr double kWalkSpeedMps = 1.4;

}  // namespace

SimResult SimulateRideSharing(XarSystem& xar,
                              const std::vector<TaxiTrip>& trips,
                              const SimOptions& options) {
  SimResult result;
  result.metrics.mode_name = "RideShare";
  result.search_ms.Reserve(trips.size());

  std::size_t since_last_book = 0;
  for (const TaxiTrip& trip : trips) {
    ++result.requests;
    xar.AdvanceTime(trip.pickup_time_s);

    RideRequest request;
    request.id = trip.id;
    request.source = trip.pickup;
    request.destination = trip.dropoff;
    request.earliest_departure_s = trip.pickup_time_s;
    request.latest_departure_s = trip.pickup_time_s + options.window_s;
    request.walk_limit_m = options.walk_limit_m;

    Stopwatch search_timer;
    std::vector<RideMatch> matches = xar.Search(request);
    result.search_ms.Add(search_timer.ElapsedMillis());

    bool book_now = ++since_last_book >= options.look_to_book;
    if (!matches.empty() && book_now) {
      since_last_book = 0;
      // Matches are sorted by least walking; book the first (paper protocol).
      Stopwatch book_timer;
      Result<BookingRecord> booking =
          xar.Book(matches.front().ride, request, matches.front());
      result.book_ms.Add(book_timer.ElapsedMillis());
      if (booking.ok()) {
        ++result.matched;
        result.bookings.push_back(*booking);
        double wait = std::max(0.0, booking->pickup_eta_s -
                                        trip.pickup_time_s);
        double walk_time = booking->walk_m / kWalkSpeedMps;
        double travel =
            (booking->dropoff_eta_s - trip.pickup_time_s) + walk_time;
        result.metrics.AddTrip(travel, walk_time, wait);
        continue;
      }
    }

    // No match (or this searcher was only looking): the commuter drives and
    // offers the ride for sharing.
    RideOffer offer;
    offer.source = trip.pickup;
    offer.destination = trip.dropoff;
    offer.departure_time_s = trip.pickup_time_s;
    Stopwatch create_timer;
    Result<RideId> ride = xar.CreateRide(offer);
    result.create_ms.Add(create_timer.ElapsedMillis());
    if (ride.ok()) {
      ++result.rides_created;
      ++result.metrics.cars_used;
      // GetRide can miss even after a successful create if tracking retired
      // the ride in the same tick (or under foreign-id routing); don't deref
      // unconditionally.
      const Ride* r = xar.GetRide(*ride);
      result.metrics.AddTrip(r != nullptr ? r->route.time_s : 0.0, 0.0, 0.0);
    } else {
      ++result.metrics.requests_unserved;
    }
  }
  return result;
}

}  // namespace xar
