#include "graph/generator.h"
#include "workload/trip_generator.h"
#include "xarbench.h"

namespace xarbench {

std::unique_ptr<World> BuildWorld(std::size_t num_trips, std::uint64_t seed) {
  auto world = std::make_unique<World>();
  world->graph = GenerateCity(CityOptions{});
  world->spatial = std::make_unique<SpatialNodeIndex>(world->graph);

  // CH preprocessing first, so the discretization's landmark matrix runs on
  // the bucket-CH batch path exactly as a refresh does.
  const XarOptions xar_options;
  world->oracle = std::make_unique<GraphOracle>(
      world->graph, /*cache_capacity=*/std::size_t{1} << 16,
      xar_options.routing_backend, xar_options.BackendOptions(),
      xar_options.oracle_cache);
  world->oracle->Prewarm();

  DiscretizationOptions discretization;
  discretization.landmarks.num_candidates = 400;
  world->region = std::make_unique<RegionIndex>(
      RegionIndex::Build(world->graph, *world->spatial, discretization,
                         world->oracle->mutable_routing_backend()));

  WorkloadOptions workload;
  workload.num_trips = num_trips;
  workload.seed = StreamSeed(seed, 1);
  world->trips = GenerateTrips(world->graph.bounds(), workload);
  return world;
}

void SplitTrips(const std::vector<TaxiTrip>& trips, std::size_t stride,
                std::vector<TaxiTrip>* offers,
                std::vector<TaxiTrip>* requests) {
  for (std::size_t i = 0; i < trips.size(); ++i) {
    (i % stride == 0 ? offers : requests)->push_back(trips[i]);
  }
}

RideOffer OfferOf(const TaxiTrip& trip) {
  RideOffer offer;
  offer.source = trip.pickup;
  offer.destination = trip.dropoff;
  offer.departure_time_s = trip.pickup_time_s;
  return offer;
}

RideRequest RequestOf(const TaxiTrip& trip, std::uint32_t rider_id,
                      double window_s) {
  RideRequest request;
  request.id = RequestId(rider_id);
  request.source = trip.pickup;
  request.destination = trip.dropoff;
  request.earliest_departure_s = trip.pickup_time_s;
  request.latest_departure_s = trip.pickup_time_s + window_s;
  return request;
}

}  // namespace xarbench
