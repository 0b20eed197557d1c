#ifndef XAR_SIM_SIMULATOR_H_
#define XAR_SIM_SIMULATOR_H_

#include <cstddef>
#include <vector>

#include "common/stats.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "workload/taxi_trip.h"
#include "xar/ride.h"
#include "xar/xar_system.h"

namespace xar {

/// Outcome of a simulation run: match counts, booking records for quality
/// analysis (Fig. 3a), per-operation latency samples (Figs. 4-5), and the
/// Fig. 6 quality metrics.
struct SimResult {
  std::size_t requests = 0;
  std::size_t matched = 0;
  std::size_t rides_created = 0;
  std::vector<BookingRecord> bookings;
  ModeMetrics metrics;
  PercentileTracker search_ms;
  PercentileTracker create_ms;
  PercentileTracker book_ms;
};

/// Runs the paper's simulation protocol over `trips` (time-ordered): each
/// trip advances the clock to its pickup time and becomes a ride request; if
/// a feasible ride exists, the least-walking match is booked; otherwise the
/// commuter drives, creating a new shareable ride (capacity: XAR default
/// seats). Operation latencies are recorded.
SimResult SimulateRideSharing(XarSystem& xar,
                              const std::vector<TaxiTrip>& trips,
                              const SimOptions& options = {});

}  // namespace xar

#endif  // XAR_SIM_SIMULATOR_H_
