#ifndef XAR_PERFBENCH_LOADGEN_H_
#define XAR_PERFBENCH_LOADGEN_H_

// Open-loop load generator over loopback sockets. Every action has a fixed
// due time on an absolute schedule; a lane (one thread, one connection)
// sends each wire request when it falls due, whether or not earlier ones
// were answered, and times it from when it was due, so a stall is charged
// to every request queued behind it. In-process actions (ride creation,
// clock advance) run on the same schedule from the lane that owns them.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "xarbench.h"

namespace xarbench {

enum class Op : std::uint8_t {
  kSearch,         ///< wire SEARCH (top-k kTopK)
  kSearchAndBook,  ///< wire SEARCH_AND_BOOK
  kRefresh,        ///< wire REFRESH
  kCreate,         ///< in-process CreateRide
  kAdvance,        ///< in-process AdvanceTime
};

inline bool IsWire(Op op) { return op <= Op::kRefresh; }

/// Top-k every SEARCH asks for.
constexpr std::uint32_t kTopK = 8;

struct Action {
  double due_s = 0.0;  ///< offset from the phase start
  Op op = Op::kSearch;
  RideRequest request;      ///< kSearch / kSearchAndBook
  RideOffer offer;          ///< kCreate
  double sim_time_s = 0.0;  ///< kAdvance
};

enum class Outcome : std::uint8_t {
  kNotSent,   ///< the phase ended before it fell due
  kInFlight,  ///< sent, no answer yet (becomes kTimeout at the deadline)
  kOk,
  kBusy,      ///< shed by the server (queue full)
  kFailed,    ///< application-level failure (e.g. no feasible ride)
  kError,     ///< transport error or malformed answer
  kTimeout,   ///< not answered before the drain deadline
};

struct Completion {
  Outcome outcome = Outcome::kNotSent;
  double lag_s = 0.0;      ///< start - due: how late the generator ran
  double sent_s = 0.0;     ///< offset from the phase start
  double latency_s = 0.0;  ///< answer - due
  std::uint32_t ride_id = 0;  ///< booked ride of an OK SEARCH_AND_BOOK
  std::uint32_t rows = 0;     ///< rides offered by an OK SEARCH
};

/// One generator thread with its own connection, and its schedule sorted by
/// due time.
struct Lane {
  std::vector<Action> actions;
  std::vector<Completion> done;
};

/// Runs an in-process action; returns false when it failed.
using LocalFn = std::function<bool(const Action&)>;

/// Runs all lanes concurrently on one schedule that starts shortly after the
/// call, then waits up to `drain_s` past the last due time for answers.
/// Returns the schedule's start, the time every due time is offset from.
SteadyTime RunLanes(std::uint16_t port, std::vector<Lane>* lanes,
                    double drain_s, const LocalFn& local);

/// Outcome counts of one op over a set of lanes.
struct Tally {
  std::uint64_t attempted = 0, ok = 0, busy = 0, failed = 0, error = 0,
                timeout = 0;
  std::string ToString() const;
};
Tally TallyOf(const std::vector<Lane>& lanes, Op op);

/// Latency from due (ms) of every attempted op in `ops` due in a window of
/// `window_s` that `keep` marks, or of every one when `keep` is empty. An
/// unanswered, refused (BUSY) or failed-transport request counts as
/// `miss_ms`; with `failed_is_answer`, an application FAILED (an unmatched
/// booking) is an answer and keeps its latency.
std::vector<double> LatenciesMs(const std::vector<Lane>& lanes,
                                std::initializer_list<Op> ops,
                                double window_s, const std::vector<bool>& keep,
                                double miss_ms, bool failed_is_answer);
/// Generator lateness (ms) of every started action.
std::vector<double> LagsMs(const std::vector<Lane>& lanes);

}  // namespace xarbench

#endif  // XAR_PERFBENCH_LOADGEN_H_
