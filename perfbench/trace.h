#ifndef XAR_PERFBENCH_TRACE_H_
#define XAR_PERFBENCH_TRACE_H_

// Tracing from outside the program: decorators around the public
// DistanceOracle and SimTarget interfaces, and scoped spans around calls
// into ConcurrentXarSystem. Spans are kept in memory per thread and written
// out when the run ends. A span's self time is its duration minus the time
// covered by its child spans on the same thread (oracle calls made inside a
// system call nest under it).

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/oracle.h"
#include "sim/event_sim.h"
#include "xarbench.h"

namespace xarbench {

enum class SpanKind : std::uint8_t {
  // graph: one span per DistanceOracle call.
  kRoute,
  kDistance,
  kTime,
  kWalk,
  kToMany,
  kMatrix,
  kPrewarm,
  // xar: one span per ConcurrentXarSystem / SimTarget call.
  kSearch,
  kSearchAndBook,
  kCreate,
  kAdvance,
  kRefresh,
  kCancel,
  kNoShow,
  kGetRide,
  kCount,
};

const char* SpanKindName(SpanKind kind);
inline bool IsOracleSpan(SpanKind kind) { return kind <= SpanKind::kPrewarm; }

struct Span {
  std::int64_t start_ns = 0;  ///< since the recorder was created
  std::int64_t dur_ns = 0;
  std::int64_t child_ns = 0;  ///< time covered by direct child spans
  std::uint64_t work = 0;     ///< matrix cells / to-many targets
  std::uint32_t thread = 0;
  std::uint32_t parent = kNoParent;  ///< index in the same thread's log
  SpanKind kind = SpanKind::kCount;

  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  double self_ms() const { return (dur_ns - child_ns) * 1e-6; }
  double dur_ms() const { return dur_ns * 1e-6; }
};

/// The spans one thread recorded into one recorder.
struct ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;  ///< indices of spans not yet closed
};

/// In-memory span store. Recording is off until Enable(true), so set-up and
/// warm-up leave no spans; one thread-local log per recording thread.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void Enable(bool on) { enabled_.store(on, std::memory_order_release); }

  class Scope {
   public:
    Scope(SpanRecorder* recorder, SpanKind kind, std::uint64_t work = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadLog* log_ = nullptr;
    std::uint32_t index_ = 0;
    SpanRecorder* recorder_ = nullptr;
  };

  /// All spans recorded so far, thread logs concatenated; parents are
  /// re-based to indices into the returned vector. Call while quiescent.
  std::vector<Span> Collect() const;
  /// Writes Collect() as CSV (kind,thread,parent,start_ns,dur_ns,child_ns,
  /// work). Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  friend class Scope;
  ThreadLog* LogForThisThread();
  std::int64_t NowNs() const;

  const std::uint64_t id_;
  const SteadyTime epoch_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  ///< guards logs_ (the list, not each log)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Span counts per kind, plus the oracle's self time and batch sizes.
struct SpanTotals {
  std::array<std::uint64_t, static_cast<std::size_t>(SpanKind::kCount)>
      count{};
  double oracle_self_ms = 0.0;
  std::uint64_t matrix_cells = 0;
  std::uint64_t Count(SpanKind k) const {
    return count[static_cast<std::size_t>(k)];
  }
};
SpanTotals Totalize(const std::vector<Span>& spans);
/// Durations (ms) of the spans of `kind`; self time when `self` is set.
std::vector<double> SpanMs(const std::vector<Span>& spans, SpanKind kind,
                           bool self);

/// Cumulative counters the oracle itself exposes.
struct OracleCounters {
  double computations = 0;
  double cache_hits = 0;
  double settled = 0;
  static OracleCounters Of(const DistanceOracle& oracle);
  OracleCounters operator-(const OracleCounters& o) const {
    return {computations - o.computations, cache_hits - o.cache_hits,
            settled - o.settled};
  }
  OracleCounters& operator+=(const OracleCounters& o) {
    computations += o.computations;
    cache_hits += o.cache_hits;
    settled += o.settled;
    return *this;
  }
};

/// DistanceOracle decorator: forwards every call to `inner` and records one
/// span per call, by call kind. Passed to a system as its oracle.
class TracingOracle final : public DistanceOracle {
 public:
  TracingOracle(DistanceOracle& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(&recorder) {}

  double DriveDistance(NodeId from, NodeId to) override;
  double DriveTime(NodeId from, NodeId to) override;
  double WalkDistance(NodeId from, NodeId to) override;
  Path DriveRoute(NodeId from, NodeId to) override;
  std::vector<double> DriveDistancesToMany(
      NodeId from, const std::vector<NodeId>& targets) override;
  std::vector<double> DriveDistanceMatrix(
      const std::vector<NodeId>& sources,
      const std::vector<NodeId>& targets) override;
  void Prewarm() override;

  std::size_t computation_count() const override {
    return inner_.computation_count();
  }
  std::size_t cache_hit_count() const override {
    return inner_.cache_hit_count();
  }
  std::size_t settled_count() const override { return inner_.settled_count(); }
  const char* backend_name() const override { return inner_.backend_name(); }
  const char* cache_policy_name() const override {
    return inner_.cache_policy_name();
  }
  OracleCacheCounters cache_counters() const override {
    return inner_.cache_counters();
  }
  const RoutingBackend* routing_backend() const override {
    return inner_.routing_backend();
  }
  RoutingBackend* mutable_routing_backend() override {
    return inner_.mutable_routing_backend();
  }

 private:
  DistanceOracle& inner_;
  SpanRecorder* recorder_;
};

/// SimTarget decorator: one span per simulator call into xar. Each refresh's
/// freshly built oracle arrives here inside the GraphDelta and is wrapped in
/// a TracingOracle before it reaches the system, so oracle spans cover every
/// epoch. What stays invisible from outside: the landmark-matrix batch of a
/// rebuild, which goes to the routing backend directly (it shows only in
/// RefreshStats::last_matrix_ms).
class TracingSimTarget final : public SimTarget {
 public:
  TracingSimTarget(SimTarget& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(&recorder) {}

  std::vector<RideMatch> Search(const RideRequest& request) const override;
  Result<BookingRecord> SearchAndBook(const RideRequest& request) override;
  Result<RideId> CreateRide(const RideOffer& offer) override;
  Status CancelBooking(RideId ride, RequestId request) override;
  Status ReportNoShow(RideId ride, RequestId request) override;
  void AdvanceTime(double now_s) override;
  RefreshStats RefreshDiscretization(const GraphDelta& delta) override;
  Result<Ride> GetRide(RideId id) const override;
  std::uint64_t epoch() const override { return inner_.epoch(); }

  /// RefreshStats returned by each refresh, in order.
  const std::vector<RefreshStats>& refreshes() const { return refreshes_; }
  /// Counter deltas summed over the oracles wrapped at refreshes.
  OracleCounters RefreshOracleCounters() const;

 private:
  SimTarget& inner_;
  SpanRecorder* recorder_;
  std::vector<RefreshStats> refreshes_;
  std::vector<std::unique_ptr<TracingOracle>> oracles_;
};

}  // namespace xarbench

#endif  // XAR_PERFBENCH_TRACE_H_
