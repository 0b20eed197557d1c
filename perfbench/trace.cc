#include "trace.h"

#include <cstdio>

namespace xarbench {

namespace {

std::atomic<std::uint64_t> next_recorder_id{1};

// The calling thread's log for the recorder it last recorded into. A new
// recorder id invalidates the cache, so recorders never share a log.
thread_local std::uint64_t tls_recorder_id = 0;
thread_local ThreadLog* tls_log = nullptr;

}  // namespace

const char* SpanKindName(SpanKind kind) {
  static const char* const kNames[] = {
      "oracle.route",   "oracle.distance", "oracle.time",
      "oracle.walk",    "oracle.to_many",  "oracle.matrix",
      "oracle.prewarm", "xar.search",      "xar.search_and_book",
      "xar.create",     "xar.advance",     "xar.refresh",
      "xar.cancel",     "xar.no_show",     "xar.get_ride"};
  const auto i = static_cast<std::size_t>(kind);
  return i < sizeof(kNames) / sizeof(kNames[0]) ? kNames[i] : "unknown";
}

SpanRecorder::SpanRecorder()
    : id_(next_recorder_id.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

ThreadLog* SpanRecorder::LogForThisThread() {
  if (tls_recorder_id == id_) return tls_log;
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.push_back(std::make_unique<ThreadLog>());
  logs_.back()->thread = static_cast<std::uint32_t>(logs_.size() - 1);
  tls_recorder_id = id_;
  tls_log = logs_.back().get();
  return tls_log;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, SpanKind kind,
                           std::uint64_t work) {
  if (recorder == nullptr ||
      !recorder->enabled_.load(std::memory_order_acquire)) {
    return;
  }
  recorder_ = recorder;
  log_ = recorder->LogForThisThread();
  index_ = static_cast<std::uint32_t>(log_->spans.size());
  Span span;
  span.kind = kind;
  span.work = work;
  span.thread = log_->thread;
  span.parent = log_->open.empty() ? Span::kNoParent : log_->open.back();
  log_->open.push_back(index_);
  span.start_ns = recorder->NowNs();
  log_->spans.push_back(span);
}

SpanRecorder::Scope::~Scope() {
  if (log_ == nullptr) return;
  const std::int64_t end_ns = recorder_->NowNs();
  Span& span = log_->spans[index_];
  span.dur_ns = end_ns - span.start_ns;
  log_->open.pop_back();
  if (span.parent != Span::kNoParent) {
    log_->spans[span.parent].child_ns += span.dur_ns;
  }
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const std::unique_ptr<ThreadLog>& log : logs_) {
    const auto offset = static_cast<std::uint32_t>(all.size());
    for (Span span : log->spans) {
      if (span.parent != Span::kNoParent) span.parent += offset;
      all.push_back(span);
    }
  }
  return all;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind,thread,parent,start_ns,dur_ns,child_ns,work\n");
  for (const Span& s : Collect()) {
    std::fprintf(f, "%s,%u,%lld,%lld,%lld,%lld,%llu\n", SpanKindName(s.kind),
                 s.thread,
                 s.parent == Span::kNoParent ? -1LL
                                             : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.dur_ns),
                 static_cast<long long>(s.child_ns),
                 static_cast<unsigned long long>(s.work));
  }
  return std::fclose(f) == 0;
}

SpanTotals Totalize(const std::vector<Span>& spans) {
  SpanTotals totals;
  for (const Span& s : spans) {
    const auto k = static_cast<std::size_t>(s.kind);
    totals.count[k] += 1;
    if (IsOracleSpan(s.kind)) totals.oracle_self_ms += s.self_ms();
    if (s.kind == SpanKind::kMatrix) totals.matrix_cells += s.work;
  }
  return totals;
}

std::vector<double> SpanMs(const std::vector<Span>& spans, SpanKind kind,
                           bool self) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.kind == kind) out.push_back(self ? s.self_ms() : s.dur_ms());
  }
  return out;
}

OracleCounters OracleCounters::Of(const DistanceOracle& oracle) {
  return {static_cast<double>(oracle.computation_count()),
          static_cast<double>(oracle.cache_hit_count()),
          static_cast<double>(oracle.settled_count())};
}

// --- TracingOracle -----------------------------------------------------------

double TracingOracle::DriveDistance(NodeId from, NodeId to) {
  SpanRecorder::Scope span(recorder_, SpanKind::kDistance);
  return inner_.DriveDistance(from, to);
}

double TracingOracle::DriveTime(NodeId from, NodeId to) {
  SpanRecorder::Scope span(recorder_, SpanKind::kTime);
  return inner_.DriveTime(from, to);
}

double TracingOracle::WalkDistance(NodeId from, NodeId to) {
  SpanRecorder::Scope span(recorder_, SpanKind::kWalk);
  return inner_.WalkDistance(from, to);
}

Path TracingOracle::DriveRoute(NodeId from, NodeId to) {
  SpanRecorder::Scope span(recorder_, SpanKind::kRoute);
  return inner_.DriveRoute(from, to);
}

std::vector<double> TracingOracle::DriveDistancesToMany(
    NodeId from, const std::vector<NodeId>& targets) {
  SpanRecorder::Scope span(recorder_, SpanKind::kToMany, targets.size());
  return inner_.DriveDistancesToMany(from, targets);
}

std::vector<double> TracingOracle::DriveDistanceMatrix(
    const std::vector<NodeId>& sources, const std::vector<NodeId>& targets) {
  SpanRecorder::Scope span(recorder_, SpanKind::kMatrix,
                           sources.size() * targets.size());
  return inner_.DriveDistanceMatrix(sources, targets);
}

void TracingOracle::Prewarm() {
  SpanRecorder::Scope span(recorder_, SpanKind::kPrewarm);
  inner_.Prewarm();
}

// --- TracingSimTarget ----------------------------------------------------------

std::vector<RideMatch> TracingSimTarget::Search(
    const RideRequest& request) const {
  SpanRecorder::Scope span(recorder_, SpanKind::kSearch);
  return inner_.Search(request);
}

Result<BookingRecord> TracingSimTarget::SearchAndBook(
    const RideRequest& request) {
  SpanRecorder::Scope span(recorder_, SpanKind::kSearchAndBook);
  return inner_.SearchAndBook(request);
}

Result<RideId> TracingSimTarget::CreateRide(const RideOffer& offer) {
  SpanRecorder::Scope span(recorder_, SpanKind::kCreate);
  return inner_.CreateRide(offer);
}

Status TracingSimTarget::CancelBooking(RideId ride, RequestId request) {
  SpanRecorder::Scope span(recorder_, SpanKind::kCancel);
  return inner_.CancelBooking(ride, request);
}

Status TracingSimTarget::ReportNoShow(RideId ride, RequestId request) {
  SpanRecorder::Scope span(recorder_, SpanKind::kNoShow);
  return inner_.ReportNoShow(ride, request);
}

void TracingSimTarget::AdvanceTime(double now_s) {
  SpanRecorder::Scope span(recorder_, SpanKind::kAdvance);
  inner_.AdvanceTime(now_s);
}

RefreshStats TracingSimTarget::RefreshDiscretization(const GraphDelta& delta) {
  GraphDelta traced = delta;
  if (delta.oracle != nullptr) {
    oracles_.push_back(
        std::make_unique<TracingOracle>(*delta.oracle, *recorder_));
    traced.oracle = oracles_.back().get();
  }
  RefreshStats stats;
  {
    SpanRecorder::Scope span(recorder_, SpanKind::kRefresh);
    stats = inner_.RefreshDiscretization(traced);
  }
  refreshes_.push_back(stats);
  return stats;
}

Result<Ride> TracingSimTarget::GetRide(RideId id) const {
  SpanRecorder::Scope span(recorder_, SpanKind::kGetRide);
  return inner_.GetRide(id);
}

OracleCounters TracingSimTarget::RefreshOracleCounters() const {
  // Each wrapped oracle was built fresh for its refresh, so its cumulative
  // counters are exactly the work done on that epoch.
  OracleCounters total;
  for (const std::unique_ptr<TracingOracle>& oracle : oracles_) {
    total += OracleCounters::Of(*oracle);
  }
  return total;
}

}  // namespace xarbench
