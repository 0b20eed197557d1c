#ifndef XAR_PERFBENCH_LAYERS_H_
#define XAR_PERFBENCH_LAYERS_H_

// The per-layer report of a traced run: every per_layer metric of
// BENCHMARK.json, for any workload, from counter deltas over the measured
// phases and the spans the tracing decorators recorded. A layer a workload
// does not exercise reports 0 with a base of 0.

#include <string>
#include <vector>

#include "discretize/region_snapshot.h"
#include "serve/latency_histogram.h"
#include "trace.h"
#include "xar/concurrent_xar.h"

namespace xarbench {

struct LayerInputs {
  // serve: the first measured phase's verb residence (histogram deltas) and
  // client round trips; shedding over all measured phases.
  serve::LatencyHistogram::Snapshot search_residence;
  serve::LatencyHistogram::Snapshot sab_residence;
  std::vector<double> search_rtt_ms;
  double shed = 0, offered = 0, queue_highwater = 0;

  // xar: one span per system call (in-process replay or SimTarget).
  std::vector<Span> call_spans;
  std::string call_label;  ///< what the call spans were taken over
  RetryStats retry;        ///< deltas

  // match
  MatchCounters match;  ///< deltas
  double index_bytes = 0;

  // graph: oracle spans and the oracle's own counters, per request.
  std::vector<Span> oracle_spans;
  OracleCounters oracle;  ///< deltas
  double requests = 0;
  std::string request_label;

  // discretize: one entry per refresh.
  std::vector<double> refresh_ms;  ///< as seen by its caller
  std::vector<RefreshStats> refresh_stats;

  // schedule: pooling deltas; counts are divided by `repetitions`.
  PoolingStats pooling;
  double repetitions = 1;

  // sim (per repetition; all 0 without a simulator)
  double sim_self_ms = 0, edge_traversals = 0, sim_refreshes = 0;
  double eta_error_s = 0, eta_samples = 0;  ///< of one repetition

  // bench
  std::vector<double> gen_lag_ms;  ///< empty when nothing ran on a schedule
  double trace_overhead = 0;
  std::string overhead_label;
};

void ReportLayers(const LayerInputs& in, Report* report);

/// Field-wise `after - before` of the counters the report takes deltas of;
/// max_pooled_riders, a running maximum, keeps `after`.
RetryStats Minus(const RetryStats& after, const RetryStats& before);
MatchCounters Minus(const MatchCounters& after, const MatchCounters& before);
PoolingStats Minus(const PoolingStats& after, const PoolingStats& before);

}  // namespace xarbench

#endif  // XAR_PERFBENCH_LAYERS_H_
