#include "layers.h"

namespace xarbench {
namespace {

double D(std::size_t v) { return static_cast<double>(v); }

}  // namespace

RetryStats Minus(const RetryStats& a, const RetryStats& b) {
  RetryStats d;
  d.booked_first_try = a.booked_first_try - b.booked_first_try;
  d.booked_after_research = a.booked_after_research - b.booked_after_research;
  d.stale_rejections = a.stale_rejections - b.stale_rejections;
  d.unmatched = a.unmatched - b.unmatched;
  d.priced_waves = a.priced_waves - b.priced_waves;
  d.priced_candidates = a.priced_candidates - b.priced_candidates;
  d.priced_dropped = a.priced_dropped - b.priced_dropped;
  return d;
}

MatchCounters Minus(const MatchCounters& a, const MatchCounters& b) {
  MatchCounters d;
  d.inserts = a.inserts - b.inserts;
  d.removes = a.removes - b.removes;
  d.updates = a.updates - b.updates;
  d.evictions = a.evictions - b.evictions;
  d.searches = a.searches - b.searches;
  d.empty_searches = a.empty_searches - b.empty_searches;
  d.candidates = a.candidates - b.candidates;
  return d;
}

PoolingStats Minus(const PoolingStats& a, const PoolingStats& b) {
  PoolingStats d = a;
  d.insertions = a.insertions - b.insertions;
  d.rejections = a.rejections - b.rejections;
  d.removals = a.removals - b.removals;
  d.advanced_stops = a.advanced_stops - b.advanced_stops;
  d.reprices = a.reprices - b.reprices;
  d.relaxed_riders = a.relaxed_riders - b.relaxed_riders;
  return d;
}

void ReportLayers(const LayerInputs& in, Report* report) {
  // serve
  const std::string search_base = Base("SEARCH", D(in.search_residence.count));
  report->Metric("serve.search_residence_p50_ms",
                 in.search_residence.PercentileUs(0.50) / 1e3, "ms",
                 search_base);
  report->Metric("serve.search_residence_p99_ms",
                 in.search_residence.PercentileUs(0.99) / 1e3, "ms",
                 search_base);
  report->Metric("serve.sab_residence_p99_ms",
                 in.sab_residence.PercentileUs(0.99) / 1e3, "ms",
                 Base("SEARCH_AND_BOOK", D(in.sab_residence.count)));
  report->Metric("serve.wire_ms_mean",
                 in.search_rtt_ms.empty()
                     ? 0.0
                     : Mean(in.search_rtt_ms) -
                           in.search_residence.MeanUs() / 1e3,
                 "ms", Base("SEARCH answered", D(in.search_rtt_ms.size())));
  report->Metric("serve.shed_ratio", Ratio(in.shed, in.offered), "ratio",
                 Base("offered", in.offered));
  report->Metric("serve.queue_highwater", in.queue_highwater, "count");

  // xar
  const std::vector<double> search_ms =
      SpanMs(in.call_spans, SpanKind::kSearch, false);
  const std::vector<double> sab_self =
      SpanMs(in.call_spans, SpanKind::kSearchAndBook, true);
  const std::vector<double> create_ms =
      SpanMs(in.call_spans, SpanKind::kCreate, false);
  const std::vector<double> advance_ms =
      SpanMs(in.call_spans, SpanKind::kAdvance, false);
  const std::string sbase = Base(in.call_label + " searches", D(search_ms.size()));
  report->Metric("xar.search_ms_p50", Quantile(search_ms, 0.50), "ms", sbase);
  report->Metric("xar.search_ms_p99", Quantile(search_ms, 0.99), "ms", sbase);
  report->Metric("xar.sab_self_ms_p50", Quantile(sab_self, 0.50), "ms",
                 Base(in.call_label + " bookings", D(sab_self.size())));
  report->Metric("xar.create_ms_p50", Quantile(create_ms, 0.50), "ms",
                 Base(in.call_label + " creates", D(create_ms.size())));
  report->Metric("xar.advance_ms_mean", Mean(advance_ms), "ms",
                 Base(in.call_label + " advances", D(advance_ms.size())));
  const double booked =
      D(in.retry.booked_first_try + in.retry.booked_after_research);
  const double stale = D(in.retry.stale_rejections);
  report->Metric("xar.stale_ratio", Ratio(stale, booked + stale), "ratio",
                 Base("booked+stale", booked + stale));
  report->Metric("xar.research_ratio",
                 Ratio(D(in.retry.booked_after_research), booked), "ratio",
                 Base("booked", booked));
  report->Metric("xar.priced_drop_ratio",
                 Ratio(D(in.retry.priced_dropped),
                       D(in.retry.priced_candidates)),
                 "ratio", Base("priced", D(in.retry.priced_candidates)));

  // match: each system search probes every shard's index once.
  const double probes = static_cast<double>(in.match.searches);
  report->Metric("match.candidates_per_search",
                 Ratio(static_cast<double>(in.match.candidates), probes),
                 "count", Base("index probes", probes));
  report->Metric("match.empty_ratio",
                 Ratio(static_cast<double>(in.match.empty_searches), probes),
                 "ratio", Base("index probes", probes));
  report->Metric("match.index_mb", in.index_bytes / 1e6, "MB");

  // graph
  const SpanTotals totals = Totalize(in.oracle_spans);
  const double batches = D(totals.Count(SpanKind::kMatrix));
  const std::string rbase = Base(in.request_label, in.requests);
  report->Metric("graph.route_calls_per_request",
                 Ratio(D(totals.Count(SpanKind::kRoute)), in.requests),
                 "count", rbase);
  report->Metric("graph.matrix_calls_per_request",
                 Ratio(batches, in.requests), "count", rbase);
  report->Metric("graph.oracle_self_ms_per_request",
                 Ratio(totals.oracle_self_ms, in.requests), "ms", rbase);
  const double lookups = in.oracle.cache_hits + in.oracle.computations;
  report->Metric("graph.cache_hit_ratio", Ratio(in.oracle.cache_hits, lookups),
                 "ratio", Base("distance lookups", lookups));
  report->Metric("graph.settled_per_computation",
                 Ratio(in.oracle.settled, in.oracle.computations), "count",
                 Base("computations", in.oracle.computations));
  report->Metric("graph.matrix_cells_per_batch",
                 Ratio(D(totals.matrix_cells), batches), "count",
                 Base("batches", batches));

  // discretize
  std::vector<double> rebuild, prewarm, matrix, rehomed;
  for (const RefreshStats& s : in.refresh_stats) {
    rebuild.push_back(s.last_rebuild_ms);
    prewarm.push_back(s.last_prewarm_ms);
    matrix.push_back(s.last_matrix_ms);
    rehomed.push_back(D(s.last_rides_rehomed));
  }
  report->Metric("discretize.refresh_ms", Mean(in.refresh_ms), "ms",
                 Base("refreshes", D(in.refresh_ms.size())));
  const std::string dbase = Base("refresh stats", D(rebuild.size()));
  report->Metric("discretize.rebuild_ms", Mean(rebuild), "ms", dbase);
  report->Metric("discretize.prewarm_ms", Mean(prewarm), "ms", dbase);
  report->Metric("discretize.matrix_ms", Mean(matrix), "ms", dbase);
  report->Metric("discretize.rehomed_rides", Mean(rehomed), "count", dbase);

  // schedule
  const PoolingStats& p = in.pooling;
  const std::string per_rep = Base("per repetition, repetitions", in.repetitions);
  report->Metric("schedule.insertions", D(p.insertions) / in.repetitions,
                 "count", per_rep);
  report->Metric("schedule.rejection_ratio",
                 Ratio(D(p.rejections), D(p.insertions + p.rejections)),
                 "ratio",
                 Base("insertion attempts", D(p.insertions + p.rejections)));
  report->Metric("schedule.reprices", D(p.reprices) / in.repetitions, "count",
                 per_rep);
  report->Metric("schedule.relaxed_riders",
                 D(p.relaxed_riders) / in.repetitions, "count", per_rep);
  report->Metric("schedule.max_pooled_riders", D(p.max_pooled_riders),
                 "count");

  // sim
  report->Metric("sim.self_ms", in.sim_self_ms, "ms", per_rep);
  report->Metric("sim.edge_traversals", in.edge_traversals, "count", per_rep);
  report->Metric("sim.refreshes", in.sim_refreshes, "count", per_rep);
  report->Metric("sim.eta_error_s", in.eta_error_s, "s",
                 Base("completed rides", in.eta_samples));

  // bench
  report->Metric("bench.gen_lag_p99_ms", Quantile(in.gen_lag_ms, 0.99), "ms",
                 Base("scheduled sends", D(in.gen_lag_ms.size())));
  report->Metric("bench.trace_overhead", in.trace_overhead, "ratio",
                 in.overhead_label);
}

}  // namespace xarbench
