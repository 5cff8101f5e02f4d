#include "pairs.hpp"

namespace lb {

void lane_summary::merge(const lane_summary& o) {
  try_api.merge(o.try_api);
  blocking_api.merge(o.blocking_api);
  try_raw.merge(o.try_raw);
  try_raw_traced.merge(o.try_raw_traced);
  pairs += o.pairs;
  attempted += o.attempted;
  failed += o.failed;
  run_failures += o.run_failures;
}

void pair_rows(result& out, const lane_summary& s, double seconds,
               const tracer* tr) {
  out.set("pairs_per_s", static_cast<double>(s.pairs) / seconds, "1/s");
  out.set("pair_p50_us", s.try_api.p(0.5), "us");
  out.set("pair_p99_us", s.try_api.p(0.99), "us");
  out.set("blocking_pair_p50_us", s.blocking_api.p(0.5), "us");
  out.note("pair_samples", std::to_string(s.try_api.count()));
  out.note("blocking_pair_samples", std::to_string(s.blocking_api.count()));
  if (tr == nullptr) return;
  const double api_p50 = s.try_api.p(0.5);
  const double raw_p50 = s.try_raw.p(0.5);
  const double api_self = api_p50 - raw_p50;
  out.set("api.self_p50_us", api_self, "us");
  out.set("bench.trace_overhead_pct",
          raw_p50 > 0 ? (s.try_raw_traced.p(0.5) - raw_p50) / raw_p50 * 100.0
                      : 0.0,
          "%");
  // The blocking-path budget of one try pair: the api's own share
  // (paired measurement) plus the per-pair self time of every layer
  // under it, from the traced raw pairs. Medians of parts need not sum
  // to the median of the whole, so accounted_pct shows how close the
  // parts come to the measured api pair median.
  double parts = api_self;
  const struct {
    const char* group;
    const char* metric;
  } rows[] = {{"pair:bench", "budget.bench_us"},
              {"pair:client_lib", "budget.client_lib_us"},
              {"pair:wire", "budget.wire_self_us"},
              {"pair:serve", "budget.serve_self_us"},
              {"pair:svc", "budget.svc_us"},
              {"pair:commit_wait", "budget.commit_wait_us"}};
  for (const auto& r : rows) {
    const double v = tr->self_sum(r.group).p(0.5);
    out.set(r.metric, v, "us");
    parts += v;
  }
  out.set("budget.net_pair_p50_us", tr->duration("pair:pair").p(0.5), "us");
  out.set("budget.accounted_pct", api_p50 > 0 ? parts / api_p50 * 100.0 : 0.0,
          "%");
}

}  // namespace lb
