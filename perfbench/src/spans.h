// Per-layer totals of a traced run, from one obs::TraceRecorder.
//
// The harness opens its outside spans with obs::Span (the library's public
// tracing API) around the public calls it makes, and the library records
// its own spans (solve phases, calibration, simulation, grid cells) into
// the same recorder.  A recorded event keeps no parent, so SpanTree works
// it out from per-thread interval nesting: with one thread's spans sorted
// by start (longest first on a tie), a span's parent is the innermost
// earlier span that is still open when it starts.  Self time is a span's
// wall time minus that of its direct children; a span's cell is its "cell"
// arg, or else its parent's.
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

/// Totals of one span name: wall time, self time and the number of spans.
struct LayerTotal {
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::int64_t count = 0;
};

class SpanTree {
 public:
  explicit SpanTree(std::vector<dvs::obs::TraceEvent> events);

  /// Per-name totals.  Solver spans ("alm") are also totalled per phase,
  /// as "alm.wcs", "alm.acs" and "alm.planned".
  std::map<std::string, LayerTotal> Totals() const;

  /// Writes every span as CSV: tid,index,name,start_us,end_us,parent,cell
  /// (index and parent count within the file; parent -1 for a root).
  void WriteCsv(const std::string& path) const;

 private:
  std::vector<dvs::obs::TraceEvent> events_;  // by (tid, start, longest)
  std::vector<std::int64_t> parent_;
  std::vector<std::int64_t> cell_;
  std::vector<double> self_us_;
};

/// Writes per-name totals as CSV: name,count,total_ms,self_ms.
void WriteLayerCsv(const std::map<std::string, LayerTotal>& totals,
                   const std::string& path);

/// Installs a TraceRecorder and a MetricsRegistry for the traced passes
/// and removes them in Stop() (or on destruction).  With `main_shard` the
/// calling thread also counts into the registry's first shard; a workload
/// whose counting calls run on runner::RunGrid's workers leaves it off,
/// since the grid scopes those shards itself.
class TraceScope {
 public:
  explicit TraceScope(bool main_shard);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  void Stop();

  const dvs::obs::TraceRecorder& recorder() const { return recorder_; }
  /// Every builtin counter's total (call after Stop).
  std::map<std::string, std::int64_t> Counters() const;

 private:
  dvs::obs::TraceRecorder recorder_;
  dvs::obs::MetricsRegistry metrics_;
  std::optional<dvs::obs::ScopedMetricsShard> shard_;
  bool active_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
