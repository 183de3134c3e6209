#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {
namespace {

namespace obs = dvs::obs;

// Timestamps are doubles in microseconds; a child ends at most this much
// after its parent through rounding alone.
constexpr double kSlackUs = 1e-3;

double EndUs(const obs::TraceEvent& event) {
  return event.ts_us + event.dur_us;
}

const std::string* FindArg(const obs::TraceEvent& event, const char* key) {
  for (const auto& [name, value] : event.args) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

}  // namespace

SpanTree::SpanTree(std::vector<obs::TraceEvent> events)
    : events_(std::move(events)) {
  std::sort(events_.begin(), events_.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) {
                return a.tid < b.tid;
              }
              if (a.ts_us != b.ts_us) {
                return a.ts_us < b.ts_us;
              }
              return a.dur_us > b.dur_us;
            });
  const std::size_t n = events_.size();
  parent_.assign(n, -1);
  cell_.assign(n, -1);
  self_us_.resize(n);
  std::vector<std::int64_t> open;  // enclosing spans of the current thread
  for (std::size_t i = 0; i < n; ++i) {
    const obs::TraceEvent& event = events_[i];
    if (i > 0 && events_[i - 1].tid != event.tid) {
      open.clear();
    }
    while (!open.empty()) {
      const double end = EndUs(events_[static_cast<std::size_t>(open.back())]);
      if (end > event.ts_us && end >= EndUs(event) - kSlackUs) {
        break;
      }
      open.pop_back();
    }
    self_us_[i] = event.dur_us;
    if (!open.empty()) {
      const auto parent = static_cast<std::size_t>(open.back());
      parent_[i] = open.back();
      self_us_[parent] -= event.dur_us;
      cell_[i] = cell_[parent];
    }
    if (const std::string* cell = FindArg(event, "cell")) {
      cell_[i] = std::stoll(*cell);
    }
    open.push_back(static_cast<std::int64_t>(i));
  }
}

std::map<std::string, LayerTotal> SpanTree::Totals() const {
  std::map<std::string, LayerTotal> totals;
  const auto add = [&](const std::string& name, std::size_t i) {
    LayerTotal& total = totals[name];
    total.total_ms += events_[i].dur_us * 1e-3;
    total.self_ms += self_us_[i] * 1e-3;
    ++total.count;
  };
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const std::string name = events_[i].name;
    add(name, i);
    if (name == "alm") {
      if (const std::string* phase = FindArg(events_[i], "phase")) {
        add("alm." + *phase, i);
      }
    }
  }
  return totals;
}

void SpanTree::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) {
    throw std::runtime_error("cannot write span file " + path);
  }
  out.precision(12);
  out << "tid,index,name,start_us,end_us,parent,cell\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const obs::TraceEvent& event = events_[i];
    out << event.tid << ',' << i << ',' << event.name << ',' << event.ts_us
        << ',' << EndUs(event) << ',' << parent_[i] << ',' << cell_[i]
        << '\n';
  }
}

void WriteLayerCsv(const std::map<std::string, LayerTotal>& totals,
                   const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    throw std::runtime_error("cannot write layer file " + path);
  }
  out << "name,count,total_ms,self_ms\n";
  for (const auto& [name, total] : totals) {
    out << name << ',' << total.count << ',' << total.total_ms << ','
        << total.self_ms << '\n';
  }
}

TraceScope::TraceScope(bool main_shard) {
  obs::TraceRecorder::Install(&recorder_);
  obs::InstallMetrics(&metrics_);
  if (main_shard) {
    metrics_.EnsureShards(1);
    shard_.emplace(&metrics_.Shard(0));
  }
}

TraceScope::~TraceScope() { Stop(); }

void TraceScope::Stop() {
  if (!active_) {
    return;
  }
  active_ = false;
  shard_.reset();
  obs::InstallMetrics(nullptr);
  obs::TraceRecorder::Install(nullptr);
}

std::map<std::string, std::int64_t> TraceScope::Counters() const {
  std::map<std::string, std::int64_t> counters;
  for (const obs::AggregatedMetric& metric : metrics_.Aggregate()) {
    counters[metric.name] = metric.count;
  }
  return counters;
}

}  // namespace perfbench
