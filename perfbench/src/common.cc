#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fps/expansion.h"
#include "sim/static_schedule.h"

namespace perfbench {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::int64_t RunConfig::Rounds(double round_s) const {
  // Three quarters of the budget at the reference speed leaves room for
  // set-up and for a machine a third slower.
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::floor(0.75 * seconds / round_s)));
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double HarrellDavis(std::vector<double> values, double p) {
  if (values.size() < 2) {
    return values.empty() ? 0.0 : values.front();
  }
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const double a = p / 100.0 * (n + 1.0);
  const double b = (1.0 - p / 100.0) * (n + 1.0);
  // Log of the Beta density up to a constant, less its value at the mode
  // (clamped into the grid's range), so that exp() stays in range for
  // large n.
  const auto log_density = [&](double x) {
    return (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x);
  };
  const double mode = std::clamp((a - 1.0) / (a + b - 2.0), 1e-9, 1.0 - 1e-9);
  const double peak = log_density(mode);
  // Midpoint rule over each order statistic's share; the weights are
  // normalised at the end, so the Beta function is not needed.
  constexpr int kSteps = 256;
  double mass_sum = 0.0;
  double weighted_sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    double mass = 0.0;
    for (int k = 0; k < kSteps; ++k) {
      const double x = (static_cast<double>(i) + (k + 0.5) / kSteps) / n;
      mass += std::exp(log_density(x) - peak);
    }
    mass_sum += mass;
    weighted_sum += mass * values[i];
  }
  return weighted_sum / mass_sum;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Gate::Cell(std::int64_t id, const Problem& problem) {
  std::lock_guard<std::mutex> lock(mutex_);
  bool& failed = cell_failed_[id];
  if (!problem.empty()) {
    failed = true;
    wrong_ += problem.wrong;
    // Log wrong results first; a repair fallback is logged only while
    // nothing worse has been seen.
    if (problem.wrong && problems_.size() == 8 && !logged_wrong_) {
      problems_.clear();
    }
    logged_wrong_ = logged_wrong_ || problem.wrong;
    if (problems_.size() < 8 && (problem.wrong || !logged_wrong_)) {
      problems_.push_back(problem.text);
    }
  }
}

void Gate::Fail(const std::string& problem) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++wrong_;
  if (!logged_wrong_) {
    problems_.clear();
    logged_wrong_ = true;
  }
  if (problems_.size() < 8) {
    problems_.push_back(problem);
  }
}

Gate::Problem Gate::CheckOutcome(const dvs::core::MethodOutcome& outcome,
                                 const char* arm) {
  const std::string prefix = std::string(arm) + ": ";
  if (outcome.deadline_misses != 0) {
    return {prefix + std::to_string(outcome.deadline_misses) +
            " deadline misses"};
  }
  if (!std::isfinite(outcome.measured_energy) ||
      !(outcome.measured_energy > 0.0) ||
      !std::isfinite(outcome.predicted_energy)) {
    return {prefix + "non-finite or non-positive energy"};
  }
  if (outcome.used_fallback) {
    return {prefix + "repair fallback", /*wrong=*/false};
  }
  return {};
}

std::int64_t Gate::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(cell_failed_.size());
}

std::int64_t Gate::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t failed = 0;
  for (const auto& [id, cell_failed] : cell_failed_) {
    failed += cell_failed;
  }
  return failed;
}

bool Gate::correct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wrong_ == 0 && !cell_failed_.empty();
}

std::vector<std::string> Gate::problems() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return problems_;
}

AuditedMethod::AuditedMethod(const char* name, Gate& gate,
                             std::optional<std::uint64_t> plan_seed)
    : inner_(dvs::core::MethodRegistry::Builtin().Get(name)),
      gate_(gate),
      plan_seed_(plan_seed) {}

dvs::core::MethodPlan AuditedMethod::Plan(
    dvs::core::MethodContext& context) const {
  dvs::core::MethodPlan plan = [&] {
    dvs::obs::Span span("plan", "perfbench");
    const dvs::core::ExperimentOptions* evaluation = context.experiment();
    if (!plan_seed_.has_value() || evaluation == nullptr) {
      return inner_.Plan(context);
    }
    dvs::core::ExperimentOptions planning = *evaluation;
    planning.seed = *plan_seed_;
    context.AttachExperiment(planning);
    dvs::core::MethodPlan pinned = inner_.Plan(context);
    context.AttachExperiment(*evaluation);
    return pinned;
  }();
  dvs::obs::Span span("audit", "perfbench");
  const dvs::sim::FeasibilityReport audit =
      dvs::sim::VerifyWorstCase(context.fps(), plan.schedule, context.dvs());
  if (!audit.feasible) {
    gate_.Fail("VerifyWorstCase: " + audit.detail);
  }
  return plan;
}

namespace {

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool SameBits(const dvs::core::MethodOutcome& a,
              const dvs::core::MethodOutcome& b) {
  return SameDouble(a.predicted_energy, b.predicted_energy) &&
         SameDouble(a.measured_energy, b.measured_energy) &&
         a.deadline_misses == b.deadline_misses &&
         a.voltage_switches == b.voltage_switches &&
         a.used_fallback == b.used_fallback &&
         a.solver_outer_iterations == b.solver_outer_iterations &&
         a.solver_inner_iterations == b.solver_inner_iterations &&
         a.solver_evaluations == b.solver_evaluations &&
         SameDouble(a.idle_energy, b.idle_energy) &&
         SameDouble(a.sleep_energy, b.sleep_energy) &&
         SameDouble(a.sleep_time, b.sleep_time) && a.sleeps == b.sleeps &&
         a.migrations == b.migrations &&
         SameDouble(a.weighted_cores, b.weighted_cores);
}

void AddEndToEndMetrics(const EndToEnd& e2e, Report& report) {
  report.Add("setup_s", e2e.setup_s, "s");
  report.Add("cells_per_s", e2e.cells_per_s, "1/s");
  report.Add("cell_ms_p50", HarrellDavis(e2e.cell_ms, 50.0), "ms");
  report.Add("cell_ms_p90", HarrellDavis(e2e.cell_ms, 90.0), "ms");
  report.Add("warm_cells_per_s", e2e.warm_cells_per_s, "1/s");
  report.Add("warmboot_cells_per_s", e2e.warmboot_cells_per_s, "1/s");
  report.Add("energy_vs_wcs",
             e2e.wcs_energy > 0.0 ? e2e.acs_energy / e2e.wcs_energy : 0.0,
             "ratio");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.info["cell_samples"] = std::to_string(e2e.cell_ms.size());
}

void ReportTrace(const TraceScope& trace,
                 const std::map<std::string, double>& counts,
                 double traced_wall_s, double untraced_wall_s,
                 const RunConfig& config, Report& report) {
  const SpanTree tree(trace.recorder().Events());
  const std::map<std::string, LayerTotal> spans = tree.Totals();
  tree.WriteCsv(config.trace_prefix + "-spans.csv");
  WriteLayerCsv(spans, config.trace_prefix + "-layers.csv");
  const std::map<std::string, std::int64_t> counters = trace.Counters();
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? LayerTotal{} : it->second;
  };
  const auto count = [&](const char* name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };
  const auto counter = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  // Spans of the library's own taxonomy (core/scheduler.cc "alm" per
  // phase, "calibrate", "simulate") and of the harness (the rest).
  const double busy_ms = span("cell").total_ms + span("pass.plan").total_ms;
  const auto share = [&](double self_ms) {
    return busy_ms > 0.0 ? self_ms / busy_ms : 0.0;
  };

  report.Add("fps.expand_ms", span("fps.expand").total_ms, "ms");
  report.Add("fps.subs", count("fps.subs"), "count");
  report.Add("solve.wcs_ms", span("alm.wcs").total_ms, "ms");
  report.Add("solve.acs_ms", span("alm.acs").total_ms, "ms");
  report.Add("solve.planned_ms", span("alm.planned").total_ms, "ms");
  report.Add("solve.count", count("solve.count"), "count");
  report.Add("solve.outer_iters", count("solve.outer_iters"), "count");
  report.Add("solve.inner_iters", count("solve.inner_iters"), "count");
  report.Add("solve.evals", count("solve.evals"), "count");
  report.Add("solve.converged_share", count("solve.converged_share"), "ratio");
  report.Add("solve.capped_share", count("solve.capped_share"), "ratio");
  report.Add("solve.fallbacks", count("solve.fallbacks"), "count");
  report.Add("solve.self_share", share(span("alm").self_ms), "ratio");
  report.Add("calibrate.ms", span("calibrate").total_ms, "ms");
  report.Add("calibrate.count", counter("calibrate.runs"), "count");
  const double sim_ms = span("simulate").total_ms;
  report.Add("sim.ms", sim_ms, "ms");
  report.Add("sim.jobs", count("sim.jobs"), "count");
  report.Add("sim.dispatches", count("sim.dispatches"), "count");
  report.Add("sim.jobs_per_s",
             sim_ms > 0.0 ? count("sim.jobs") / (sim_ms * 1e-3) : 0.0, "1/s");
  report.Add("sim.voltage_switches", count("sim.voltage_switches"), "count");
  report.Add("sim.preemptions", count("sim.preemptions"), "count");
  report.Add("policy.dp_dispatches", counter("online.dp_dispatches"),
             "count");
  report.Add("sim.self_share", share(span("simulate").self_ms), "ratio");
  report.Add("audit.ms", span("audit").total_ms, "ms");
  report.Add("audit.count", static_cast<double>(span("audit").count),
             "count");
  report.Add("dpm.sleeps", count("dpm.sleeps"), "count");
  report.Add("dpm.migrations", count("dpm.migrations"), "count");
  report.Add("dpm.weighted_cores", count("dpm.weighted_cores"), "cores");
  report.Add("dpm.consolidate_ms", span("dpm.consolidate").total_ms, "ms");
  report.Add("mp.partition_ms", span("mp.partition").total_ms, "ms");
  report.Add("mp.powered_cores", count("mp.powered_cores"), "cores");
  const double hits =
      counter("solve.cache_hits") + counter("calibrate.cache_hits");
  const double misses =
      counter("solve.wcs_solves") + counter("solve.acs_solves") +
      counter("solve.planned_solves") + counter("calibrate.runs");
  report.Add("cache.hit_share",
             hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  report.Add("store.open_ms", span("store.open").total_ms, "ms");
  report.Add("store.load_ms", span("store.load").total_ms, "ms");
  report.Add("store.writeback_ms", span("store.writeback").total_ms, "ms");
  report.Add("store.bytes", count("store.bytes"), "bytes");
  report.Add("store.entries", count("store.entries"), "count");
  report.Add("runner.grid_ms", span("runner.grid").total_ms, "ms");
  report.Add("runner.sink_ms", span("runner.sink").total_ms, "ms");
  report.Add("runner.tail_idle_ms", count("runner.tail_idle_ms"), "ms");
  report.Add("trace.overhead_share",
             untraced_wall_s > 0.0 ? traced_wall_s / untraced_wall_s - 1.0
                                   : 0.0,
             "ratio");
}

std::string ReadStoreEntry(const dvs::core::SolveStore& store,
                           std::uint64_t key) {
  std::ifstream in(store.EntryPath(key), std::ios::binary);
  std::ostringstream image;
  image << in.rdbuf();
  return image.str();
}

void AddStoredSolves(const std::vector<std::string>& dirs,
                     std::map<std::string, double>& counts) {
  double solves = 0.0;
  double converged = 0.0;
  double capped = 0.0;
  double bytes = 0.0;
  double entries = 0.0;
  const auto add = [&](const dvs::core::StoredScheduleResult& result) {
    ++solves;
    counts["solve.outer_iters"] +=
        static_cast<double>(result.alm.outer_iterations);
    counts["solve.inner_iters"] +=
        static_cast<double>(result.alm.total_inner_iterations);
    counts["solve.evals"] += static_cast<double>(result.alm.evaluations);
    converged += result.alm.inner_status == dvs::opt::SolveStatus::kConverged;
    capped +=
        result.alm.inner_status == dvs::opt::SolveStatus::kMaxIterations;
    counts["solve.fallbacks"] += result.used_fallback;
  };
  for (const std::string& dir : dirs) {
    const dvs::core::SolveStore store(dir, /*read_only=*/true);
    for (const std::uint64_t key : store.DiskKeys()) {
      const std::string image = ReadStoreEntry(store, key);
      const dvs::core::StoredCell cell =
          dvs::core::DeserializeStoredCell(image);
      ++entries;
      bytes += static_cast<double>(image.size());
      if (cell.wcs) {
        add(*cell.wcs);
      }
      if (cell.acs) {
        add(*cell.acs);
      }
      for (const dvs::core::StoredPlannedSolve& planned : cell.planned) {
        add(planned.result);
      }
    }
  }
  counts["solve.count"] = solves;
  counts["solve.converged_share"] = solves > 0.0 ? converged / solves : 0.0;
  counts["solve.capped_share"] = solves > 0.0 ? capped / solves : 0.0;
  counts["store.bytes"] = bytes;
  counts["store.entries"] = entries;
}

dvs::model::TaskSet DrawInBand(const dvs::workload::RandomTaskSetOptions& gen,
                               std::size_t min_subs,
                               const dvs::model::DvsModel& dvs,
                               dvs::stats::Rng& rng) {
  // A narrow band rejects most draws, so give the generator's own
  // rejection loop (sets above the band) room as well.
  dvs::workload::RandomTaskSetOptions options = gen;
  options.max_attempts = std::max(options.max_attempts, 20000);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    dvs::model::TaskSet set =
        dvs::workload::GenerateRandomTaskSet(options, dvs, rng);
    if (dvs::fps::CountSubInstances(set) >= min_subs) {
      return set;
    }
  }
  throw std::runtime_error("no generator set in the sub-instance band");
}

std::string FreshDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void RemoveDir(const std::string& dir) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

}  // namespace perfbench
