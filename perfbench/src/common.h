// Shared pieces of the benchmark harness: run configuration, the metric
// report, the correctness gate and small statistics helpers.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/method_registry.h"
#include "core/pipeline.h"
#include "core/solve_store.h"
#include "model/power_model.h"
#include "model/task.h"
#include "spans.h"
#include "stats/rng.h"
#include "workload/random_taskset.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;        // tiny inputs for the smoke test
  std::string work_dir;      // per-run scratch (stores, sinks), removed
  std::string trace_prefix;  // a traced run writes <prefix>-spans.csv
                             // and <prefix>-layers.csv

  /// Rounds of identical work a run makes when one round is expected to
  /// take `round_s` on the reference machine: a fixed number for a given
  /// --seconds, so that every build of the code takes the same number of
  /// samples per cell whatever its speed.  Sized so the run fits in
  /// --seconds with room for a machine a third slower; at least one.
  std::int64_t Rounds(double round_s) const;
};

/// Seconds since `start` on the steady clock.
double SecondsSince(std::chrono::steady_clock::time_point start);

/// Linear-interpolated percentile (numpy's default), p in [0, 100].
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Harrell-Davis estimate of the p-th percentile, p in [0, 100]: a mean of
/// every order statistic weighted by the Beta(p'(n+1), (1-p')(n+1)) mass
/// on its share of [0, 1], p' = p / 100.  In a sparse tail, where
/// neighbouring values lie several percent apart, a linear-interpolated
/// percentile jumps whenever two of them swap order; this one moves
/// smoothly.
double HarrellDavis(std::vector<double> values, double p);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Correctness gate shared by every workload.  A cell fails when it has a
/// cell error, a deadline miss, a repair fallback or a non-finite /
/// non-positive energy; warm and warm-boot passes must also reproduce the
/// cold pass's outcomes bit for bit.  Every failure except a repair
/// fallback is also a wrong result, as is a plan that fails
/// sim::VerifyWorstCase (AuditedMethod): a fallback plan is the solver's
/// feasible warm start, so it passes the audit but counts as a failed
/// cell.  Thread-safe.
class Gate {
 public:
  /// A cell's first problem; empty when it passed.
  struct Problem {
    std::string text;
    bool wrong = true;  // false: failed operation with a correct output
    bool empty() const { return text.empty(); }
  };

  /// Records one evaluation of cell `id`.  A cell re-evaluated in several
  /// rounds or passes is attempted once, and failed if any evaluation had a
  /// problem, so the counts do not depend on how many rounds a run made.
  void Cell(std::int64_t id, const Problem& problem);
  /// Checks one outcome's invariants; returns the first problem.
  static Problem CheckOutcome(const dvs::core::MethodOutcome& outcome,
                              const char* arm);
  /// Records a wrong result not tied to one cell.
  void Fail(const std::string& problem);

  std::int64_t attempted() const;
  std::int64_t failed() const;
  bool correct() const;
  std::vector<std::string> problems() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::int64_t, bool> cell_failed_;
  std::int64_t wrong_ = 0;
  bool logged_wrong_ = false;
  std::vector<std::string> problems_;  // first few, for the log
};

/// Wraps a builtin method: each plan is timed (span "plan") and checked
/// with sim::VerifyWorstCase (span "audit"), and a failed audit is a wrong
/// result in `gate`.  With a `plan_seed` the method plans under that seed
/// rather than the evaluation's, so that evaluations under many workload
/// streams share one calibrated plan (the seed picks the calibration
/// stream, core::CalibrationSeed).  Thread-safe, so runner::RunGrid's
/// workers can share one.
class AuditedMethod final : public dvs::core::ScheduleMethod {
 public:
  AuditedMethod(const char* name, Gate& gate,
                std::optional<std::uint64_t> plan_seed = std::nullopt);
  dvs::core::MethodPlan Plan(dvs::core::MethodContext& context) const override;

 private:
  const dvs::core::ScheduleMethod& inner_;
  Gate& gate_;
  const std::optional<std::uint64_t> plan_seed_;
};

/// Bitwise equality of every MethodOutcome field.
bool SameBits(const dvs::core::MethodOutcome& a,
              const dvs::core::MethodOutcome& b);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the gate verdict and its metrics
/// (end-to-end ones untraced, per-layer ones traced) plus run facts for
/// the info line.
struct Report {
  std::vector<Metric> metrics;
  std::map<std::string, std::string> info;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Ends a traced run: adds the per-layer metrics every workload prints and
/// writes the spans and the per-layer totals under the config's trace
/// prefix.  Layer times and the calibration, dispatch and cache counters
/// come from the trace scope's spans and obs counters; work counts the
/// spans cannot give (sub-instances, solver iterations, simulated jobs,
/// store size, ...) come from `counts`, and a missing entry reads 0.  The
/// self-time shares are over the time spent in "cell" spans and in the
/// per-pass planning spans ("pass.plan").
void ReportTrace(const TraceScope& trace,
                 const std::map<std::string, double>& counts,
                 double traced_wall_s, double untraced_wall_s,
                 const RunConfig& config, Report& report);

/// The file image of one store entry (for core::DeserializeStoredCell).
std::string ReadStoreEntry(const dvs::core::SolveStore& store,
                           std::uint64_t key);

/// Adds to `counts` the solver work of every distinct solve in the stores
/// under `dirs` (solve.count, iterations, evaluations, converged / capped
/// shares, fallbacks) and the stores' size (store.bytes, store.entries).
void AddStoredSolves(const std::vector<std::string>& dirs,
                     std::map<std::string, double>& counts);

/// The end-to-end metrics every workload prints in an untraced run.
struct EndToEnd {
  double setup_s = 0.0;
  double cells_per_s = 0.0;
  std::vector<double> cell_ms;  // cold-pass per-cell latencies
  double warm_cells_per_s = 0.0;
  double warmboot_cells_per_s = 0.0;
  double acs_energy = 0.0;      // sums over the cold pass
  double wcs_energy = 0.0;
};
void AddEndToEndMetrics(const EndToEnd& e2e, Report& report);

/// Each cell's fastest time over repeated rounds of identical work.  The
/// machines this runs on are shared and their speed drifts by tens of
/// percent for seconds at a time, so every pass repeats its cells in rounds
/// and keeps each cell's best time.
class BestTimes {
 public:
  explicit BestTimes(std::size_t cells) : best_s_(cells, 1e300) {}

  /// Runs `work` for `cell` and keeps its time if it is the fastest yet.
  template <typename Work>
  void Time(std::size_t cell, Work&& work) {
    const auto start = std::chrono::steady_clock::now();
    work();
    best_s_[cell] = std::min(best_s_[cell], SecondsSince(start));
  }

  double Sum() const {
    double sum = 0.0;
    for (double t : best_s_) {
      sum += t;
    }
    return sum;
  }

  std::vector<double> Ms() const {
    std::vector<double> ms;
    for (double t : best_s_) {
      ms.push_back(t * 1e3);
    }
    return ms;
  }

 private:
  std::vector<double> best_s_;
};

/// A pass's throughput: `cells` evaluated in each of `rounds` rounds after
/// a one-off set-up of `setup_s`, charging each round the best times.
inline double PassRate(std::size_t cells, std::int64_t rounds, double setup_s,
                       const BestTimes& best) {
  const auto r = static_cast<double>(rounds);
  return static_cast<double>(cells) * r / (setup_s + r * best.Sum());
}

/// Set-up batches timed before the passes.
constexpr int kSetupBatches = 3;

/// Set-up time, sampled across the whole run.  A batch repeats the set-up
/// until it lasts at least 100 ms, so that short set-ups are not lost in
/// timer and file-system jitter; the first call sizes the batches, and as
/// it warms the allocator and the directory tree it counts as a batch only
/// when it alone lasts that long.  The machine's speed drifts over seconds,
/// so besides the batches before the passes the workloads time one more
/// batch after every round (of a set-up whose result they discard);
/// setup_s is the median batch.
class SetupTimer {
 public:
  /// Times `setup` until `batches` batches are recorded.
  template <typename Setup>
  void Start(int batches, Setup&& setup) {
    const auto first = std::chrono::steady_clock::now();
    setup();
    const double once = std::max(SecondsSince(first), 1e-7);
    repeats_ = static_cast<int>(std::ceil(kBatchSeconds / once));
    if (repeats_ == 1) {
      times_.push_back(once);
    }
    while (static_cast<int>(times_.size()) < batches) {
      Batch(setup);
    }
  }

  /// Times one more batch of `setup`.
  template <typename Setup>
  void Batch(Setup&& setup) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats_; ++r) {
      setup();
    }
    times_.push_back(SecondsSince(start) / repeats_);
  }

  double MedianSeconds() const { return Median(times_); }

 private:
  static constexpr double kBatchSeconds = 0.1;
  int repeats_ = 1;
  std::vector<double> times_;
};

/// Draws generator sets until one has at least `min_subs` sub-instances
/// (the generator itself rejects sets above gen.max_sub_instances), so
/// every cell's input size sits in a stated band.
dvs::model::TaskSet DrawInBand(const dvs::workload::RandomTaskSetOptions& gen,
                               std::size_t min_subs,
                               const dvs::model::DvsModel& dvs,
                               dvs::stats::Rng& rng);

/// Creates (and empties) `dir`; returns it.
std::string FreshDir(const std::string& dir);
void RemoveDir(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
