// Single-core pass driver shared by the plan-cold and dispatch-long
// workloads.  Cells evaluate their arms through core::EvaluateMethod on a
// core::EvalWorkspace; the warm-boot pass attaches a core::SolveStore to a
// fresh workspace so that EvalWorkspace::Prepare pre-seeds it, and the
// cold pass fills the store with EvalWorkspace::AbsorbInto.
#ifndef PERFBENCH_SINGLE_CORE_H
#define PERFBENCH_SINGLE_CORE_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/eval_workspace.h"
#include "core/method_registry.h"
#include "core/pipeline.h"
#include "core/solve_store.h"
#include "fps/expansion.h"
#include "common.h"

namespace perfbench {

/// Hyper-periods a simulation needs to dispatch at least `subs`
/// sub-instances, so that simulation work per cell does not depend on the
/// set's periods.
std::int64_t HyperPeriodsFor(const dvs::fps::FullyPreemptiveSchedule& fps,
                             std::int64_t subs);

/// Prepares `set` in a workspace that does not hold it yet, under span
/// "fps.expand", or "store.load" when the workspace has a store attached
/// (the miss then pre-seeds the solves from the store after expanding).
dvs::core::EvalWorkspace::PreparedCell& PrepareNew(
    dvs::core::EvalWorkspace& workspace, std::uint64_t key,
    const dvs::model::TaskSet& set, const dvs::model::DvsModel& dvs,
    const dvs::core::SchedulerOptions& scheduler);

/// core::EvaluateMethod of every arm on one prepared set, in order.
std::vector<dvs::core::MethodOutcome> EvaluateArms(
    const std::vector<std::unique_ptr<AuditedMethod>>& arms,
    dvs::core::EvalWorkspace& workspace,
    dvs::core::EvalWorkspace::PreparedCell& cell,
    const dvs::core::ExperimentOptions& options);

/// Work counts obs does not record (simulated jobs, dispatches,
/// preemptions, voltage switches, sleeps): plans `method` and simulates it
/// once more with sim::Simulate under the stream core::EvaluateMethod
/// uses, and adds them `times` over to `counts`.  Traced runs call it
/// after the timed passes, with `times` the evaluations each cell had.
void AddSimCounts(const dvs::core::ScheduleMethod& method,
                  dvs::core::MethodContext& context,
                  const dvs::core::ExperimentOptions& options, double times,
                  std::map<std::string, double>& counts);

enum class Pass { kCold, kWarm, kBoot };

/// A single-core workload as three passes over a fixed list of cells:
/// cold (from scratch; its state is written to a SolveStore), memory-warm
/// (on the state the cold pass left in memory) and warm-boot (on fresh
/// state pre-seeded from that store).  Each cell's outcomes list the ACS
/// arm first and the WCS arm last.
class CellWorkload {
 public:
  virtual ~CellWorkload() = default;
  virtual std::int64_t cells() const = 0;
  /// Once per pass, timed with it (e.g. planning every set).  `store` is
  /// the warm-boot pass's store, null otherwise.
  virtual void BeginPass(Pass pass, dvs::core::SolveStore* store) = 0;
  /// Evaluates one cell; identical work in every round of a pass.
  virtual std::vector<dvs::core::MethodOutcome> Cell(Pass pass,
                                                     std::int64_t cell) = 0;
  /// Absorbs the cold pass's solves into `store`.
  virtual void Persist(dvs::core::SolveStore& store) = 0;
  /// Adds the work counts of the sets (fps.subs) and of the simulations
  /// (AddSimCounts; each cell evaluated `evaluations` times).
  virtual void AddCounts(double evaluations,
                         std::map<std::string, double>& counts) = 0;
};

/// A fixed number of rounds; `warm_sweeps` repeats the memory-warm and
/// warm-boot passes within each round, so that a cheap warm pass still
/// sums seconds of timed work.  `after_round`, when set, runs untimed
/// after every round.
struct PassLimits {
  std::int64_t rounds = 1;
  std::int64_t warm_sweeps = 1;
  std::function<void()> after_round;
};

struct PassResult {
  double cells_per_s = 0.0;     // cold pass
  std::vector<double> cell_ms;  // cold pass, best per cell
  double warm_cells_per_s = 0.0;
  double boot_cells_per_s = 0.0;
  double acs_energy = 0.0;  // cold-pass sums
  double wcs_energy = 0.0;
  double wall_s = 0.0;
};

/// Runs the three passes in interleaved rounds (cold, warm, warm-boot;
/// store under `store_dir`), gating every cell and checking that every
/// re-evaluation reproduces the cold pass's first round bit for bit.
PassResult RunPasses(CellWorkload& workload, const PassLimits& limits,
                     const std::string& store_dir, Gate& gate);

/// Fills the end-to-end metrics from the passes.
void AddPassMetrics(const PassResult& passes, double setup_s, Report& report);

/// A traced run of a single-core workload: the passes once untraced and
/// once traced with the same limits, so counts repeat exactly and the wall
/// difference is the tracing overhead; then the per-layer metrics.
/// `make` builds a fresh workload for each of the two runs.
template <typename Make>
void RunTraced(const RunConfig& config, const PassLimits& limits,
               const std::string& store_dir, Gate& gate, Report& report,
               Make&& make) {
  const double untraced_s =
      RunPasses(*make(), limits, FreshDir(store_dir), gate).wall_s;
  TraceScope trace(/*main_shard=*/true);
  const auto workload = make();
  const double traced_s =
      RunPasses(*workload, limits, FreshDir(store_dir), gate).wall_s;
  trace.Stop();
  std::map<std::string, double> counts;
  workload->AddCounts(
      static_cast<double>(limits.rounds * (1 + 2 * limits.warm_sweeps)),
      counts);
  AddStoredSolves({store_dir}, counts);
  ReportTrace(trace, counts, traced_s, untraced_s, config, report);
}

}  // namespace perfbench

#endif  // PERFBENCH_SINGLE_CORE_H
