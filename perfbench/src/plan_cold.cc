// plan-cold: the offline planner on distinct task sets.
//
// Every cell is a distinct paper-generator set (Fig. 6a axes: 3 / 4 / 5
// tasks x BCEC/WCEC 0.1 / 0.5 / 0.9, round-robin) with 20-30
// sub-instances, planned with WCS and ACS, audited and simulated for 300
// sub-instances per arm through core::EvaluateMethod.  No solve is reused
// within the cold pass, so the NLP solver does nearly all of the work.
// The sets are small so that a run holds many of them, since per-set solve
// time is heavy-tailed.  They are a fixed suite (drawn from a suite seed,
// like dispatch-long's): a different draw moves the summed solver work by
// up to 15%, which would read as a speed change between seeds.  The run
// seed draws each cell's workload stream.
#include <memory>
#include <string>
#include <vector>

#include "core/eval_workspace.h"
#include "single_core.h"
#include "stats/rng.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = dvs::core;
namespace model = dvs::model;

constexpr int kTaskCounts[] = {3, 4, 5};
constexpr double kRatios[] = {0.1, 0.5, 0.9};
constexpr std::int64_t kCells = 126;  // distinct sets, 14 per axis point
constexpr std::size_t kMinSubs = 20;  // sub-instance band of every set
constexpr std::size_t kMaxSubs = 30;
constexpr std::int64_t kSimSubs = 300;  // sub-instances per arm simulated
constexpr std::uint64_t kSuiteSeed = 2005;  // draws the task sets
constexpr std::int64_t kWarmSweeps = 5;  // warm passes per cold pass
// One round (cold pass and the warm sweeps) on the reference machine.  The
// machine's speed switches between a fast and a slow state every few
// seconds, and a cell's best time is only right when one of its rounds
// fell in a fast spell, so the rounds are kept short: fewer sets (still
// more than 10 beyond p90) sampled more often.
constexpr double kRoundSeconds = 2.3;

struct Inputs {
  model::LinearDvsModel cpu = dvs::workload::DefaultModel();
  std::vector<model::TaskSet> pool;
};

Inputs Setup(const RunConfig& config, const std::string& store_dir) {
  Inputs inputs;
  const std::int64_t pool = config.smoke ? 6 : kCells;
  const std::size_t axis = std::size(kTaskCounts) * std::size(kRatios);
  for (std::int64_t i = 0; i < pool; ++i) {
    const std::size_t point = static_cast<std::size_t>(i) % axis;
    dvs::workload::RandomTaskSetOptions gen;
    gen.num_tasks = config.smoke ? 3 : kTaskCounts[point / std::size(kRatios)];
    gen.bcec_wcec_ratio = kRatios[point % std::size(kRatios)];
    gen.max_sub_instances = config.smoke ? 40 : kMaxSubs;
    dvs::stats::Rng rng =
        dvs::stats::Rng(kSuiteSeed).ForkWith(static_cast<std::uint64_t>(i));
    inputs.pool.push_back(
        DrawInBand(gen, config.smoke ? 4 : kMinSubs, inputs.cpu, rng));
  }
  FreshDir(store_dir);
  return inputs;
}

class PlanCold final : public CellWorkload {
 public:
  PlanCold(const Inputs& inputs, std::uint64_t seed, Gate& gate)
      : inputs_(inputs), seed_(seed), kept_(inputs.pool.size()) {
    for (const char* arm : {"acs", "wcs"}) {
      arms_.push_back(std::make_unique<AuditedMethod>(arm, gate));
    }
  }

  std::int64_t cells() const override {
    return static_cast<std::int64_t>(inputs_.pool.size());
  }

  void BeginPass(Pass pass, core::SolveStore* store) override {
    if (pass == Pass::kBoot) {
      store_ = store;
    }
  }

  /// Cold and warm-boot cells start from a fresh workspace (warm-boot with
  /// the store attached); the cold pass keeps its workspaces for the warm
  /// pass.
  std::vector<core::MethodOutcome> Cell(Pass pass,
                                        std::int64_t cell) override {
    const auto i = static_cast<std::size_t>(cell);
    if (pass == Pass::kWarm) {
      return Evaluate(*kept_[i], Prepared(*kept_[i], cell), cell);
    }
    auto workspace = std::make_unique<core::EvalWorkspace>();
    if (pass == Pass::kBoot) {
      workspace->set_solve_store(store_);
    }
    auto& prepared =
        PrepareNew(*workspace, static_cast<std::uint64_t>(cell),
                   inputs_.pool[i], inputs_.cpu, scheduler_);
    auto outcomes = Evaluate(*workspace, prepared, cell);
    if (pass == Pass::kCold) {
      kept_[i] = std::move(workspace);
    }
    return outcomes;
  }

  void Persist(core::SolveStore& store) override {
    for (const auto& workspace : kept_) {
      workspace->AbsorbInto(store);
    }
  }

  void AddCounts(double evaluations,
                 std::map<std::string, double>& counts) override {
    for (std::int64_t cell = 0; cell < cells(); ++cell) {
      core::EvalWorkspace& workspace = *kept_[static_cast<std::size_t>(cell)];
      auto& prepared = Prepared(workspace, cell);
      counts["fps.subs"] += static_cast<double>(prepared.fps.sub_count());
      core::MethodContext context(prepared.fps, inputs_.cpu, scheduler_,
                                  workspace, prepared.solves);
      for (const auto& arm : arms_) {
        AddSimCounts(*arm, context, Options(prepared, cell), evaluations,
                     counts);
      }
    }
  }

 private:
  /// The cell's set in a workspace that already holds it.
  core::EvalWorkspace::PreparedCell& Prepared(core::EvalWorkspace& workspace,
                                              std::int64_t cell) {
    return workspace.Prepare(static_cast<std::uint64_t>(cell),
                             inputs_.pool[static_cast<std::size_t>(cell)],
                             inputs_.cpu, scheduler_);
  }

  core::ExperimentOptions Options(
      const core::EvalWorkspace::PreparedCell& prepared,
      std::int64_t cell) const {
    core::ExperimentOptions options;
    options.hyper_periods = HyperPeriodsFor(prepared.fps, kSimSubs);
    options.seed = dvs::stats::Rng(seed_)
                       .ForkWith(0x5eed0000ULL +
                                 static_cast<std::uint64_t>(cell))
                       .NextU64();
    return options;
  }

  std::vector<core::MethodOutcome> Evaluate(
      core::EvalWorkspace& workspace,
      core::EvalWorkspace::PreparedCell& prepared, std::int64_t cell) {
    return EvaluateArms(arms_, workspace, prepared, Options(prepared, cell));
  }

  const Inputs& inputs_;
  const std::uint64_t seed_;
  const core::SchedulerOptions scheduler_;
  std::vector<std::unique_ptr<AuditedMethod>> arms_;
  std::vector<std::unique_ptr<core::EvalWorkspace>> kept_;  // cold pass's
  core::SolveStore* store_ = nullptr;  // the warm-boot pass's
};

}  // namespace

void RunPlanCold(const RunConfig& config, Gate& gate, Report& report) {
  const std::string store_dir = config.work_dir + "/store";
  report.info["threads"] = "1";
  Inputs inputs;
  const auto make = [&] {
    return std::make_unique<PlanCold>(inputs, config.seed, gate);
  };
  if (!config.trace) {
    SetupTimer setup;
    setup.Start(config.smoke ? 1 : kSetupBatches,
                [&] { inputs = Setup(config, store_dir); });
    const std::string probe_dir = config.work_dir + "/setup-probe";
    PassLimits limits;
    limits.rounds = config.Rounds(kRoundSeconds);
    limits.warm_sweeps = kWarmSweeps;
    limits.after_round = [&] {
      setup.Batch([&] { Setup(config, probe_dir); });
    };
    const PassResult passes = RunPasses(*make(), limits, store_dir, gate);
    AddPassMetrics(passes, setup.MedianSeconds(), report);
    report.info["rounds"] = std::to_string(limits.rounds);
    return;
  }
  // Traced: one round of every pass.
  inputs = Setup(config, store_dir);
  RunTraced(config, PassLimits{1, 1, nullptr}, store_dir, gate, report,
            make);
}

}  // namespace perfbench
