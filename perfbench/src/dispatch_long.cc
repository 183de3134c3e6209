// dispatch-long: runtime DVS over long missions on few, reused plans.
//
// The paper's CNC and GAP sets and two paper-generator sets are planned
// once per pass (WCS, ACS and the expected-case acs-online plan per
// scenario), then each cell is one long mission under a fresh workload
// stream, alternating the bimodal and bursty scenarios (the "normally
// small, occasionally large" case).  The task sets are a fixed suite; the
// seed draws the workload streams of the missions and the calibration
// stream of the plans.  A fixed suite keeps set-up and mission cost from
// varying with the seed, so a change in the dispatch path is what moves
// this workload.  Every mission evaluates the acs (greedy reclaim),
// acs-online (expected-case DP dispatch) and wcs arms through
// core::EvaluateMethod with DPM sleep states on, so the simulator, the
// dispatch policies and the sleep accounting do the work.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/eval_workspace.h"
#include "dpm/dpm.h"
#include "obs/trace.h"
#include "single_core.h"
#include "stats/rng.h"
#include "workload/cnc.h"
#include "workload/gap.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"
#include "workload/scenario.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = dvs::core;
namespace model = dvs::model;

constexpr const char* kScenarios[] = {"bimodal", "bursty"};
constexpr const char* kArms[] = {"acs", "acs-online", "wcs"};
constexpr std::int64_t kMissionSubs = 600;  // sub-instances per arm per mission
constexpr double kIdlePowerPerMs = 0.05;     // awake floor with DPM on
constexpr std::int64_t kMissionsPerPair = 14;  // per (set, scenario)
constexpr int kRandomSets = 2;
constexpr std::int64_t kTracedRounds = 4;
// One round (every pass once) on the reference machine.
constexpr double kRoundSeconds = 2.0;
constexpr std::size_t kRandomMinSubs = 20;  // sub-instance band of the
constexpr std::size_t kRandomMaxSubs = 40;  // generator sets
constexpr std::uint64_t kSuiteSeed = 2005;  // draws the generator sets

struct Inputs {
  model::LinearDvsModel cpu = dvs::workload::DefaultModel();
  std::vector<model::TaskSet> sets;
  std::int64_t mission_subs = 0;
  std::int64_t missions_per_pair = 0;
  dvs::dpm::Options dpm;
};

Inputs Setup(const RunConfig& config, const std::string& store_dir) {
  Inputs inputs;
  inputs.sets.push_back(dvs::workload::CncTaskSet({}, inputs.cpu));
  inputs.sets.push_back(dvs::workload::GapTaskSet({}, inputs.cpu));
  for (int i = 0; i < kRandomSets; ++i) {
    dvs::workload::RandomTaskSetOptions gen;
    gen.num_tasks = 5;
    gen.max_sub_instances = kRandomMaxSubs;
    dvs::stats::Rng rng = dvs::stats::Rng(kSuiteSeed).ForkWith(
        static_cast<std::uint64_t>(i));
    inputs.sets.push_back(DrawInBand(gen, kRandomMinSubs, inputs.cpu, rng));
  }
  inputs.mission_subs = config.smoke ? 300 : kMissionSubs;
  inputs.missions_per_pair = config.smoke ? 1 : kMissionsPerPair;
  inputs.dpm.enabled = true;
  inputs.dpm.idle = model::IdlePower{kIdlePowerPerMs};
  inputs.dpm.sleep = dvs::dpm::ResolveSleepState("deep", inputs.dpm.idle);
  FreshDir(store_dir);
  return inputs;
}

class DispatchLong final : public CellWorkload {
 public:
  DispatchLong(const Inputs& inputs, std::uint64_t seed, Gate& gate)
      : inputs_(inputs), seed_(seed) {
    // Every mission of a set shares one calibrated acs-online plan.
    const std::uint64_t plan_seed =
        dvs::stats::Rng(seed).ForkWith(0x91a7ULL).NextU64();
    for (const char* arm : kArms) {
      arms_.push_back(std::make_unique<AuditedMethod>(arm, gate, plan_seed));
    }
  }

  std::int64_t cells() const override {
    return static_cast<std::int64_t>(Pairs()) * inputs_.missions_per_pair;
  }

  /// Cold: expands and plans every set on a fresh workspace.  Warm-boot:
  /// the same on a fresh workspace with the store attached.  Warm: reuses
  /// the cold workspace.
  void BeginPass(Pass pass, core::SolveStore* store) override {
    if (pass == Pass::kWarm) {
      return;
    }
    auto& workspace = pass == Pass::kCold ? cold_ : boot_;
    workspace = std::make_unique<core::EvalWorkspace>();
    workspace->set_solve_store(store);
    dvs::obs::Span span("pass.plan", "perfbench");
    for (std::size_t set = 0; set < inputs_.sets.size(); ++set) {
      auto& prepared = PrepareNew(*workspace, set, inputs_.sets[set],
                                  inputs_.cpu, scheduler_);
      core::MethodContext context(prepared.fps, inputs_.cpu, scheduler_,
                                  *workspace, prepared.solves);
      for (std::size_t c = 0; c < std::size(kScenarios); ++c) {
        const core::ExperimentOptions options = Options(prepared, c, 0);
        context.AttachExperiment(options);
        for (const auto& arm : arms_) {
          arm->Plan(context);
        }
      }
    }
  }

  std::vector<core::MethodOutcome> Cell(Pass pass,
                                        std::int64_t cell) override {
    core::EvalWorkspace& workspace = pass == Pass::kBoot ? *boot_ : *cold_;
    const std::size_t pair = static_cast<std::size_t>(cell) % Pairs();
    auto& prepared = Prepared(workspace, pair / std::size(kScenarios));
    return EvaluateArms(
        arms_, workspace, prepared,
        Options(prepared, pair % std::size(kScenarios), cell));
  }

  void Persist(core::SolveStore& store) override { cold_->AbsorbInto(store); }

  void AddCounts(double evaluations,
                 std::map<std::string, double>& counts) override {
    for (std::size_t set = 0; set < inputs_.sets.size(); ++set) {
      counts["fps.subs"] +=
          static_cast<double>(Prepared(*cold_, set).fps.sub_count());
    }
    for (std::int64_t cell = 0; cell < cells(); ++cell) {
      const std::size_t pair = static_cast<std::size_t>(cell) % Pairs();
      auto& prepared = Prepared(*cold_, pair / std::size(kScenarios));
      core::MethodContext context(prepared.fps, inputs_.cpu, scheduler_,
                                  *cold_, prepared.solves);
      const core::ExperimentOptions options =
          Options(prepared, pair % std::size(kScenarios), cell);
      for (const auto& arm : arms_) {
        AddSimCounts(*arm, context, options, evaluations, counts);
      }
    }
  }

 private:
  std::size_t Pairs() const {
    return inputs_.sets.size() * std::size(kScenarios);
  }

  /// A set the pass's workspace already holds.
  core::EvalWorkspace::PreparedCell& Prepared(core::EvalWorkspace& workspace,
                                              std::size_t set) {
    return workspace.Prepare(set, inputs_.sets[set], inputs_.cpu, scheduler_);
  }

  /// Mission `cell` of a set under scenario `c`: its own workload stream.
  core::ExperimentOptions Options(
      const core::EvalWorkspace::PreparedCell& prepared, std::size_t c,
      std::int64_t cell) const {
    core::ExperimentOptions options;
    options.hyper_periods = HyperPeriodsFor(prepared.fps, inputs_.mission_subs);
    options.seed =
        dvs::stats::Rng(seed_)
            .ForkWith(0x6d150000ULL + static_cast<std::uint64_t>(cell))
            .NextU64();
    options.scenario =
        &dvs::workload::ScenarioRegistry::Builtin().Get(kScenarios[c]);
    options.scenario_key = kScenarios[c];
    options.dpm = inputs_.dpm;
    return options;
  }

  const Inputs& inputs_;
  const std::uint64_t seed_;
  const core::SchedulerOptions scheduler_;
  std::vector<std::unique_ptr<AuditedMethod>> arms_;
  std::unique_ptr<core::EvalWorkspace> cold_;
  std::unique_ptr<core::EvalWorkspace> boot_;
};

}  // namespace

void RunDispatchLong(const RunConfig& config, Gate& gate, Report& report) {
  const std::string store_dir = config.work_dir + "/store";
  report.info["threads"] = "1";
  Inputs inputs;
  const auto make = [&] {
    return std::make_unique<DispatchLong>(inputs, config.seed, gate);
  };
  if (!config.trace) {
    SetupTimer setup;
    setup.Start(config.smoke ? 1 : kSetupBatches,
                [&] { inputs = Setup(config, store_dir); });
    const std::string probe_dir = config.work_dir + "/setup-probe";
    PassLimits limits;
    limits.rounds = config.Rounds(kRoundSeconds);
    limits.after_round = [&] {
      setup.Batch([&] { Setup(config, probe_dir); });
    };
    const PassResult passes = RunPasses(*make(), limits, store_dir, gate);
    AddPassMetrics(passes, setup.MedianSeconds(), report);
    report.info["rounds"] = std::to_string(limits.rounds);
    return;
  }
  // Traced: a few rounds, so that planning is amortised as in an untraced
  // run.
  inputs = Setup(config, store_dir);
  RunTraced(config, PassLimits{config.smoke ? 1 : kTracedRounds, 1, nullptr},
            store_dir, gate, report, make);
}

}  // namespace perfbench
