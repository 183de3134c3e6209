#include "single_core.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/trace.h"
#include "sim/engine.h"
#include "common.h"

namespace perfbench {

namespace core = dvs::core;
namespace sim = dvs::sim;

std::int64_t HyperPeriodsFor(const dvs::fps::FullyPreemptiveSchedule& fps,
                             std::int64_t subs) {
  const auto per_hyper_period = static_cast<std::int64_t>(fps.sub_count());
  return std::max<std::int64_t>(
      1, (subs + per_hyper_period - 1) / per_hyper_period);
}

core::EvalWorkspace::PreparedCell& PrepareNew(
    core::EvalWorkspace& workspace, std::uint64_t key,
    const dvs::model::TaskSet& set, const dvs::model::DvsModel& dvs,
    const core::SchedulerOptions& scheduler) {
  dvs::obs::Span span(
      workspace.solve_store() != nullptr ? "store.load" : "fps.expand",
      "perfbench");
  return workspace.Prepare(key, set, dvs, scheduler);
}

std::vector<core::MethodOutcome> EvaluateArms(
    const std::vector<std::unique_ptr<AuditedMethod>>& arms,
    core::EvalWorkspace& workspace, core::EvalWorkspace::PreparedCell& cell,
    const core::ExperimentOptions& options) {
  core::MethodContext context(cell.fps, *cell.dvs, cell.scheduler, workspace,
                              cell.solves);
  std::vector<core::MethodOutcome> outcomes;
  for (const auto& arm : arms) {
    outcomes.push_back(core::EvaluateMethod(*arm, context, options));
  }
  return outcomes;
}

void AddSimCounts(const core::ScheduleMethod& method,
                  core::MethodContext& context,
                  const core::ExperimentOptions& options, double times,
                  std::map<std::string, double>& counts) {
  context.AttachExperiment(options);
  const core::MethodPlan plan = method.Plan(context);
  const auto sampler =
      core::MakeRunSampler(options, context.fps().task_set());
  dvs::stats::Rng rng(options.seed);
  sim::SimOptions sim_options;
  sim_options.hyper_periods = options.hyper_periods;
  sim_options.transition = options.transition;
  if (options.dpm.enabled) {
    sim_options.dpm = true;
    sim_options.idle_power = options.dpm.idle;
    sim_options.sleep = options.dpm.sleep;
  }
  const sim::SimResult result =
      sim::Simulate(context.fps(), plan.schedule, context.dvs(), plan.policy,
                    *sampler, rng, sim_options);
  const auto add = [&](const char* name, std::int64_t count) {
    counts[name] += times * static_cast<double>(count);
  };
  add("sim.jobs", result.completed_instances);
  add("sim.dispatches", result.dispatches);
  add("sim.voltage_switches", result.voltage_switches);
  add("sim.preemptions", result.preemptions);
  add("dpm.sleeps", result.sleeps);
}

namespace {

Gate::Problem CheckCell(const std::vector<core::MethodOutcome>& outcomes) {
  for (std::size_t arm = 0; arm < outcomes.size(); ++arm) {
    Gate::Problem problem = Gate::CheckOutcome(
        outcomes[arm], ("arm " + std::to_string(arm)).c_str());
    if (!problem.empty()) {
      return problem;
    }
  }
  return {};
}

bool SameCell(const std::vector<core::MethodOutcome>& a,
              const std::vector<core::MethodOutcome>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t arm = 0; arm < a.size(); ++arm) {
    if (!SameBits(a[arm], b[arm])) {
      return false;
    }
  }
  return true;
}

}  // namespace

PassResult RunPasses(CellWorkload& workload, const PassLimits& limits,
                     const std::string& store_dir, Gate& gate) {
  PassResult out;
  const auto n = static_cast<std::size_t>(workload.cells());
  std::vector<std::vector<core::MethodOutcome>> reference(n);
  const auto evaluate = [&](Pass pass, std::size_t i, const char* label) {
    dvs::obs::Span span("cell", "perfbench");
    span.Arg("cell", static_cast<std::int64_t>(i));
    auto got = workload.Cell(pass, static_cast<std::int64_t>(i));
    auto& expected = reference[i];
    Gate::Problem problem;
    if (expected.empty()) {
      expected = got;
      out.acs_energy += got.front().measured_energy;
      out.wcs_energy += got.back().measured_energy;
    } else if (!SameCell(got, expected)) {
      problem = {std::string(label) + " outcome differs from the cold pass"};
    }
    gate.Cell(static_cast<std::int64_t>(i),
              problem.empty() ? CheckCell(got) : problem);
  };

  const auto start = std::chrono::steady_clock::now();
  BestTimes cold(n);
  BestTimes warm(n);
  BestTimes boot(n);
  double cold_setup_s = 0.0;
  double boot_setup_s = 0.0;
  std::unique_ptr<core::SolveStore> boot_store;
  const auto timed = [](double& seconds, auto&& work) {
    const auto begin = std::chrono::steady_clock::now();
    work();
    seconds += SecondsSince(begin);
  };

  timed(cold_setup_s, [&] { workload.BeginPass(Pass::kCold, nullptr); });
  workload.BeginPass(Pass::kWarm, nullptr);
  for (std::int64_t round = 0; round < limits.rounds; ++round) {
    const auto round_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      cold.Time(i, [&] { evaluate(Pass::kCold, i, "cold"); });
    }
    std::fprintf(stderr, "perfbench: round %lld cold pass %.3f s\n",
                 static_cast<long long>(round), SecondsSince(round_start));
    if (round == 0) {
      // The first cold round writes the store the warm-boot pass reads.
      timed(cold_setup_s, [&] {
        std::unique_ptr<core::SolveStore> store;
        {
          dvs::obs::Span span("store.open", "perfbench");
          store = std::make_unique<core::SolveStore>(store_dir);
        }
        dvs::obs::Span span("store.writeback", "perfbench");
        workload.Persist(*store);
        store->WriteBack();
      });
      timed(boot_setup_s, [&] {
        {
          dvs::obs::Span span("store.open", "perfbench");
          boot_store = std::make_unique<core::SolveStore>(store_dir,
                                                          /*read_only=*/true);
        }
        workload.BeginPass(Pass::kBoot, boot_store.get());
      });
    }
    for (std::int64_t sweep = 0; sweep < limits.warm_sweeps; ++sweep) {
      for (std::size_t i = 0; i < n; ++i) {
        warm.Time(i, [&] { evaluate(Pass::kWarm, i, "warm"); });
      }
      for (std::size_t i = 0; i < n; ++i) {
        boot.Time(i, [&] { evaluate(Pass::kBoot, i, "warm-boot"); });
      }
    }
    if (limits.after_round) {
      limits.after_round();
    }
  }
  const std::int64_t warm_sweeps = limits.rounds * limits.warm_sweeps;
  out.cells_per_s = PassRate(n, limits.rounds, cold_setup_s, cold);
  out.cell_ms = cold.Ms();
  out.warm_cells_per_s = PassRate(n, warm_sweeps, 0.0, warm);
  out.boot_cells_per_s = PassRate(n, warm_sweeps, boot_setup_s, boot);
  out.wall_s = SecondsSince(start);
  return out;
}

void AddPassMetrics(const PassResult& passes, double setup_s, Report& report) {
  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.cells_per_s = passes.cells_per_s;
  e2e.cell_ms = passes.cell_ms;
  e2e.warm_cells_per_s = passes.warm_cells_per_s;
  e2e.warmboot_cells_per_s = passes.boot_cells_per_s;
  e2e.acs_energy = passes.acs_energy;
  e2e.wcs_energy = passes.wcs_energy;
  AddEndToEndMetrics(e2e, report);
}

}  // namespace perfbench
