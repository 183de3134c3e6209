#include "runner/family.h"

#include <algorithm>
#include <numeric>

#include "util/error.h"

namespace dvs::runner {
namespace {

// Cost-model weights, in arbitrary but mutually consistent units
// (calibrated from solve.wall_us / cell.wall_us traces: one ALM solve of
// a 6-task set costs roughly 400x one simulated hyper-period).

/// Fixed cost of one NLP solve (ALM outer loop + repair).
constexpr double kSolveBase = 200.0;
/// Additional solve cost per task (the reduced NLP's variable count —
/// and with it SPG iteration cost — grows with the expansion).
constexpr double kSolvePerTask = 40.0;
/// Cost of simulating one hyper-period of one method.
constexpr double kSimPerHyperPeriod = 1.0;
/// Fixed per-cell overhead (task-set draw, context setup, sinks).
constexpr double kCellBase = 25.0;
/// Cost of one scenario calibration (sampling + sorting the draws).
constexpr double kCalibration = 120.0;

/// Task count of the set a SetIndex draws (fixed size or the generator's
/// num_tasks) — the solve-cost driver that actually varies across sources.
std::size_t TasksOfSet(const ExperimentGrid& grid, std::size_t set_index) {
  const std::size_t utils =
      grid.utilizations.empty() ? 1 : grid.utilizations.size();
  std::size_t offset = 0;
  for (const TaskSetSource& source : grid.sources) {
    const std::size_t util_cells = source.fixed.has_value() ? 1 : utils;
    const std::size_t span =
        static_cast<std::size_t>(source.Replicates()) * util_cells;
    if (set_index < offset + span) {
      return source.fixed.has_value()
                 ? source.fixed->size()
                 : static_cast<std::size_t>(source.random.num_tasks);
    }
    offset += span;
  }
  throw util::InternalError("set index out of range in TasksOfSet");
}

std::size_t PlanningArmCount(const ExperimentGrid& grid) {
  std::size_t count = 0;
  for (const std::string& method : grid.methods) {
    if (method == "acs-scenario" || method == "acs-quantile" ||
        method == "acs-mixture") {
      ++count;
    }
  }
  return count;
}

}  // namespace

std::size_t FamilySchedule::TotalCells() const {
  std::size_t total = 0;
  for (const CellFamily& family : families) {
    total += family.CellCount();
  }
  return total;
}

std::size_t FamilySchedule::WorkerCells(std::size_t worker) const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < families.size(); ++i) {
    if (owner[i] == worker) {
      total += families[i].CellCount();
    }
  }
  return total;
}

double FamilyCost(const ExperimentGrid& grid, std::size_t set_index) {
  const std::size_t tasks = TasksOfSet(grid, set_index);
  const std::size_t methods = grid.methods.size();
  const std::size_t planning_arms = PlanningArmCount(grid);
  const std::size_t scenarios = std::max<std::size_t>(1, grid.scenarios.size());
  const std::size_t sigmas =
      std::max<std::size_t>(1, grid.sigma_divisors.size());
  const std::size_t seeds =
      std::max<std::size_t>(1, grid.workload_seeds.size());
  const std::size_t partitioners =
      std::max<std::size_t>(1, grid.partitioners.size());
  const std::size_t core_entries =
      std::max<std::size_t>(1, grid.core_counts.size());
  const std::size_t cells =
      core_entries * partitioners * scenarios * sigmas * seeds;

  // Solves the family's workspace entry performs once and then serves from
  // cache: the shared planning-invariant triple (WCS doubles as the ACS
  // warm start, Vmax-ASAP seeds two baselines) plus one planned solve per
  // (planning arm x scenario x sigma) point.  Multi-core cells repeat the
  // pipeline per powered core and per partitioner-induced subset.
  double core_factor = 0.0;
  for (const int cores : grid.core_counts) {
    core_factor += static_cast<double>(std::max(1, cores));
  }
  core_factor = grid.MultiCore()
                    ? core_factor / static_cast<double>(core_entries) *
                          static_cast<double>(partitioners)
                    : 1.0;
  const double solve_unit =
      kSolveBase + kSolvePerTask * static_cast<double>(tasks);
  const double shared_solves = 3.0;
  const double planned_solves = static_cast<double>(planning_arms) *
                                static_cast<double>(scenarios) *
                                static_cast<double>(sigmas);
  const double calibrations =
      planning_arms > 0
          ? static_cast<double>(scenarios) * static_cast<double>(sigmas)
          : 0.0;

  return core_factor * (shared_solves + planned_solves) * solve_unit +
         calibrations * kCalibration +
         static_cast<double>(cells) *
             (kCellBase +
              kSimPerHyperPeriod *
                  static_cast<double>(methods) *
                  static_cast<double>(grid.hyper_periods));
}

FamilySchedule BuildFamilySchedule(const ExperimentGrid& grid,
                                   std::size_t set_begin, std::size_t set_end,
                                   std::size_t workers) {
  ACS_REQUIRE(workers >= 1, "family schedule needs at least one worker");
  const std::size_t set_count = grid.SetCount();
  ACS_REQUIRE(set_begin <= set_end && set_end <= set_count,
              "family window must lie within the grid's set range");

  FamilySchedule schedule;
  schedule.worker_cost.assign(workers, 0.0);
  if (set_begin == set_end) {
    return schedule;
  }

  // Each SetIndex owns one contiguous run of cell indices (the outermost-
  // axes property ExperimentGrid::SetCount documents), and the inner-axis
  // product is uniform across sets.
  const std::size_t cells_per_set = grid.CellCount() / set_count;
  schedule.families.reserve(set_end - set_begin);
  for (std::size_t set_index = set_begin; set_index < set_end; ++set_index) {
    CellFamily family;
    family.id = schedule.families.size();
    family.set_index = set_index;
    family.begin = set_index * cells_per_set;
    family.end = family.begin + cells_per_set;
    family.cost = FamilyCost(grid, set_index);
    schedule.families.push_back(family);
  }

  // LPT: largest modelled cost first (family id breaks ties, so the order
  // is a pure function of the grid), each onto the least-loaded worker
  // (lowest index breaks ties).
  std::vector<std::size_t> order(schedule.families.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ca = schedule.families[a].cost;
    const double cb = schedule.families[b].cost;
    return ca != cb ? ca > cb : a < b;
  });
  schedule.owner.assign(schedule.families.size(), 0);
  for (const std::size_t id : order) {
    std::size_t best = 0;
    for (std::size_t w = 1; w < workers; ++w) {
      if (schedule.worker_cost[w] < schedule.worker_cost[best]) {
        best = w;
      }
    }
    schedule.owner[id] = best;
    schedule.worker_cost[best] += schedule.families[id].cost;
  }
  return schedule;
}

}  // namespace dvs::runner
