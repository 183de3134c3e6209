// Cache-affinity cell scheduling contract (runner/family.h +
// ThreadPool::ParallelForFamilies).
//
// BuildFamilySchedule: one family per SetIndex, contiguous ascending cell
// coverage, deterministic LPT assignment with exact tie-breaks.  The pool:
// every cell of every family runs exactly once even when the assignment is
// maximally lopsided (all families on worker 0 — the forced-steal case).
// RunGrid: results are bit-identical across 1 vs 4 threads — the family
// schedule can move work between workers but never a bit in the results.
#include "runner/family.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "model/power_model.h"
#include "runner/experiment_grid.h"
#include "runner/run_grid.h"
#include "runner/thread_pool.h"
#include "util/error.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::runner {
namespace {

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// A grid with several distinct-cost families: two random sources of
/// different task counts plus sigma/seed/scenario inner axes.
ExperimentGrid AffinityGrid(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions small;
  small.num_tasks = 2;
  small.bcec_wcec_ratio = 0.3;
  small.max_sub_instances = 24;
  workload::RandomTaskSetOptions large = small;
  large.num_tasks = 4;

  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {RandomSource("small", small, 2),
                  RandomSource("large", large, 2)};
  grid.sigma_divisors = {6.0, 10.0};
  grid.workload_seeds = {0, 1};
  grid.methods = {"acs", "wcs"};
  grid.hyper_periods = 8;
  grid.master_seed = 21;
  return grid;
}

TEST(FamilySchedule, OneContiguousFamilyPerSetIndexInWindow) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = AffinityGrid(cpu);
  const std::size_t sets = grid.SetCount();
  ASSERT_EQ(sets, 4u);

  const FamilySchedule schedule = BuildFamilySchedule(grid, 0, sets, 3);
  ASSERT_EQ(schedule.families.size(), sets);
  ASSERT_EQ(schedule.owner.size(), sets);
  EXPECT_EQ(schedule.TotalCells(), grid.CellCount());

  std::size_t next_cell = 0;
  for (std::size_t i = 0; i < schedule.families.size(); ++i) {
    const CellFamily& family = schedule.families[i];
    EXPECT_EQ(family.id, i);
    EXPECT_EQ(family.begin, next_cell);
    EXPECT_GT(family.end, family.begin);
    EXPECT_GT(family.cost, 0.0);
    EXPECT_LT(schedule.owner[i], 3u);
    // Every cell of the family shares its SetIndex.
    for (std::size_t cell = family.begin; cell < family.end; ++cell) {
      EXPECT_EQ(grid.SetIndex(grid.Coord(cell)), family.set_index);
    }
    next_cell = family.end;
  }
  EXPECT_EQ(next_cell, grid.CellCount());

  // Larger task sets model as costlier families.
  double small_cost = 0.0;
  double large_cost = 0.0;
  for (const CellFamily& family : schedule.families) {
    const CellCoord coord = grid.Coord(family.begin);
    (coord.source == 0 ? small_cost : large_cost) += family.cost;
  }
  EXPECT_GT(large_cost, small_cost);

  // The assignment is a pure function of (grid, window, workers).
  const FamilySchedule again = BuildFamilySchedule(grid, 0, sets, 3);
  EXPECT_EQ(again.owner, schedule.owner);
  EXPECT_EQ(again.worker_cost, schedule.worker_cost);

  // Shard windows restrict the family set without renumbering cells.
  const FamilySchedule shard = BuildFamilySchedule(grid, 1, 3, 2);
  ASSERT_EQ(shard.families.size(), 2u);
  EXPECT_EQ(shard.families[0].set_index, 1u);
  EXPECT_EQ(shard.families[1].set_index, 2u);
  EXPECT_EQ(shard.families[0].begin, schedule.families[1].begin);
}

TEST(FamilySchedule, LptBalancesAndAccountsEveryFamily) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = AffinityGrid(cpu);
  const std::size_t workers = 2;
  const FamilySchedule schedule =
      BuildFamilySchedule(grid, 0, grid.SetCount(), workers);

  ASSERT_EQ(schedule.worker_cost.size(), workers);
  std::vector<double> recomputed(workers, 0.0);
  std::size_t assigned_cells = 0;
  for (std::size_t i = 0; i < schedule.families.size(); ++i) {
    recomputed[schedule.owner[i]] += schedule.families[i].cost;
    assigned_cells += schedule.families[i].CellCount();
  }
  for (std::size_t w = 0; w < workers; ++w) {
    EXPECT_DOUBLE_EQ(recomputed[w], schedule.worker_cost[w]);
    EXPECT_EQ(schedule.WorkerCells(w),
              [&] {
                std::size_t cells = 0;
                for (std::size_t i = 0; i < schedule.families.size(); ++i) {
                  if (schedule.owner[i] == w) {
                    cells += schedule.families[i].CellCount();
                  }
                }
                return cells;
              }());
  }
  EXPECT_EQ(assigned_cells, grid.CellCount());

  // LPT keeps the heaviest worker under the total — no worker hoards
  // everything when several are available.
  const double total =
      std::accumulate(schedule.worker_cost.begin(), schedule.worker_cost.end(),
                      0.0);
  for (double load : schedule.worker_cost) {
    EXPECT_LT(load, total);
  }
}

TEST(ThreadPoolFamilies, LopsidedOwnershipIsRescuedByStealing) {
  constexpr std::size_t kFamilies = 32;
  constexpr std::size_t kCellsPerFamily = 2;
  std::vector<std::pair<std::size_t, std::size_t>> families;
  for (std::size_t f = 0; f < kFamilies; ++f) {
    families.emplace_back(f * kCellsPerFamily, (f + 1) * kCellsPerFamily);
  }
  // Every family on worker 0: workers 1..3 can only contribute by
  // stealing.
  const std::vector<std::size_t> owner(kFamilies, 0);

  ThreadPool pool(4);
  std::vector<std::atomic<int>> runs(kFamilies * kCellsPerFamily);
  const FamilyStats stats = pool.ParallelForFamilies(
      families, owner, [&](std::size_t /*worker*/, std::size_t cell) {
        runs[cell].fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });

  for (std::size_t cell = 0; cell < runs.size(); ++cell) {
    EXPECT_EQ(runs[cell].load(), 1) << "cell " << cell;
  }
  // With 32 x 1ms families on one owner and three idle thieves, stealing
  // must fire.
  EXPECT_GT(stats.steals, 0u);
  ASSERT_EQ(stats.cells_per_worker.size(), 4u);
  EXPECT_EQ(std::accumulate(stats.cells_per_worker.begin(),
                            stats.cells_per_worker.end(), std::size_t{0}),
            kFamilies * kCellsPerFamily);
}

TEST(ThreadPoolFamilies, ErrorsPropagateFromStolenFamilies) {
  std::vector<std::pair<std::size_t, std::size_t>> families = {{0, 1},
                                                               {1, 2}};
  const std::vector<std::size_t> owner = {0, 0};
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelForFamilies(
                   families, owner,
                   [&](std::size_t, std::size_t cell) {
                     if (cell == 1) {
                       throw util::Error("boom");
                     }
                   }),
               util::Error);
}

void ExpectBitIdentical(const GridResult& a, const GridResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_EQ(a.failed_cells, b.failed_cells);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CellResult& ca = a.cells[i];
    const CellResult& cb = b.cells[i];
    EXPECT_EQ(ca.error, cb.error);
    EXPECT_EQ(ca.hyper_period, cb.hyper_period);
    ASSERT_EQ(ca.outcomes.size(), cb.outcomes.size());
    for (std::size_t m = 0; m < ca.outcomes.size(); ++m) {
      EXPECT_EQ(Bits(ca.outcomes[m].measured_energy),
                Bits(cb.outcomes[m].measured_energy))
          << "cell " << i << " method " << m;
      EXPECT_EQ(Bits(ca.outcomes[m].predicted_energy),
                Bits(cb.outcomes[m].predicted_energy));
      EXPECT_EQ(ca.outcomes[m].deadline_misses, cb.outcomes[m].deadline_misses);
      EXPECT_EQ(ca.outcomes[m].voltage_switches,
                cb.outcomes[m].voltage_switches);
      EXPECT_EQ(ca.outcomes[m].solver_evaluations,
                cb.outcomes[m].solver_evaluations);
    }
  }
}

TEST(AffinityDeterminism, OneVsFourThreadsBitIdentical) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = AffinityGrid(cpu);

  const auto run = [&](int threads) {
    RunOptions options;
    options.threads = threads;
    return RunGrid(grid, options);
  };

  ExpectBitIdentical(run(1), run(4));
}

}  // namespace
}  // namespace dvs::runner
