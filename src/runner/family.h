// Cache-affinity cell scheduling: family construction + LPT assignment.
//
// The per-worker core::EvalWorkspace caches per-*task-set* state — the FPS
// expansion, the WCS/ACS/Vmax-ASAP solves, the planned-solve and
// calibration caches — keyed by the grid's SetIndex.  Handing cells out
// one at a time would scatter a set's sibling cells across workers, so each
// worker would re-solve what a sibling's worker already holds.  A *family*
// is the contiguous run of cell indices owned by one SetIndex; scheduling
// whole families onto workers keeps every set's solves on exactly one
// worker's cache (modulo stealing), which is where the solve-cache hit-rate
// gain at 4+ threads comes from.
//
// Assignment is longest-processing-time (LPT) over a per-family cost model
// whose weights were calibrated from the phase-trace telemetry of grid
// runs (the solve/cell wall-time histograms): NLP solve cost grows
// super-linearly with the task count while simulation scales with
// hyper-periods x cells.  The model only has to rank families — imbalance
// is mopped up at runtime by family-granular work stealing
// (ThreadPool::ParallelForFamilies).
//
// Determinism: LPT decides only WHICH worker owns a family; every worker's
// queue keeps its families in ascending id order and cells run in
// ascending order inside a family, so a 1-thread run visits cells in
// exactly the serial order — the golden-bytes guarantee — and any thread
// count produces bit-identical cell results (cells are pure functions of
// (grid, cell_index); see runner/run_grid.h).
#ifndef ACS_RUNNER_FAMILY_H
#define ACS_RUNNER_FAMILY_H

#include <cstddef>
#include <vector>

#include "runner/experiment_grid.h"

namespace dvs::runner {

/// One family: the contiguous cell-index run of one task-set draw.
struct CellFamily {
  std::size_t id = 0;         // dense, ascending with begin
  std::size_t set_index = 0;  // the owning SetIndex
  std::size_t begin = 0;      // first cell index
  std::size_t end = 0;        // one past the last cell index
  double cost = 0.0;          // modelled cost (see FamilyCost)

  std::size_t CellCount() const { return end - begin; }
};

/// A complete assignment of families to workers.
struct FamilySchedule {
  std::vector<CellFamily> families;  // ascending by begin
  std::vector<std::size_t> owner;    // families[i] runs on owner[i]
  std::vector<double> worker_cost;   // modelled load per worker

  std::size_t TotalCells() const;
  /// Cells assigned to `worker` (before stealing).
  std::size_t WorkerCells(std::size_t worker) const;
};

/// Modelled evaluation cost of one family of `grid` (`set_index` selects
/// the source/replicate/util draw; the per-cell inner axes are implied by
/// the grid shape).
double FamilyCost(const ExperimentGrid& grid, std::size_t set_index);

/// Builds the family schedule of the shard window [set_begin, set_end):
/// one family per in-window SetIndex, costed with FamilyCost and
/// LPT-assigned to `workers` workers (largest cost first, least-loaded
/// worker, deterministic tie-breaks: equal costs order by family id,
/// equal loads pick the lowest worker).  `workers` must be >= 1.
FamilySchedule BuildFamilySchedule(const ExperimentGrid& grid,
                                   std::size_t set_begin,
                                   std::size_t set_end, std::size_t workers);

}  // namespace dvs::runner

#endif  // ACS_RUNNER_FAMILY_H
