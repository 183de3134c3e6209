// The fixed grids behind the checked-in golden CSVs.
//
// tests/data/golden_smoke_grid.csv and tests/data/golden_planning_grid.csv
// are the serial CsvSink output of these two grids.  The golden-bytes
// tests, the shard and telemetry round-trips and tools/shard_grid (whose
// merged shards CI compares against the goldens) all build them from here,
// so no copy can drift from the files.  Changing either grid changes the
// golden bytes: regenerate them with tests/data/regenerate_golden.sh.
#ifndef ACS_RUNNER_GOLDEN_GRIDS_H
#define ACS_RUNNER_GOLDEN_GRIDS_H

#include "model/power_model.h"
#include "model/task.h"
#include "runner/experiment_grid.h"

namespace dvs::runner {

/// Two harmonic tasks scaled to utilisation 0.6 on `dvs` — a fast fixed
/// set matching the default experiment processor.
model::TaskSet TinyFixedSet(const model::DvsModel& dvs);

/// The legacy default-pipeline smoke grid (golden_smoke_grid.csv): two
/// random 2-task draws plus TinyFixedSet, so a 2-shard split lands 1 + 2
/// sets; two sigmas x two workload seeds x {acs, wcs, static-vmax}.
ExperimentGrid GoldenSmokeGrid(const model::DvsModel& dvs);

/// The planning-arm grid (golden_planning_grid.csv): one random 3-task
/// draw plus TinyFixedSet, three scenarios x the three conditioned arms
/// with acs/wcs anchors and test-sized calibration.  Small enough to solve
/// serially in test time, wide enough that any drift in calibration,
/// planning-point threading, planned-solve caching or the mixture
/// objective changes some byte.
ExperimentGrid GoldenPlanningGrid(const model::DvsModel& dvs);

}  // namespace dvs::runner

#endif  // ACS_RUNNER_GOLDEN_GRIDS_H
