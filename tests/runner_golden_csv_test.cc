// Golden-file regression: serial smoke grids streamed through CsvSink must
// byte-match the files under tests/data/.  The workspace bit-equality tests
// catch FP-order drift *within* one binary; this file catches it *across*
// commits — any change to the pipeline's arithmetic, seeding, CSV schema or
// formatting shows up as a byte diff here.  Two goldens:
//
//   golden_smoke_grid.csv     the legacy default-pipeline grid, generated
//                             by the pre-scenario tree — byte-identity here
//                             proves the planning subsystem left the old
//                             arms untouched;
//   golden_planning_grid.csv  the planning-arm grid (scenario column +
//                             acs-scenario / acs-quantile / acs-mixture
//                             rows) — byte-identity pins the calibration,
//                             planning-point threading and planned-solve
//                             caching end to end.
//
// Both grids are defined once, in runner/golden_grids.h.  Regenerate
// deliberately with tests/data/regenerate_golden.sh (sets
// ACS_REGENERATE_GOLDEN so each test overwrites its golden instead of
// comparing) only when an output change is intended and documented.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "runner/csv_sink.h"
#include "runner/experiment_grid.h"
#include "runner/golden_grids.h"
#include "runner/run_grid.h"
#include "util/simd.h"
#include "workload/presets.h"

namespace dvs::runner {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Scratch path for the freshly produced CSV, unique per process: test
/// runs from different build trees (e.g. the ASan job next to a plain
/// one) may execute concurrently, and a shared /tmp name would race.
std::string FreshPath(const std::string& stem) {
  return ::testing::TempDir() + stem + "." +
         std::to_string(static_cast<long long>(::getpid())) + ".csv";
}

/// When ACS_REGENERATE_GOLDEN is set, copies `fresh_path` over the golden
/// and returns true (the caller skips the comparison).  The deliberate
/// regeneration lane of tests/data/regenerate_golden.sh.
bool MaybeRegenerate(const std::string& fresh_path,
                     const std::string& golden_path) {
  if (std::getenv("ACS_REGENERATE_GOLDEN") == nullptr) {
    return false;
  }
  std::ofstream out(golden_path, std::ios::binary);
  out << ReadFile(fresh_path);
  EXPECT_TRUE(out.good()) << "cannot write " << golden_path;
  std::cout << "regenerated " << golden_path << "\n";
  return true;
}

TEST(GoldenCsv, SerialSmokeGridByteMatchesCheckedInFile) {
  // The goldens' bytes are defined at the scalar dispatch level: the
  // scalar kernels replicate the historical loops op for op, while the
  // vector levels fold reductions in a different FP association
  // (util/simd.h).  Pinning here keeps the byte contract meaningful on
  // any hardware; the scalar-vs-vector agreement contract is pinned
  // separately by util_simd_test.
  const util::simd::ScopedLevel scalar(util::simd::Level::kScalar);
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = GoldenSmokeGrid(cpu);

  const std::string fresh_path = FreshPath("golden_smoke_grid_fresh");
  {
    CsvSink sink(fresh_path);
    RunOptions options;
    options.threads = 1;  // serial: rows stream in cell order
    options.sink = &sink;
    const GridResult result = RunGrid(grid, options);
    ASSERT_EQ(result.failed_cells, 0u);
    ASSERT_EQ(sink.rows(), grid.CellCount() * grid.methods.size());
  }

  const std::string golden_path =
      std::string(ACS_TEST_DATA_DIR) + "/golden_smoke_grid.csv";
  if (MaybeRegenerate(fresh_path, golden_path)) {
    std::remove(fresh_path.c_str());
    GTEST_SKIP() << "golden regenerated, comparison skipped";
  }
  const std::string golden = ReadFile(golden_path);
  const std::string fresh = ReadFile(fresh_path);
  ASSERT_FALSE(golden.empty());
  // Byte equality, not row-set equality: FP formatting, column order and
  // row order are all part of the contract.
  EXPECT_EQ(fresh, golden)
      << "default-pipeline output drifted from the pre-scenario tree; if "
         "intended, regenerate tests/data/golden_smoke_grid.csv (see "
         "tests/data/regenerate_golden.sh)";
  std::remove(fresh_path.c_str());
}

TEST(GoldenCsv, SerialPlanningGridByteMatchesCheckedInFile) {
  // Scalar pin, same rationale as the legacy golden above.
  const util::simd::ScopedLevel scalar(util::simd::Level::kScalar);
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = GoldenPlanningGrid(cpu);

  const std::string fresh_path = FreshPath("golden_planning_grid_fresh");
  {
    CsvSink sink(fresh_path, /*scenario_column=*/true);
    RunOptions options;
    options.threads = 1;  // serial: rows stream in cell order
    options.sink = &sink;
    const GridResult result = RunGrid(grid, options);
    ASSERT_EQ(result.failed_cells, 0u);
    ASSERT_EQ(sink.rows(), grid.CellCount() * grid.methods.size());
  }

  const std::string golden_path =
      std::string(ACS_TEST_DATA_DIR) + "/golden_planning_grid.csv";
  if (MaybeRegenerate(fresh_path, golden_path)) {
    std::remove(fresh_path.c_str());
    GTEST_SKIP() << "golden regenerated, comparison skipped";
  }
  const std::string golden = ReadFile(golden_path);
  const std::string fresh = ReadFile(fresh_path);
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(fresh, golden)
      << "planning-arm output drifted; if intended, regenerate "
         "tests/data/golden_planning_grid.csv with "
         "tests/data/regenerate_golden.sh";
  std::remove(fresh_path.c_str());
}

}  // namespace
}  // namespace dvs::runner
