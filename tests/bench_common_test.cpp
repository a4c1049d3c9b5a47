// Tests of the bench harnesses' output-path rules: generated artefacts go
// under the --out directory, while a path the user names explicitly
// (`--json <path>`, or any absolute path) is written exactly where asked.
#include <gtest/gtest.h>

#include <filesystem>

#include "bench_common.h"

namespace fp {
namespace {

TEST(BenchOutputPaths, ExplicitAndAbsolutePathsWin) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "fpkit_bench_common_test";
  bench::set_artefact_dir(dir.string());
  EXPECT_EQ(bench::artefact_path("table2.csv"), dir.string() + "/table2.csv");
  const std::string absolute = (dir / "abs" / "doc.json").string();
  EXPECT_EQ(bench::artefact_path(absolute), absolute);

  EXPECT_EQ(bench::json_output_path("BENCH_parallel.json"),
            "BENCH_parallel.json");
  EXPECT_EQ(bench::json_output_path("sub/x.json"), "sub/x.json");
  EXPECT_EQ(bench::json_output_path(absolute), absolute);
  EXPECT_EQ(bench::json_output_path(""),
            dir.string() + "/BENCH_parallel.json");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fp
