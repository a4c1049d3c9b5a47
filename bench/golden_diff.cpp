// Compares a paper harness's CSV output with its checked-in golden
// (bench/golden/). The header, the row count and every text cell must
// match exactly, and so must every integer cell. A cell printed with a
// fixed number of decimals must carry the same number of decimals and may
// differ from the golden by at most one unit in that last decimal (0.1 um
// for a wirelength printed as 1067.6): room for a last-digit rounding
// flip under another compiler's floating point, and nothing more.
//
//   golden_diff <golden.csv> <actual.csv>
//
// Exit status 0 when the files agree, 1 on any difference (each one is
// printed), 2 on bad arguments or an unreadable file.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using Rows = std::vector<std::vector<std::string>>;

/// The harnesses write plain cells (CsvWriter quotes none of theirs).
bool read_csv(const std::string& path, Rows& rows) {
  std::ifstream file(path);
  if (!file) return false;
  std::string line;
  while (std::getline(file, line)) {
    std::vector<std::string> cells;
    std::stringstream stream(line);
    std::string cell;
    while (std::getline(stream, cell, ',')) cells.push_back(cell);
    if (!line.empty() && line.back() == ',') cells.emplace_back();
    rows.push_back(std::move(cells));
  }
  return true;
}

/// Number of decimals of a fixed-point cell, 0 for an integer, -1 for text.
int decimals(const std::string& cell) {
  static const std::regex number(R"(-?[0-9]+(\.([0-9]+))?)");
  std::smatch match;
  if (!std::regex_match(cell, match, number)) return -1;
  return static_cast<int>(match[2].length());
}

bool cells_agree(const std::string& golden, const std::string& actual) {
  const int places = decimals(golden);
  if (places <= 0 || decimals(actual) != places) return golden == actual;
  // Cells printed to the same decimals differ by whole units of the last
  // one: 1.5 units admits one unit and rejects two.
  const double unit = std::pow(10.0, -places);
  return std::abs(std::stod(golden) - std::stod(actual)) <= 1.5 * unit;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: golden_diff <golden.csv> <actual.csv>\n");
    return 2;
  }
  Rows golden;
  Rows actual;
  for (const auto& [path, rows] :
       {std::pair<const char*, Rows*>{argv[1], &golden}, {argv[2], &actual}}) {
    if (!read_csv(path, *rows)) {
      std::fprintf(stderr, "golden_diff: cannot read '%s'\n", path);
      return 2;
    }
  }
  int differences = 0;
  if (golden.size() != actual.size()) {
    std::printf("row count: golden %zu, actual %zu\n", golden.size(),
                actual.size());
    ++differences;
  }
  for (std::size_t r = 0; r < std::min(golden.size(), actual.size()); ++r) {
    const auto& g = golden[r];
    const auto& a = actual[r];
    if (g.size() != a.size()) {
      std::printf("line %zu: golden has %zu cells, actual %zu\n", r + 1,
                  g.size(), a.size());
      ++differences;
      continue;
    }
    for (std::size_t c = 0; c < g.size(); ++c) {
      if (!cells_agree(g[c], a[c])) {
        std::printf("line %zu, cell %zu: golden %s, actual %s\n", r + 1,
                    c + 1, g[c].c_str(), a[c].c_str());
        ++differences;
      }
    }
  }
  if (differences > 0) {
    std::printf("%d difference(s) between %s and %s\n", differences, argv[1],
                argv[2]);
    return 1;
  }
  std::printf("%s matches %s\n", argv[2], argv[1]);
  return 0;
}
