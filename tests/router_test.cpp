// Tests of the monotonic router: path structure, the monotonic property
// itself (each horizontal line crossed exactly once, no detours), length
// metrics, package-level aggregation, and every output pinned to a
// recorded run (RoutePin).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "assign/dfa.h"
#include "assign/ifa.h"
#include "geom/segment.h"
#include "assign/random_assigner.h"
#include "package/circuit_generator.h"
#include "route/render.h"
#include "route/router.h"

namespace fp {
namespace {

QuadrantAssignment order_of(std::vector<NetId> nets) {
  QuadrantAssignment a;
  a.order = std::move(nets);
  return a;
}

TEST(Router, PathStructure) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantAssignment a =
      order_of({10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0});
  const QuadrantRoute route = MonotonicRouter().route(q, a);
  ASSERT_EQ(route.nets.size(), 12u);
  for (const RoutedNet& net : route.nets) {
    // finger + one crossing per line above the bump row + via + bump.
    const int bump_row = q.net_row(net.net);
    const std::size_t expected_points =
        1 + static_cast<std::size_t>(q.top_row() - bump_row) + 2;
    EXPECT_EQ(net.path.size(), expected_points) << "net " << net.net;
    // Path starts at the net's finger, ends at its bump.
    EXPECT_EQ(net.path.front(), q.finger_position(net.finger));
    EXPECT_EQ(net.path.back(),
              q.bump_position(bump_row, q.net_col(net.net)));
  }
}

TEST(Router, MonotonicDescent) {
  // y must strictly decrease along every layer-1 path (the monotonic
  // property: each horizontal line crossed exactly once, no detours). The
  // final via -> bump hop lives on layer 2 and steps back up to the bump
  // centre, so it is excluded.
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantRoute route =
      MonotonicRouter().route(q, order_of({10, 1, 2, 3, 11, 6, 9, 4, 5, 8,
                                           7, 0}));
  for (const RoutedNet& net : route.nets) {
    for (std::size_t i = 1; i + 1 < net.path.size(); ++i) {
      EXPECT_LT(net.path[i].y, net.path[i - 1].y) << "net " << net.net;
    }
  }
}

TEST(Router, Layer1PathsNeverCross) {
  // The defining property of monotonic routing: with track spreading, no
  // two layer-1 wires intersect. The final via->bump hop is layer 2 and
  // excluded.
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const PackageAssignment assignment =
        RandomAssigner(seed).assign(package);
    const PackageRoute route = MonotonicRouter().route(package, assignment);
    for (const QuadrantRoute& qr : route.quadrants) {
      std::vector<std::vector<Segment>> wires;
      for (const RoutedNet& net : qr.nets) {
        std::vector<Segment> segments;
        for (std::size_t i = 1; i + 1 < net.path.size(); ++i) {
          segments.push_back(Segment{net.path[i - 1], net.path[i]});
        }
        wires.push_back(std::move(segments));
      }
      for (std::size_t i = 0; i < wires.size(); ++i) {
        for (std::size_t j = i + 1; j < wires.size(); ++j) {
          for (const Segment& s1 : wires[i]) {
            for (const Segment& s2 : wires[j]) {
              EXPECT_FALSE(segments_cross(s1, s2, 1e-9))
                  << "nets " << qr.nets[i].net << " and " << qr.nets[j].net
                  << " cross (seed " << seed << ")";
            }
          }
        }
      }
    }
  }
}

TEST(Router, RoutedAtLeastFlyline) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantRoute route =
      MonotonicRouter().route(q, order_of({10, 11, 1, 2, 6, 3, 4, 9, 5, 7,
                                           8, 0}));
  for (const RoutedNet& net : route.nets) {
    EXPECT_GE(net.routed_length_um, net.flyline_length_um - 1e-9);
    EXPECT_GT(net.flyline_length_um, 0.0);
  }
  EXPECT_GE(route.total_routed_um, route.total_flyline_um - 1e-9);
}

TEST(Router, DensityMatchesDensityMap) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantAssignment a =
      order_of({10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0});
  const QuadrantRoute route = MonotonicRouter().route(q, a);
  const DensityMap d(q, a);
  EXPECT_EQ(route.max_density, d.max_density());
  ASSERT_EQ(static_cast<int>(route.gap_densities.size()), q.row_count());
  for (int r = 0; r < q.row_count(); ++r) {
    EXPECT_EQ(route.gap_densities[static_cast<std::size_t>(r)],
              d.row_densities(r));
  }
}

TEST(Router, PackageAggregation) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  const PackageAssignment assignment = DfaAssigner().assign(package);
  const PackageRoute route = MonotonicRouter().route(package, assignment);
  ASSERT_EQ(route.quadrants.size(), 4u);
  int worst = 0;
  double flyline = 0.0;
  for (const QuadrantRoute& qr : route.quadrants) {
    worst = std::max(worst, qr.max_density);
    flyline += qr.total_flyline_um;
  }
  EXPECT_EQ(route.max_density, worst);
  EXPECT_NEAR(route.total_flyline_um, flyline, 1e-9);
  EXPECT_EQ(route.max_density, max_density(package, assignment));
  EXPECT_NEAR(route.total_flyline_um,
              total_flyline_um(package, assignment), 1e-9);
}

TEST(Router, QuadrantCountMismatchRejected) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  PackageAssignment assignment = DfaAssigner().assign(package);
  assignment.quadrants.pop_back();
  EXPECT_THROW((void)MonotonicRouter().route(package, assignment),
               InvalidArgument);
  EXPECT_THROW((void)max_density(package, assignment), InvalidArgument);
  EXPECT_THROW((void)total_flyline_um(package, assignment), InvalidArgument);
}

TEST(Router, DfaFlylineShorterThanRandom) {
  // The Table-2 wirelength property on every Table-1 circuit.
  for (int circuit = 0; circuit < 5; ++circuit) {
    const Package package =
        CircuitGenerator::generate(CircuitGenerator::table1(circuit));
    const double random_wl =
        total_flyline_um(package, RandomAssigner(11).assign(package));
    const double dfa_wl =
        total_flyline_um(package, DfaAssigner().assign(package));
    EXPECT_LT(dfa_wl, random_wl) << "circuit " << circuit;
  }
}

// ------------------------------------------------------------ pinned routes
//
// MonotonicRouter on Table-1 circuits 1-5 and on two plan_large-geometry
// packages (circuit 5's geometry, 4 rows per quadrant, 2 tiers, scaled to
// 1536 and 6144 fingers), from the DFA and IFA starts, under both
// crossing strategies, with the paper's bottom-left via plan and with one
// shifted plan. The totals are pinned as hex floats; the digest covers
// every net's id, finger, path point and lengths and every gap density,
// so a rewrite of the density map or the router must reproduce every
// output bit for bit.

/// `arg` 0-4: Table-1 circuit; otherwise the plan_large geometry at `arg`
/// fingers.
const Package& pin_package(int arg) {
  static std::map<int, Package> packages;
  auto it = packages.find(arg);
  if (it == packages.end()) {
    CircuitSpec spec = CircuitGenerator::table1(arg < 5 ? arg : 4);
    if (arg >= 5) {
      spec.finger_count = arg;
      spec.rows_per_quadrant = 4;
      spec.tier_count = 2;
    }
    it = packages.emplace(arg, CircuitGenerator::generate(spec)).first;
  }
  return it->second;
}

/// Every row shifts its right half of the bumps onto their right corners,
/// which opens a two-gap window in the middle of each line.
PackageViaPlan shifted_plan(const Package& package) {
  PackageViaPlan plan;
  for (const Quadrant& q : package.quadrants()) {
    QuadrantViaPlan qp;
    for (int r = 0; r < q.row_count(); ++r) {
      const int m = q.bumps_in_row(r);
      qp.rows.push_back(QuadrantViaPlan::suffix_shift(m, m / 2));
    }
    plan.quadrants.push_back(std::move(qp));
  }
  return plan;
}

struct RoutePinRow {
  int package;
  bool dfa;
  bool nearest;
  bool shifted;
  double total_flyline_um;
  double total_routed_um;
  int max_density;
  std::uint64_t digest;
};

void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  h ^= word;
  h *= 1099511628211ULL;
}

std::uint64_t route_digest(const PackageRoute& route) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const QuadrantRoute& qr : route.quadrants) {
    for (const RoutedNet& net : qr.nets) {
      fnv_mix(h, static_cast<std::uint64_t>(net.net));
      fnv_mix(h, static_cast<std::uint64_t>(net.finger));
      for (const Point& p : net.path) {
        fnv_mix(h, std::bit_cast<std::uint64_t>(p.x));
        fnv_mix(h, std::bit_cast<std::uint64_t>(p.y));
      }
      fnv_mix(h, std::bit_cast<std::uint64_t>(net.flyline_length_um));
      fnv_mix(h, std::bit_cast<std::uint64_t>(net.routed_length_um));
    }
    for (const std::vector<int>& row : qr.gap_densities) {
      for (const int density : row) {
        fnv_mix(h, static_cast<std::uint64_t>(density));
      }
    }
    fnv_mix(h, static_cast<std::uint64_t>(qr.max_density));
  }
  return h;
}

// {package, dfa, nearest, shifted, total_flyline_um, total_routed_um,
//  max_density, digest}
constexpr RoutePinRow kRoutePins[] = {
    {0, true, false, false, 0x1.b724d2ab378d4p+9,
     0x1.d4500822cb91fp+9, 5, 0x9d0d8d187ebb8fbdULL},
    {0, true, false, true, 0x1.c916513c21344p+9,
     0x1.f33845988cd26p+9, 9, 0x8a091e7b1c7dc069ULL},
    {0, true, true, false, 0x1.b724d2ab378d4p+9,
     0x1.c978d63a5ef5dp+9, 9, 0xf04e1d5011563a49ULL},
    {0, true, true, true, 0x1.c916513c21344p+9,
     0x1.f2aeb52f0ec58p+9, 9, 0x30d998c3f164b079ULL},
    {0, false, false, false, 0x1.b763e2008903ap+9,
     0x1.d70490929869ap+9, 6, 0xa702692345be8a59ULL},
    {0, false, false, true, 0x1.c9a0913dded46p+9,
     0x1.fb20d769461ccp+9, 12, 0xda94f5d953cb591dULL},
    {0, false, true, false, 0x1.b763e2008903ap+9,
     0x1.ca4a8aca74683p+9, 12, 0x46d6c79288f238f9ULL},
    {0, false, true, true, 0x1.c9a0913dded46p+9,
     0x1.ffe83946287d2p+9, 12, 0x5fc68a5a0537bb85ULL},
    {1, true, false, false, 0x1.01b20dabed652p+10,
     0x1.1590dd1b881aep+10, 4, 0x8480479d81be2aa5ULL},
    {1, true, false, true, 0x1.0e9f379b32febp+10,
     0x1.296a7846d9da3p+10, 8, 0x589f2827c277d7adULL},
    {1, true, true, false, 0x1.01b20dabed652p+10,
     0x1.11813fd74c9b6p+10, 8, 0x165fc9a8659c10e5ULL},
    {1, true, true, true, 0x1.0e9f379b32febp+10,
     0x1.29846a44d9ab9p+10, 8, 0x8d23d46db4f72ccdULL},
    {1, false, false, false, 0x1.0288201ea44dcp+10,
     0x1.1e6076d6d1e9fp+10, 6, 0x03f5c2cd0fd4a275ULL},
    {1, false, false, true, 0x1.0fc2a0f65b9p+10,
     0x1.35ca990945738p+10, 12, 0x2bf22064b0225fadULL},
    {1, false, true, false, 0x1.0288201ea44dcp+10,
     0x1.1845bc48d824fp+10, 12, 0x592db44f59bfe6a5ULL},
    {1, false, true, true, 0x1.0fc2a0f65b9p+10,
     0x1.36d0047674e2ep+10, 12, 0xdf22937e713351b5ULL},
    {2, true, false, false, 0x1.552a00903eda2p+10,
     0x1.7855f148d6a9bp+10, 4, 0x960a79a7656f6b3bULL},
    {2, true, false, true, 0x1.68ddbab1d2226p+10,
     0x1.91e2688118beep+10, 7, 0xe6529835d7b047dbULL},
    {2, true, true, false, 0x1.552a00903eda2p+10,
     0x1.75618d067289dp+10, 7, 0x9baefb76fbdd7c0fULL},
    {2, true, true, true, 0x1.68ddbab1d2226p+10,
     0x1.8f3c4418f4482p+10, 7, 0x553adb2c1c42f47bULL},
    {2, false, false, false, 0x1.554c79c02c849p+10,
     0x1.859449af1b05p+10, 6, 0x076e54cc739ebcafULL},
    {2, false, false, true, 0x1.6904fd68c7043p+10,
     0x1.a0921501a5f5ap+10, 12, 0x9e73e6d947db2973ULL},
    {2, false, true, false, 0x1.554c79c02c849p+10,
     0x1.7f7a9d0c45b8p+10, 12, 0x3a563fde5b3f4433ULL},
    {2, false, true, true, 0x1.6904fd68c7043p+10,
     0x1.9fa040143d40cp+10, 12, 0x2eda17c896e3d887ULL},
    {3, true, false, false, 0x1.c7238eff42c44p+10,
     0x1.e90edd77c08e6p+10, 4, 0xdbad2264e2f62409ULL},
    {3, true, false, true, 0x1.dd6937083757ep+10,
     0x1.070ccdf58704ep+11, 7, 0x4df08df5a9b0f1b5ULL},
    {3, true, true, false, 0x1.c7238eff42c44p+10,
     0x1.e6c55e2621ba9p+10, 7, 0xb05b35c0818824e5ULL},
    {3, true, true, true, 0x1.dd6937083757ep+10,
     0x1.05cf24173ebcbp+11, 7, 0xe407cfb4318dec85ULL},
    {3, false, false, false, 0x1.cc0a7b4d7bep+10,
     0x1.013f915f0d182p+11, 6, 0x1bc9ee0af91fe7b1ULL},
    {3, false, false, true, 0x1.e3419da6f6d55p+10,
     0x1.17ad75ae87b06p+11, 12, 0xd7c557b28c39e9d1ULL},
    {3, false, true, false, 0x1.cc0a7b4d7bep+10,
     0x1.fd617be47a5e9p+10, 12, 0x7c6305a05727de0dULL},
    {3, false, true, true, 0x1.e3419da6f6d55p+10,
     0x1.170399afc549fp+11, 12, 0x4e98ae1ff4922df9ULL},
    {4, true, false, false, 0x1.2f18ab4903674p+11,
     0x1.48d3e319a81f4p+11, 4, 0x90272d11609e2fbdULL},
    {4, true, false, true, 0x1.3f9c6ef323b0ap+11,
     0x1.621ecc9a92992p+11, 7, 0x801bb018e1332b19ULL},
    {4, true, true, false, 0x1.2f18ab4903674p+11,
     0x1.47819913b5066p+11, 7, 0x556f7e7ea09d1869ULL},
    {4, true, true, true, 0x1.3f9c6ef323b0ap+11,
     0x1.60e122bc4a51p+11, 7, 0x78ff448465458fbdULL},
    {4, false, false, false, 0x1.325662c4388d4p+11,
     0x1.5b25c74969735p+11, 6, 0x515bb389f29de1ddULL},
    {4, false, false, true, 0x1.432468ce1e58dp+11,
     0x1.785df003429p+11, 12, 0x079fcffb5dce93b1ULL},
    {4, false, true, false, 0x1.325662c4388d4p+11,
     0x1.585321f59e2abp+11, 12, 0x90b9c64734b7d749ULL},
    {4, false, true, true, 0x1.432468ce1e58dp+11,
     0x1.77b4140480298p+11, 12, 0x71484ac6514ede59ULL},
    {1536, true, false, false, 0x1.d3a721787a137p+13,
     0x1.0249fae4edcafp+14, 4, 0xf7c1e49cd455b98bULL},
    {1536, true, false, true, 0x1.ea8416ab984acp+13,
     0x1.0f836882e91e7p+14, 7, 0xb3e3e593a6b166dbULL},
    {1536, true, true, false, 0x1.d3a721787a137p+13,
     0x1.02186e6efdecep+14, 7, 0x740f89e93ec8fd5fULL},
    {1536, true, true, true, 0x1.ea8416ab984acp+13,
     0x1.0f5bb34720157p+14, 7, 0x97c1cad865fc3387ULL},
    {1536, false, false, false, 0x1.d51563c0fc20bp+13,
     0x1.0becf9fb6d4c2p+14, 6, 0xc3806a8a1340af1fULL},
    {1536, false, false, true, 0x1.ebd910004238cp+13,
     0x1.1999e93280448p+14, 12, 0x5f869e1a402bf2afULL},
    {1536, false, true, false, 0x1.d51563c0fc20bp+13,
     0x1.0b86d4d42603bp+14, 12, 0xac64a2f2f363b2c7ULL},
    {1536, false, true, true, 0x1.ebd910004238cp+13,
     0x1.1984adb2a7f7bp+14, 12, 0x8f0f68cd2bcd64c3ULL},
    {6144, true, false, false, 0x1.8070f5debbc8bp+17,
     0x1.926f624916ffap+17, 4, 0x4652c4793a4e402dULL},
    {6144, true, false, true, 0x1.873a6fb9b5ea6p+17,
     0x1.997b10b938b8cp+17, 7, 0x393c842e30646941ULL},
    {6144, true, true, false, 0x1.8070f5debbc8bp+17,
     0x1.92692285f43fdp+17, 7, 0x52f658b3b01fcf31ULL},
    {6144, true, true, true, 0x1.873a6fb9b5ea6p+17,
     0x1.99761a11bf97ap+17, 7, 0x958fa5fefb29109dULL},
    {6144, false, false, false, 0x1.80876d0e8215p+17,
     0x1.977f02aa71d36p+17, 6, 0xb38aa75d98386b31ULL},
    {6144, false, false, true, 0x1.874f3c55fc444p+17,
     0x1.9e98d3fe464ep+17, 12, 0x5bfc6240bdf3ef65ULL},
    {6144, false, true, false, 0x1.80876d0e8215p+17,
     0x1.9772233edce4p+17, 12, 0x9ea0141e8572b755ULL},
    {6144, false, true, true, 0x1.874f3c55fc444p+17,
     0x1.9e962c8e4b446p+17, 12, 0x5516557cd3042609ULL},
};

TEST(RoutePin, RoutesMatchPinnedRuns) {
  std::size_t checked = 0;
  for (const int package_arg : {0, 1, 2, 3, 4, 1536, 6144}) {
    const Package& package = pin_package(package_arg);
    for (const bool dfa : {true, false}) {
      const PackageAssignment assignment =
          dfa ? DfaAssigner().assign(package) : IfaAssigner().assign(package);
      for (const bool nearest : {false, true}) {
        const MonotonicRouter router(nearest ? CrossingStrategy::Nearest
                                             : CrossingStrategy::Balanced);
        for (const bool shifted : {false, true}) {
          const PackageRoute route =
              shifted ? router.route(package, assignment,
                                     shifted_plan(package))
                      : router.route(package, assignment);
          const std::uint64_t digest = route_digest(route);
          char actual[256];
          std::snprintf(actual, sizeof actual,
                        "{%d, %s, %s, %s, %a, %a, %d, 0x%016llxULL},",
                        package_arg, dfa ? "true" : "false",
                        nearest ? "true" : "false",
                        shifted ? "true" : "false", route.total_flyline_um,
                        route.total_routed_um, route.max_density,
                        static_cast<unsigned long long>(digest));
          const RoutePinRow* pin = nullptr;
          for (const RoutePinRow& row : kRoutePins) {
            if (row.package == package_arg && row.dfa == dfa &&
                row.nearest == nearest && row.shifted == shifted) {
              pin = &row;
            }
          }
          ASSERT_NE(pin, nullptr) << "no pin for " << actual;
          SCOPED_TRACE(std::string("actual ") + actual);
          EXPECT_EQ(route.total_flyline_um, pin->total_flyline_um);
          EXPECT_EQ(route.total_routed_um, pin->total_routed_um);
          EXPECT_EQ(route.max_density, pin->max_density);
          EXPECT_EQ(digest, pin->digest);
          if (!shifted) {
            EXPECT_EQ(max_density(package, assignment,
                                  nearest ? CrossingStrategy::Nearest
                                          : CrossingStrategy::Balanced),
                      pin->max_density);
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kRoutePins));
}

TEST(Render, ProducesWellFormedSvg) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantAssignment a = DfaAssigner().assign(q);
  const QuadrantRoute route = MonotonicRouter().route(q, a);
  const std::string svg = render_quadrant_route(q, route, "fig5 DFA");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("polyline"), std::string::npos);
  EXPECT_NE(svg.find("fig5 DFA"), std::string::npos);
  // One polyline per net.
  std::size_t count = 0;
  for (std::size_t pos = svg.find("<polyline"); pos != std::string::npos;
       pos = svg.find("<polyline", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 12u);
}

TEST(Render, SaveWritesFile) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantRoute route =
      MonotonicRouter().route(q, DfaAssigner().assign(q));
  const std::string path = ::testing::TempDir() + "/fig5.svg";
  save_quadrant_route_svg(q, route, "t", path);
  std::ifstream file(path);
  EXPECT_TRUE(file.good());
}

TEST(Render, SaveToBadPathThrows) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantRoute route =
      MonotonicRouter().route(q, DfaAssigner().assign(q));
  EXPECT_THROW(
      save_quadrant_route_svg(q, route, "t", "/nonexistent/dir/f.svg"),
      IoError);
}

}  // namespace
}  // namespace fp
