#include "power/solver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/faultpoint.h"

namespace fp {
namespace {

// Deterministic parallel grains (exec/exec.h): chunk boundaries depend
// only on these constants and the problem size, never on the thread
// count, so reductions are bit-identical at any --threads value. The
// reduce grain also keeps every mesh up to 64x64 on a single chunk,
// where the canonical chunked sum degenerates to the classic streaming
// sum.
constexpr std::size_t kReduceGrain = 4096;
constexpr std::size_t kSweepGrain = 2048;

/// Residual blow-up test shared by every backend: NaN/Inf, or a residual
/// that grew three orders of magnitude past the best seen while clearly
/// above O(1). Healthy SPD sweeps decrease monotonically, so this never
/// fires on a well-posed mesh.
bool is_diverging(double rel, double best_rel) {
  if (!std::isfinite(rel)) return true;
  return rel > 10.0 && rel > 1e3 * best_rel;
}

/// One k x k mesh on the structured halo layout every backend shares:
/// node (x, y) lives at cell (y + 1) * w + (x + 1) of a (k + 2)^2 array,
/// so the one-cell halo ring stands for the Neumann die edge. The halo
/// and (in the pad-eliminated CG/SOR vectors) the pad cells hold exact
/// +0.0, which makes the 5-point stencil branch- and gather-free: a
/// neighbour the free-node system would skip contributes g * (+0.0), and
/// subtracting +0.0 -- or adding it to a non-zero sum -- leaves the
/// result bit-for-bit unchanged.
struct Mesh {
  Mesh(int k_in, double gx_in, double gy_in,
       const std::function<bool(int, int)>& is_pad)
      : k(k_in),
        w(static_cast<std::size_t>(k_in) + 2),
        gx(gx_in),
        gy(gy_in),
        diag(w * w, 1.0),
        free(w * w, 0.0) {
    for_each_node([&](int x, int y, std::size_t c) {
      // In-mesh link conductances in the stencil's left, right, down, up
      // order (a Neumann edge drops its link).
      double d = 0.0;
      if (x > 0) d += gx;
      if (x + 1 < k) d += gx;
      if (y > 0) d += gy;
      if (y + 1 < k) d += gy;
      diag[c] = d;
      free[c] = is_pad(x, y) ? 0.0 : 1.0;
    });
  }

  /// Calls f(x, y, cell) for every mesh node, row-major.
  template <typename F>
  void for_each_node(const F& f) const {
    for (int y = 0; y < k; ++y) {
      for (int x = 0; x < k; ++x) f(x, y, at(x, y));
    }
  }

  [[nodiscard]] std::size_t at(int x, int y) const {
    return (static_cast<std::size_t>(y) + 1) * w +
           static_cast<std::size_t>(x) + 1;
  }
  [[nodiscard]] std::size_t cells() const { return w * w; }
  [[nodiscard]] bool is_pad(std::size_t c) const { return free[c] == 0.0; }

  /// The k x k field of cell vector v, with `pad_value` on the pads.
  [[nodiscard]] Grid2D<double> field(const std::vector<double>& v,
                                     double pad_value) const {
    const auto n = static_cast<std::size_t>(k);
    Grid2D<double> out(n, n, pad_value);
    std::size_t node = 0;
    for_each_node([&](int, int, std::size_t c) {
      if (!is_pad(c)) out.data()[node] = v[c];
      ++node;
    });
    return out;
  }

  /// (A v)_c of the pad-eliminated system (pad and halo cells of v hold
  /// +0.0).
  [[nodiscard]] double apply(const double* v, std::size_t c) const {
    double acc = diag[c] * v[c];
    acc -= gx * v[c - 1];
    acc -= gx * v[c + 1];
    acc -= gy * v[c - w];
    acc -= gy * v[c + w];
    return acc;
  }

  /// `acc` plus the four link currents into cell c, left, right, down, up.
  [[nodiscard]] double gather(double acc, const double* v,
                              std::size_t c) const {
    acc += gx * v[c - 1];
    acc += gx * v[c + 1];
    acc += gy * v[c - w];
    acc += gy * v[c + w];
    return acc;
  }

  /// Canonical reduce chunks in cell indices: the free-node (or, with
  /// `free_only` off, the node) partition of exec::partition(count,
  /// kReduceGrain), each chunk widened to the pad and halo cells up to
  /// the next chunk's first node. Together they tile the interior rows
  /// [w, cells() - w), and the extra cells only add +0.0 terms.
  [[nodiscard]] std::vector<exec::ChunkRange> reduce_chunks(
      bool free_only) const {
    std::vector<exec::ChunkRange> chunks;
    std::size_t counted = 0;
    std::size_t begin = w;
    for_each_node([&](int, int, std::size_t c) {
      if (free_only && is_pad(c)) return;
      if (counted > 0 && counted % kReduceGrain == 0) {
        chunks.push_back({begin, c});
        begin = c;
      }
      ++counted;
    });
    if (counted > 0) chunks.push_back({begin, cells() - w});
    return chunks;
  }

  /// One red-black sweep: update(c) on every free cell, red ((x + y)
  /// even) cells first. A node only neighbours the other colour, so each
  /// half-sweep is order-free and runs row-parallel with the same update
  /// sequence at any thread count.
  template <typename Update>
  void red_black(const Update& update) const {
    for (int colour = 0; colour < 2; ++colour) {
      exec::parallel_for(
          static_cast<std::size_t>(k), row_grain(),
          [&](std::size_t row_begin, std::size_t row_end) {
            for (std::size_t row = row_begin; row < row_end; ++row) {
              const int y = static_cast<int>(row);
              for (int x = (y + colour) & 1; x < k; x += 2) {
                const std::size_t c = at(x, y);
                if (!is_pad(c)) update(c);
              }
            }
          });
    }
  }

  /// Rows per chunk of the row-parallel loops; depends only on k.
  [[nodiscard]] std::size_t row_grain() const {
    return std::max<std::size_t>(1, kSweepGrain / static_cast<std::size_t>(k));
  }

  int k = 0;
  std::size_t w = 0;  // row stride, k + 2
  double gx = 0.0;
  double gy = 0.0;
  std::vector<double> diag;  // in-mesh link conductance sum; 1.0 on the halo
  std::vector<double> free;  // 1.0 on free nodes, +0.0 on pads and the halo
};

double sum_of_squares(const std::vector<exec::ChunkRange>& chunks,
                      const std::vector<double>& v) {
  return exec::parallel_sum(chunks, [&](std::size_t begin, std::size_t end) {
    double acc = 0.0;
    for (std::size_t c = begin; c < end; ++c) acc += v[c] * v[c];
    return acc;
  });
}

/// Sets converged/stop from the final residual and the loop's exit cause.
void settle(SolveResult& result, std::optional<SolveStop> special,
            double tolerance) {
  result.converged = std::isfinite(result.relative_residual) &&
                     result.relative_residual <= tolerance;
  if (special == SolveStop::Diverged) {
    result.converged = false;
    result.stop = SolveStop::Diverged;
  } else if (result.converged) {
    result.stop = SolveStop::Converged;
  } else {
    result.stop = special.value_or(SolveStop::IterationLimit);
  }
}

/// The pad-eliminated system A v = b over the free nodes, which CG and
/// SOR iterate: pads are folded into b and hold +0.0 in every vector.
struct PadSystem {
  Mesh mesh;
  std::vector<double> b;  // +0.0 on pads and the halo
  std::vector<exec::ChunkRange> chunks;  // canonical free-node chunks
  std::size_t free_count = 0;
  double b_norm = 0.0;
  double vdd = 0.0;
};

PadSystem build_system(const PowerGrid& grid) {
  const int k = grid.k();
  PadSystem sys{Mesh(k, grid.gx(), grid.gy(),
                     [&](int x, int y) { return grid.is_pad(x, y); }),
                {}, {}, 0, 0.0, grid.spec().vdd};
  sys.b.assign(sys.mesh.cells(), 0.0);
  sys.mesh.for_each_node([&](int x, int y, std::size_t c) {
    if (sys.mesh.is_pad(c)) return;
    ++sys.free_count;
    double b = -grid.node_current(x, y);
    const auto pad_link = [&](int nx, int ny, double g) {
      if (nx < 0 || nx >= k || ny < 0 || ny >= k) return;
      if (grid.is_pad(nx, ny)) b += g * sys.vdd;
    };
    pad_link(x - 1, y, grid.gx());
    pad_link(x + 1, y, grid.gx());
    pad_link(x, y - 1, grid.gy());
    pad_link(x, y + 1, grid.gy());
    sys.b[c] = b;
  });
  sys.chunks = sys.mesh.reduce_chunks(true);
  sys.b_norm = std::sqrt(sum_of_squares(sys.chunks, sys.b));
  return sys;
}

/// Initial iterate: the warm-start field at the free nodes when
/// SolverOptions::warm_start is set, else the flat-`vdd` cold start;
/// `pad_value` on the pads.
std::vector<double> initial_iterate(const Mesh& mesh,
                                    const SolverOptions& options, double vdd,
                                    double pad_value) {
  std::vector<double> v(mesh.cells(), 0.0);
  mesh.for_each_node([&](int x, int y, std::size_t c) {
    if (mesh.is_pad(c)) {
      v[c] = pad_value;
    } else if (options.warm_start != nullptr) {
      v[c] = (*options.warm_start)(static_cast<std::size_t>(x),
                                   static_cast<std::size_t>(y));
    } else {
      v[c] = vdd;
    }
  });
  return v;
}

double relative_residual(const PadSystem& sys, const std::vector<double>& x) {
  const Mesh& mesh = sys.mesh;
  const double rr = exec::parallel_sum(sys.chunks, [&](std::size_t begin,
                                                       std::size_t end) {
    double acc = 0.0;
    for (std::size_t c = begin; c < end; ++c) {
      const double r = sys.b[c] - mesh.free[c] * mesh.apply(x.data(), c);
      acc += r * r;
    }
    return acc;
  });
  return sys.b_norm > 0.0 ? std::sqrt(rr) / sys.b_norm : std::sqrt(rr);
}

/// Voltage field (pads at Vdd) and true residual of iterate x.
SolveResult finish(const PadSystem& sys, const std::vector<double>& x,
                   int iterations, std::optional<SolveStop> special,
                   double tolerance) {
  SolveResult result;
  result.voltage = sys.mesh.field(x, sys.vdd);
  result.iterations = iterations;
  result.relative_residual = relative_residual(sys, x);
  settle(result, special, tolerance);
  return result;
}

/// Red-black SOR on the pad-eliminated system.
SolveResult solve_sor(const PadSystem& sys, const SolverOptions& options) {
  const double omega = options.sor_omega;
  require(omega > 0.0 && omega < 2.0,
          "solve: SOR omega must lie in (0, 2) for convergence");
  const Mesh& mesh = sys.mesh;
  std::vector<double> x = initial_iterate(mesh, options, sys.vdd, 0.0);

  std::optional<SolveStop> special;
  double best_rel = std::numeric_limits<double>::infinity();
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    if (fault::enabled() && fault::triggered("solver.step")) {
      special = SolveStop::Diverged;  // simulated numeric blow-up
      break;
    }
    mesh.red_black([&](std::size_t c) {
      x[c] = (1.0 - omega) * x[c] +
             omega * (mesh.gather(sys.b[c], x.data(), c) / mesh.diag[c]);
    });
    // Convergence is checked on the true residual every few sweeps to keep
    // the check from dominating the sweep cost.
    if (iter % 8 == 7) {
      const double rel = relative_residual(sys, x);
      if (obs::tracing_enabled()) {
        obs::counter("solver.residual", {{"relative_residual", rel}});
      }
      if (obs::progress_enabled()) {
        obs::progress_tick("solver", iter + 1, options.max_iterations);
      }
      if (is_diverging(rel, best_rel)) {
        special = SolveStop::Diverged;
        ++iter;
        break;
      }
      best_rel = std::min(best_rel, rel);
      if (rel <= options.tolerance) {
        ++iter;
        break;
      }
      if (options.cancel && options.cancel->expired()) {
        special = SolveStop::Budget;
        ++iter;
        break;
      }
    }
  }
  return finish(sys, x, iter, special, options.tolerance);
}

/// Jacobi-preconditioned CG in three fused passes per iteration:
/// (1) ap = A p with p.ap; (2) the x/r/z update with r.z and r.r;
/// (3) the p update. Each reduction sums the canonical free-node chunks
/// in chunk order (exec::parallel_sum), term for term what a sum over
/// the compact free-node vectors computes, so results are bit-identical
/// at every thread count.
SolveResult solve_cg(const PadSystem& sys, const SolverOptions& options) {
  const Mesh& mesh = sys.mesh;
  const std::size_t n = mesh.cells();
  std::vector<double> x = initial_iterate(mesh, options, sys.vdd, 0.0);
  std::vector<double> r(n, 0.0);
  std::vector<double> z(n, 0.0);
  std::vector<double> p(n, 0.0);
  std::vector<double> ap(n, 0.0);
  const double* const b = sys.b.data();
  const double* const diag = mesh.diag.data();
  const double* const free = mesh.free.data();
  double* const xv = x.data();
  double* const rv = r.data();
  double* const zv = z.data();
  double* const pv = p.data();
  double* const apv = ap.data();

  // r = b - A x, z = M^-1 r (Jacobi), p = z, with r.z and r.r.
  auto [rz, rr] = exec::parallel_sum2(sys.chunks, [&](std::size_t begin,
                                                      std::size_t end) {
    std::array<double, 2> acc{0.0, 0.0};  // r.z, r.r
    for (std::size_t c = begin; c < end; ++c) {
      rv[c] = b[c] - free[c] * mesh.apply(xv, c);
      zv[c] = rv[c] / diag[c];
      pv[c] = zv[c];
      acc[0] += rv[c] * zv[c];
      acc[1] += rv[c] * rv[c];
    }
    return acc;
  });

  const double b_norm = sys.b_norm > 0.0 ? sys.b_norm : 1.0;
  std::optional<SolveStop> special;
  double best_rel = std::numeric_limits<double>::infinity();
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    const double rel = std::sqrt(rr) / b_norm;
    if (obs::tracing_enabled()) {
      obs::counter("solver.residual", {{"relative_residual", rel}});
    }
    if (obs::progress_enabled() && (iter & 15) == 0) {
      obs::progress_tick("solver", iter, options.max_iterations);
    }
    if (fault::enabled() && fault::triggered("solver.step")) {
      special = SolveStop::Diverged;  // simulated numeric blow-up
      break;
    }
    if (is_diverging(rel, best_rel)) {
      special = SolveStop::Diverged;
      break;
    }
    best_rel = std::min(best_rel, rel);
    if (rel <= options.tolerance) break;
    if (options.cancel && (iter & 15) == 0 && options.cancel->expired()) {
      special = SolveStop::Budget;
      break;
    }

    const double p_ap = exec::parallel_sum(sys.chunks, [&](std::size_t begin,
                                                           std::size_t end) {
      double acc = 0.0;
      for (std::size_t c = begin; c < end; ++c) {
        apv[c] = free[c] * mesh.apply(pv, c);
        acc += pv[c] * apv[c];
      }
      return acc;
    });
    if (!(p_ap > 0.0) || !std::isfinite(p_ap)) {
      // Lost positive definiteness (ill-conditioned or corrupt mesh):
      // divergence, so the fallback chain can rescue the solve.
      special = SolveStop::Diverged;
      break;
    }
    const double alpha = rz / p_ap;
    const std::array<double, 2> sums = exec::parallel_sum2(
        sys.chunks, [&](std::size_t begin, std::size_t end) {
          std::array<double, 2> acc{0.0, 0.0};  // r.z, r.r
          for (std::size_t c = begin; c < end; ++c) {
            xv[c] += alpha * pv[c];
            rv[c] -= alpha * apv[c];
            zv[c] = rv[c] / diag[c];
            acc[0] += rv[c] * zv[c];
            acc[1] += rv[c] * rv[c];
          }
          return acc;
        });
    const double rz_next = sums[0];
    rr = sums[1];
    const double beta = rz_next / rz;
    rz = rz_next;
    exec::parallel_for(sys.chunks, [&](std::size_t,
                                       const exec::ChunkRange& range) {
      for (std::size_t c = range.begin; c < range.end; ++c) {
        pv[c] = zv[c] + beta * pv[c];
      }
    });
  }
  return finish(sys, x, iter, special, options.tolerance);
}

// ---------------------------------------------------------------------
// Geometric multigrid: V-cycles on the pinned-pad formulation. Level 0
// carries the solution (pads at Vdd); coarser levels carry error
// equations (pads at 0). The 5-point sheet-conductance stencil is
// h-independent in 2-D, so every level reuses the same link conductances.
// ---------------------------------------------------------------------
struct MgLevel {
  explicit MgLevel(Mesh m)
      : mesh(std::move(m)),
        x(mesh.cells(), 0.0),
        b(mesh.cells(), 0.0),
        r(mesh.cells(), 0.0) {}

  Mesh mesh;
  std::vector<double> x, b, r;
};

class MultigridSolver {
 public:
  MultigridSolver(const Mesh& fine_mesh, const PowerGrid& grid,
                  const SolverOptions& options)
      : options_(options),
        vdd_(grid.spec().vdd),
        chunks_(fine_mesh.reduce_chunks(false)) {
    MgLevel fine(fine_mesh);
    // Pads stay pinned at Vdd; only free cells take the warm field.
    fine.x = initial_iterate(fine_mesh, options, vdd_, vdd_);
    fine_mesh.for_each_node([&](int x, int y, std::size_t c) {
      fine.b[c] = -grid.node_current(x, y);
    });
    levels_.push_back(std::move(fine));
    while (levels_.back().mesh.k > 7) {
      const Mesh& parent = levels_.back().mesh;
      // A coarse node is Dirichlet when any fine node of its 2x2 block is:
      // this keeps every level non-singular (a pure-Neumann coarse system
      // would make Gauss-Seidel drift off the inconsistent residual).
      Mesh coarse((parent.k + 1) / 2, parent.gx, parent.gy,
                  [&](int x, int y) {
                    bool pad = false;
                    for (int dy = 0; dy <= 1; ++dy) {
                      for (int dx = 0; dx <= 1; ++dx) {
                        pad |= parent.is_pad(
                            parent.at(std::min(2 * x + dx, parent.k - 1),
                                      std::min(2 * y + dy, parent.k - 1)));
                      }
                    }
                    return pad;
                  });
      levels_.emplace_back(std::move(coarse));
    }
  }

  SolveResult run() {
    MgLevel& fine = levels_.front();
    const double b_norm = std::sqrt(sum_of_squares(chunks_, fine.b));
    std::optional<SolveStop> special;
    double best_rel = std::numeric_limits<double>::infinity();
    int cycles = 0;
    double rel = 1.0;
    for (; cycles < options_.max_iterations; ++cycles) {
      if (fault::enabled() && fault::triggered("solver.step")) {
        special = SolveStop::Diverged;  // simulated numeric blow-up
        break;
      }
      v_cycle(0);
      residual(fine);
      const double r_norm = std::sqrt(sum_of_squares(chunks_, fine.r));
      rel = b_norm > 0.0 ? r_norm / b_norm : r_norm;
      if (obs::tracing_enabled()) {
        obs::counter("solver.residual", {{"relative_residual", rel}});
      }
      if (obs::progress_enabled()) {
        obs::progress_tick("solver", cycles + 1, options_.max_iterations);
      }
      if (is_diverging(rel, best_rel)) {
        special = SolveStop::Diverged;
        ++cycles;
        break;
      }
      best_rel = std::min(best_rel, rel);
      if (rel <= options_.tolerance) {
        ++cycles;
        break;
      }
      if (options_.cancel && options_.cancel->expired()) {
        special = SolveStop::Budget;
        ++cycles;
        break;
      }
    }
    SolveResult result;
    result.voltage = fine.mesh.field(fine.x, vdd_);
    result.iterations = cycles;
    result.relative_residual = rel;
    settle(result, special, options_.tolerance);
    return result;
  }

 private:
  static void smooth(MgLevel& level, int sweeps) {
    const Mesh& mesh = level.mesh;
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      mesh.red_black([&](std::size_t c) {
        level.x[c] = mesh.gather(level.b[c], level.x.data(), c) / mesh.diag[c];
      });
    }
  }

  static void residual(MgLevel& level) {
    const Mesh& mesh = level.mesh;
    exec::parallel_for(
        static_cast<std::size_t>(mesh.k), mesh.row_grain(),
        [&](std::size_t row_begin, std::size_t row_end) {
          for (std::size_t row = row_begin; row < row_end; ++row) {
            for (int x = 0; x < mesh.k; ++x) {
              const std::size_t c = mesh.at(x, static_cast<int>(row));
              level.r[c] =
                  mesh.is_pad(c)
                      ? 0.0
                      : level.b[c] -
                            (mesh.diag[c] * level.x[c] -
                             mesh.gather(0.0, level.x.data(), c));
            }
          }
        });
  }

  void v_cycle(std::size_t depth) {
    MgLevel& level = levels_[depth];
    if (depth + 1 == levels_.size()) {
      smooth(level, 60);  // coarsest: relax to near-exact
      return;
    }
    smooth(level, 2);
    residual(level);

    // Full-weighting restriction of the residual into the coarse RHS.
    const Mesh& fine = level.mesh;
    MgLevel& coarse = levels_[depth + 1];
    std::fill(coarse.x.begin(), coarse.x.end(), 0.0);
    coarse.mesh.for_each_node([&](int x, int y, std::size_t cc) {
      const int fx = std::min(2 * x, fine.k - 1);
      const int fy = std::min(2 * y, fine.k - 1);
      double sum = 0.0;
      double weight = 0.0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = fx + dx;
          const int ny = fy + dy;
          if (nx < 0 || nx >= fine.k || ny < 0 || ny >= fine.k) continue;
          const double w = (dx == 0 ? 2.0 : 1.0) * (dy == 0 ? 2.0 : 1.0);
          sum += w * level.r[fine.at(nx, ny)];
          weight += w;
        }
      }
      coarse.b[cc] = 4.0 * sum / weight;
    });

    v_cycle(depth + 1);

    // Bilinear prolongation of the coarse correction.
    const int kc = coarse.mesh.k;
    fine.for_each_node([&](int x, int y, std::size_t c) {
      if (fine.is_pad(c)) return;
      const double cx =
          std::min(static_cast<double>(x) / 2.0, static_cast<double>(kc - 1));
      const double cy =
          std::min(static_cast<double>(y) / 2.0, static_cast<double>(kc - 1));
      const int x0 = static_cast<int>(cx);
      const int y0 = static_cast<int>(cy);
      const int x1 = std::min(x0 + 1, kc - 1);
      const int y1 = std::min(y0 + 1, kc - 1);
      const double tx = cx - x0;
      const double ty = cy - y0;
      const double correction =
          (1.0 - tx) * (1.0 - ty) * coarse.x[coarse.mesh.at(x0, y0)] +
          tx * (1.0 - ty) * coarse.x[coarse.mesh.at(x1, y0)] +
          (1.0 - tx) * ty * coarse.x[coarse.mesh.at(x0, y1)] +
          tx * ty * coarse.x[coarse.mesh.at(x1, y1)];
      level.x[c] += correction;
    });
    smooth(level, 2);
  }

  SolverOptions options_;
  double vdd_ = 0.0;
  std::vector<exec::ChunkRange> chunks_;  // level-0 node chunks
  std::vector<MgLevel> levels_;
};

/// Static span name per backend (no allocation when tracing is off).
std::string_view span_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::Sor:
      return "solver.sor";
    case SolverKind::ConjugateGradient:
      return "solver.cg";
    case SolverKind::Multigrid:
      return "solver.multigrid";
  }
  return "solver.unknown";
}

SolveResult run_backend(const PadSystem& sys, const PowerGrid& grid,
                        const SolverOptions& options) {
  switch (options.kind) {
    case SolverKind::ConjugateGradient:
      return solve_cg(sys, options);
    case SolverKind::Multigrid:
      return MultigridSolver(sys.mesh, grid, options).run();
    case SolverKind::Sor:
      break;
  }
  return solve_sor(sys, options);
}

}  // namespace

std::string_view to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::Sor:
      return "sor";
    case SolverKind::ConjugateGradient:
      return "cg";
    case SolverKind::Multigrid:
      return "multigrid";
  }
  return "unknown";
}

std::string_view to_string(SolveStop stop) {
  switch (stop) {
    case SolveStop::Converged:
      return "converged";
    case SolveStop::IterationLimit:
      return "iteration_limit";
    case SolveStop::Trivial:
      return "trivial";
    case SolveStop::Diverged:
      return "diverged";
    case SolveStop::Budget:
      return "budget";
  }
  return "unknown";
}

SolveResult solve(const PowerGrid& grid, const SolverOptions& options) {
  require(!grid.pads().empty(),
          "solve: power grid needs at least one pad (singular system)");
  require(options.tolerance > 0.0, "solve: tolerance must be positive");
  require(options.max_iterations > 0,
          "solve: max_iterations must be positive");
  if (options.warm_start != nullptr) {
    const auto k = static_cast<std::size_t>(grid.k());
    require(options.warm_start->width() == k &&
                options.warm_start->height() == k,
            "solve: warm_start field must match the grid's k x k shape");
  }
  const obs::ScopedSpan span(span_name(options.kind), "power");
  const PadSystem sys = build_system(grid);
  SolveResult result;
  if (sys.free_count == 0) {
    // Every node is a pad: the field is exactly Vdd.
    const auto k = static_cast<std::size_t>(grid.k());
    result.voltage = Grid2D<double>(k, k, grid.spec().vdd);
    result.converged = true;
    result.stop = SolveStop::Trivial;
  } else {
    // Fallback chain: the requested backend first, then SOR. On the
    // healthy path the chain runs exactly one backend and the result is
    // bit-identical to a chain-free solve.
    std::vector<SolverKind> chain{options.kind};
    if (options.fallback && options.kind != SolverKind::Sor) {
      chain.push_back(SolverKind::Sor);
    }
    std::vector<SolveAttempt> attempts;
    for (std::size_t ci = 0; ci < chain.size(); ++ci) {
      SolverOptions attempt_options = options;
      attempt_options.kind = chain[ci];
      result = run_backend(sys, grid, attempt_options);
      attempts.push_back(SolveAttempt{chain[ci], result.iterations,
                                      result.relative_residual, result.stop});
      if (result.stop != SolveStop::Diverged) break;
      if (obs::metrics_enabled()) obs::count("solver.fallbacks");
      if (ci + 1 == chain.size()) {
        std::string what = "solve: every backend diverged:";
        for (const SolveAttempt& attempt : attempts) {
          what.append(" ")
              .append(to_string(attempt.kind))
              .append("(iter ")
              .append(std::to_string(attempt.iterations))
              .append(")");
        }
        SolverError error(what);
        error.add_context("solver.fallback");
        throw error;
      }
    }
    result.attempts = std::move(attempts);
    result.warm_started = options.warm_start != nullptr;
  }
  if (obs::metrics_enabled()) {
    obs::count("solver.solves");
    obs::count("solver.iterations_total", result.iterations);
    obs::count("solver.stop." + std::string(to_string(result.stop)));
    obs::observe("solver.iterations", result.iterations,
                 {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096});
    obs::gauge("solver.relative_residual", result.relative_residual);
  }
  return result;
}

double max_ir_drop(const PowerGrid& grid, const SolveResult& result) {
  require(result.stop != SolveStop::Diverged,
          "max_ir_drop: the solve diverged and its voltage field is "
          "meaningless; keep SolverOptions::fallback on or inspect "
          "SolveResult::attempts");
  double lowest = grid.spec().vdd;
  for (const double v : result.voltage.data()) lowest = std::min(lowest, v);
  return grid.spec().vdd - lowest;
}

double mean_ir_drop(const PowerGrid& grid, const SolveResult& result) {
  require(result.stop != SolveStop::Diverged,
          "mean_ir_drop: the solve diverged and its voltage field is "
          "meaningless; keep SolverOptions::fallback on or inspect "
          "SolveResult::attempts");
  double total = 0.0;
  for (const double v : result.voltage.data()) total += grid.spec().vdd - v;
  return result.voltage.size() > 0
             ? total / static_cast<double>(result.voltage.size())
             : 0.0;
}

}  // namespace fp
