// Test-only oracle: the compact free-node Jacobi-PCG that fp::solve() ran
// before the structured halo layout of src/power/solver.cpp.
//
// The system keeps only the free (non-pad) nodes, in row-major order, with
// the pads folded into the right-hand side; every neighbour is reached
// through a free-index gather with bounds checks. Each vector operation is
// its own pass and each dot product its own canonical chunked reduction
// (exec::parallel_sum over free-node indices, grain 4096). The arithmetic
// is kept operation for operation, so the production solver's
// ConjugateGradient backend must reproduce its iteration count, residual,
// stop reason and every voltage bit for bit (tests/solver_identity_test.cpp).
// Telemetry, fault sites and the cancel token are left out: the oracle is
// only ever run on healthy meshes.
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "exec/exec.h"
#include "geom/grid2d.h"
#include "power/power_grid.h"
#include "power/solver.h"

namespace fp::oracle {

inline constexpr std::size_t kReduceGrain = 4096;
inline constexpr std::size_t kSweepGrain = 2048;

struct FreeSystem {
  int k = 0;
  std::vector<int> free_index;    // k*k -> index into free vectors, -1 = pad
  std::vector<IPoint> free_node;  // free index -> node
  std::vector<double> diag;       // A_ii
  std::vector<double> b;
  double b_norm = 0.0;
};

inline double chunked_dot(const std::vector<double>& a,
                          const std::vector<double>& b) {
  return exec::parallel_sum(a.size(), kReduceGrain,
                            [&](std::size_t begin, std::size_t end) {
                              double acc = 0.0;
                              for (std::size_t i = begin; i < end; ++i) {
                                acc += a[i] * b[i];
                              }
                              return acc;
                            });
}

inline FreeSystem build_system(const PowerGrid& grid) {
  const int k = grid.k();
  FreeSystem sys;
  sys.k = k;
  sys.free_index.assign(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(k), -1);
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      if (grid.is_pad(x, y)) continue;
      sys.free_index[static_cast<std::size_t>(y * k + x)] =
          static_cast<int>(sys.free_node.size());
      sys.free_node.push_back({x, y});
    }
  }
  const double gx = grid.gx();
  const double gy = grid.gy();
  const double vdd = grid.spec().vdd;
  sys.diag.resize(sys.free_node.size());
  sys.b.resize(sys.free_node.size());
  for (std::size_t i = 0; i < sys.free_node.size(); ++i) {
    const auto [x, y] = sys.free_node[i];
    double d = 0.0;
    double b = -grid.node_current(x, y);
    const auto visit = [&](int nx, int ny, double g) {
      if (nx < 0 || nx >= k || ny < 0 || ny >= k) return;  // Neumann edge
      d += g;
      if (grid.is_pad(nx, ny)) b += g * vdd;
    };
    visit(x - 1, y, gx);
    visit(x + 1, y, gx);
    visit(x, y - 1, gy);
    visit(x, y + 1, gy);
    sys.diag[i] = d;
    sys.b[i] = b;
  }
  sys.b_norm = std::sqrt(chunked_dot(sys.b, sys.b));
  return sys;
}

/// y = A x over the free nodes (pads act as zero: they live in b).
inline void apply(const FreeSystem& sys, const PowerGrid& grid,
                  const std::vector<double>& x, std::vector<double>& y) {
  const int k = sys.k;
  const double gx = grid.gx();
  const double gy = grid.gy();
  exec::parallel_for(
      sys.free_node.size(), kSweepGrain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto [nx0, ny0] = sys.free_node[i];
          double acc = sys.diag[i] * x[i];
          const auto visit = [&](int nx, int ny, double g) {
            if (nx < 0 || nx >= k || ny < 0 || ny >= k) return;
            const int fi =
                sys.free_index[static_cast<std::size_t>(ny * k + nx)];
            if (fi >= 0) acc -= g * x[static_cast<std::size_t>(fi)];
          };
          visit(nx0 - 1, ny0, gx);
          visit(nx0 + 1, ny0, gx);
          visit(nx0, ny0 - 1, gy);
          visit(nx0, ny0 + 1, gy);
          y[i] = acc;
        }
      });
}

inline double relative_residual(const FreeSystem& sys, const PowerGrid& grid,
                                const std::vector<double>& x) {
  std::vector<double> ax(x.size());
  apply(sys, grid, x, ax);
  const double rr = exec::parallel_sum(
      x.size(), kReduceGrain, [&](std::size_t begin, std::size_t end) {
        double acc = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          const double r = sys.b[i] - ax[i];
          acc += r * r;
        }
        return acc;
      });
  return sys.b_norm > 0.0 ? std::sqrt(rr) / sys.b_norm : std::sqrt(rr);
}

/// Jacobi-PCG on the free-node system. Honours tolerance, max_iterations
/// and warm_start; returns Trivial when every node is a pad.
inline SolveResult solve_cg(const PowerGrid& grid,
                            const SolverOptions& options) {
  const FreeSystem sys = build_system(grid);
  const auto k = static_cast<std::size_t>(sys.k);
  SolveResult result;
  result.voltage = Grid2D<double>(k, k, grid.spec().vdd);
  if (sys.free_node.empty()) {
    result.converged = true;
    result.stop = SolveStop::Trivial;
    return result;
  }
  const std::size_t n = sys.free_node.size();
  std::vector<double> x(n, grid.spec().vdd);
  if (options.warm_start != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto [nx, ny] = sys.free_node[i];
      x[i] = (*options.warm_start)(static_cast<std::size_t>(nx),
                                   static_cast<std::size_t>(ny));
    }
  }
  std::vector<double> r(n);
  std::vector<double> z(n);
  std::vector<double> p(n);
  std::vector<double> ap(n);
  const auto elementwise =
      [n](const std::function<void(std::size_t, std::size_t)>& body) {
        exec::parallel_for(n, kSweepGrain, body);
      };

  apply(sys, grid, x, ap);
  elementwise([&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) r[i] = sys.b[i] - ap[i];
    for (std::size_t i = begin; i < end; ++i) z[i] = r[i] / sys.diag[i];
  });
  p = z;
  double rz = chunked_dot(r, z);

  const double b_norm = sys.b_norm > 0.0 ? sys.b_norm : 1.0;
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    const double rel = std::sqrt(chunked_dot(r, r)) / b_norm;
    if (rel <= options.tolerance) break;
    apply(sys, grid, p, ap);
    const double alpha = rz / chunked_dot(p, ap);
    elementwise([&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) x[i] += alpha * p[i];
      for (std::size_t i = begin; i < end; ++i) r[i] -= alpha * ap[i];
      for (std::size_t i = begin; i < end; ++i) z[i] = r[i] / sys.diag[i];
    });
    const double rz_next = chunked_dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    elementwise([&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) p[i] = z[i] + beta * p[i];
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto [nx, ny] = sys.free_node[i];
    result.voltage(static_cast<std::size_t>(nx),
                   static_cast<std::size_t>(ny)) = x[i];
  }
  result.iterations = iter;
  result.relative_residual = relative_residual(sys, grid, x);
  result.converged = std::isfinite(result.relative_residual) &&
                     result.relative_residual <= options.tolerance;
  result.stop =
      result.converged ? SolveStop::Converged : SolveStop::IterationLimit;
  return result;
}

}  // namespace fp::oracle
