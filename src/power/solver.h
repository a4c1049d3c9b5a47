// Linear solvers for the power mesh of power_grid.h.
//
// The system is the 5-point Laplacian with uniform link conductances,
// Dirichlet (Vdd) pad nodes and Neumann die edges -- symmetric positive
// definite on the free nodes as long as at least one pad exists. Three
// back-ends are provided; they must agree within tolerance (a property the
// test suite checks):
//   * ConjugateGradient -- Jacobi-preconditioned CG, the default;
//   * Sor               -- red-black Gauss-Seidel with over-relaxation
//     (omega ~ 1.8; omega = 1 is plain Gauss-Seidel), the fallback;
//   * Multigrid         -- geometric V-cycles (red-black Gauss-Seidel
//     smoothing, full-weighting restriction, bilinear prolongation, pad
//     mask injected to the coarse levels), in the spirit of the fast
//     power-grid solvers the paper cites ([21], [22]). Convergence is not
//     mesh-size independent: cycle counts grow with k.
// When the chosen back-end diverges, solve() falls back to Sor (see
// SolverOptions::fallback).
//
// Layout: every back-end runs on one structured (k + 2)^2 array per mesh
// level, the k x k nodes row-major inside a one-cell halo ring. The halo,
// and the pads of the pad-eliminated CG/SOR vectors, hold exact +0.0, so
// the stencil needs no bounds branch and no gather. CG runs three fused
// passes per iteration (stencil with p.Ap; x/r/z update with r.z and r.r;
// p update).
//
// Bit-identity contract: every reduction sums canonical chunks -- cut at
// free-node indices that are multiples of a fixed grain, never at thread
// boundaries -- in chunk order, so a solve returns the same iterations,
// residual and voltage bits at any thread count. CG's results are also
// bit-identical to the compact free-node Jacobi-PCG it replaced
// (tests/cg_oracle.h).
#pragma once

#include <string_view>
#include <vector>

#include "geom/grid2d.h"
#include "power/power_grid.h"
#include "util/cancel.h"

namespace fp {

/// Explicit values: gtest prints a kind's raw bytes into the IDs of the
/// value-parameterised solver tests (tests/power_test.cpp), so these
/// numbers keep those test IDs stable across the deleted Jacobi (0) and
/// GaussSeidel (1) kinds.
enum class SolverKind { Sor = 2, ConjugateGradient = 3, Multigrid = 4 };

[[nodiscard]] std::string_view to_string(SolverKind kind);

struct SolverOptions {
  SolverKind kind = SolverKind::ConjugateGradient;
  /// Convergence threshold on the relative residual |r| / |b|.
  double tolerance = 1e-9;
  int max_iterations = 50000;
  /// Over-relaxation factor, used by Sor only.
  double sor_omega = 1.8;
  /// When the chosen backend diverges (NaN or blowing-up residual),
  /// escalate through the fallback chain (ConjugateGradient or
  /// Multigrid -> Sor) instead of returning garbage; the attempt history lands
  /// in SolveResult::attempts. solve() throws SolverError when every
  /// backend in the chain diverges. Divergence never happens on the SPD
  /// meshes of power_grid.h, so this default does not change healthy
  /// results.
  bool fallback = true;
  /// Cooperative deadline: the iteration loops poll it every few sweeps
  /// and return best-so-far (stop = Budget, converged = false) on expiry.
  /// Non-owning; null = unlimited.
  const CancelToken* cancel = nullptr;
  /// Optional warm start: a previous voltage field (k x k volts, e.g.
  /// SolveResult::voltage of the last solve on the same mesh) seeding the
  /// iterate instead of the flat-Vdd cold start. After a small pad edit
  /// the old field is already near the new solution, but Jacobi-PCG still
  /// needs ~k iterations to carry a moved pad's change across the mesh: a
  /// warm CG re-solve after a supply-pad move measured 88-90% of the cold
  /// iteration count (k = 32, 48, 64). The converged answer is
  /// still driven to the same `tolerance`, so warm and cold results agree
  /// within it (the contract tests/session_test.cpp enforces). Null (the
  /// default) keeps the cold start bit-identical to previous releases.
  /// Non-owning; must match the grid's k x k shape when set.
  const Grid2D<double>* warm_start = nullptr;
};

/// Why the solve loop ended (telemetry; `converged` stays the API truth).
enum class SolveStop {
  Converged,       // residual reached the tolerance
  IterationLimit,  // max_iterations exhausted before converging
  Trivial,         // every node is a pad: the field is exactly Vdd
  Diverged,        // NaN or growing residual: the field is garbage
  Budget,          // SolverOptions::cancel expired: best-so-far returned
};

[[nodiscard]] std::string_view to_string(SolveStop stop);

/// One backend run of the fallback chain (see SolveResult::attempts).
struct SolveAttempt {
  SolverKind kind = SolverKind::ConjugateGradient;
  int iterations = 0;
  double relative_residual = 0.0;
  SolveStop stop = SolveStop::IterationLimit;
};

struct SolveResult {
  Grid2D<double> voltage;  // volts at every node
  int iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
  SolveStop stop = SolveStop::IterationLimit;
  /// True when SolverOptions::warm_start seeded the iterate (telemetry;
  /// lets callers and tests tell warm re-solves from cold ones).
  bool warm_started = false;
  /// Fallback-chain history, one entry per backend tried by solve()
  /// (size 1 on the healthy path; empty for the trivial all-pads case).
  std::vector<SolveAttempt> attempts;
};

/// Solves for the node voltages. Throws InvalidArgument when the grid has
/// no pads (the system would be singular) and SolverError when every
/// backend of the fallback chain diverges.
[[nodiscard]] SolveResult solve(const PowerGrid& grid,
                                const SolverOptions& options = {});

/// Worst IR-drop: Vdd minus the lowest node voltage (volts). Requires a
/// non-diverged result (converged, iteration-limited, budget-expired or
/// trivial); a Diverged voltage field is garbage and reading it silently
/// was a misuse risk, so it throws InvalidArgument instead.
[[nodiscard]] double max_ir_drop(const PowerGrid& grid,
                                 const SolveResult& result);

/// Mean IR-drop over all nodes (volts). Same precondition as max_ir_drop.
[[nodiscard]] double mean_ir_drop(const PowerGrid& grid,
                                  const SolveResult& result);

}  // namespace fp
