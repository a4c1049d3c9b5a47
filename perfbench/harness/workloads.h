// The four workloads of the benchmark (README.md has the table and the
// reason for each). Every runner generates its inputs from
// RunConfig::seed, measures for RunConfig::seconds, checks its outputs,
// and returns the raw samples main.cpp turns into metrics.
#pragma once

#include "common.h"

namespace perfbench {

/// CodesignFlow::run with `fpkit run` defaults on Table-1 circuits 1-5.
[[nodiscard]] WorkloadResult run_flow_table1(const RunConfig& config,
                                             Tracer& tracer);

/// Exchange-off sign-off flows (DFA/IFA x mesh 64/96/128).
[[nodiscard]] WorkloadResult run_signoff_mesh(const RunConfig& config,
                                              Tracer& tracer);

/// assign + route + max_density + run_checks on large packages.
[[nodiscard]] WorkloadResult run_plan_large(const RunConfig& config,
                                            Tracer& tracer);

/// The `fpkit serve` loop in-process: swap rounds closed by an evaluate.
[[nodiscard]] WorkloadResult run_serve_stream(const RunConfig& config,
                                              Tracer& tracer);

}  // namespace perfbench
