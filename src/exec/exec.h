// Deterministic parallel execution core (docs/PARALLELISM.md).
//
// Everything here is built around one contract: for a fixed seed, every
// result must be bit-identical at any thread count. Two rules enforce it:
//
//   1. Work is split into chunks whose boundaries depend only on the
//      problem size and the grain -- never on the thread count. Chunks
//      may execute on any worker in any order.
//   2. Reductions combine per-chunk partials in chunk-index order (the
//      "canonical order"). The single-threaded path runs the same chunk
//      arithmetic inline, so `threads=1` produces the same bits as
//      `threads=N` -- it just never creates a pool or spawns a thread.
//
// The thread count is process-wide: `set_default_threads()` (the CLI's
// --threads flag) or the FPKIT_THREADS environment variable; the default
// is 1, which keeps every existing entry point on the inline path.
// Nested regions (a parallel solver inside a parallel batch job) run
// inline on the worker that owns the outer chunk, so the pool can never
// deadlock on itself and nesting does not change any reduction order.
//
// Exceptions thrown by a chunk (including injected faults,
// util/faultpoint.h) are captured and rethrown on the calling thread
// once the region finishes; the first captured exception wins.
//
// With metrics armed (obs/metrics.h) the layer records `exec.*`
// counters: regions, tasks, per-region chunk counts and worker busy
// time. Disarmed, instrumentation costs one relaxed atomic load.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

namespace fp::exec {

/// Threads the hardware offers (>= 1; hardware_concurrency with a floor).
[[nodiscard]] int hardware_threads();

/// The process-wide thread count used by parallel_for/parallel_sum/
/// parallel_tasks. Initialised from FPKIT_THREADS on first use; 1 when
/// the variable is absent or invalid.
[[nodiscard]] int default_threads();

/// Sets the process-wide thread count. `threads` <= 0 means "auto"
/// (hardware_threads()); 1 disables the pool entirely. Not meant to be
/// called concurrently with running parallel regions.
void set_default_threads(int threads);

/// True while the current thread is executing a chunk of a parallel
/// region (worker or caller); nested regions then run inline.
[[nodiscard]] bool in_parallel_region();

/// One half-open index range of a deterministic partition.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Splits [0, n) into ceil(n / grain) contiguous chunks of `grain`
/// elements (the last one short). Depends only on (n, grain) -- never on
/// the thread count -- which is what makes chunked reductions canonical.
[[nodiscard]] std::vector<ChunkRange> partition(std::size_t n,
                                                std::size_t grain);

/// Runs body(i, chunks[i]) for every chunk of an explicit chunk list,
/// distributing chunks over the pool (inline at threads=1 or when
/// nested). Chunks must be independent: the body may write only to
/// per-index or per-chunk state.
void parallel_for(
    const std::vector<ChunkRange>& chunks,
    const std::function<void(std::size_t, const ChunkRange&)>& body);

/// parallel_for over partition(n, grain): body(begin, end) per chunk.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Ordered (deterministic) reduction over an explicit chunk list:
/// partial(begin, end) is evaluated per chunk and the partials are
/// summed in chunk-index order. The same chunking runs inline at
/// threads=1, so the result is bit-identical at every thread count.
[[nodiscard]] double parallel_sum(
    const std::vector<ChunkRange>& chunks,
    const std::function<double(std::size_t, std::size_t)>& partial);

/// Two ordered reductions in one pass: partial(begin, end) returns both
/// chunk partials, and each is combined exactly as parallel_sum combines
/// its own.
[[nodiscard]] std::array<double, 2> parallel_sum2(
    const std::vector<ChunkRange>& chunks,
    const std::function<std::array<double, 2>(std::size_t, std::size_t)>&
        partial);

/// parallel_sum over partition(n, grain).
[[nodiscard]] double parallel_sum(
    std::size_t n, std::size_t grain,
    const std::function<double(std::size_t, std::size_t)>& partial);

/// Task-level fan-out (SA replicas, batch flow jobs): runs task(i) for
/// every i in [0, count), one chunk per task. Callers collect results by
/// index so completion order never matters.
void parallel_tasks(std::size_t count,
                    const std::function<void(std::size_t)>& task);

}  // namespace fp::exec
