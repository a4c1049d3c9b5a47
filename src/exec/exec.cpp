#include "exec/exec.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/timer.h"

namespace fp::exec {

namespace {

constexpr int kMaxThreads = 256;

struct PoolState {
  std::mutex mutex;
  int threads = 0;  // 0 = not initialised yet
  std::unique_ptr<ThreadPool> pool;  // null while threads == 1
};

PoolState& state() {
  static PoolState instance;
  return instance;
}

int clamp_threads(int threads) {
  if (threads <= 0) threads = hardware_threads();
  if (threads > kMaxThreads) threads = kMaxThreads;
  return threads;
}

/// FPKIT_THREADS, or 1 when absent/garbage ("0" means auto).
int threads_from_env() {
  const char* env = std::getenv("FPKIT_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || parsed < 0) return 1;
  return clamp_threads(static_cast<int>(parsed));
}

/// The configured thread count and (when > 1) the shared pool. The pool
/// is created lazily and rebuilt when set_default_threads changes the
/// count; callers must not reconfigure while a region is running.
ThreadPool* shared_pool(int& threads_out) {
  PoolState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (s.threads == 0) s.threads = threads_from_env();
  threads_out = s.threads;
  if (s.threads > 1 && !s.pool) {
    s.pool = std::make_unique<ThreadPool>(s.threads);
  }
  return s.pool.get();
}

/// One-stop instrumentation for a region: chunk count, busy time.
void record_region(std::size_t chunks, long long busy_us, int threads) {
  if (!obs::metrics_enabled()) return;
  obs::count("exec.regions");
  obs::count("exec.tasks", static_cast<long long>(chunks));
  obs::count("exec.worker_busy_us", busy_us);
  obs::gauge("exec.threads", threads);
  obs::observe("exec.region_chunks", static_cast<double>(chunks),
               {1, 2, 4, 8, 16, 32, 64, 128, 256});
}

}  // namespace

int hardware_threads() {
  const unsigned reported = std::thread::hardware_concurrency();
  return reported == 0 ? 1 : static_cast<int>(reported);
}

int default_threads() {
  int threads = 1;
  (void)shared_pool(threads);
  return threads;
}

void set_default_threads(int threads) {
  threads = clamp_threads(threads);
  PoolState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (s.threads == threads && (threads == 1 || s.pool)) return;
  s.pool.reset();
  s.threads = threads;
  if (threads > 1) s.pool = std::make_unique<ThreadPool>(threads);
}

std::vector<ChunkRange> partition(std::size_t n, std::size_t grain) {
  if (grain == 0) grain = 1;
  std::vector<ChunkRange> chunks;
  if (n == 0) return chunks;
  chunks.reserve((n + grain - 1) / grain);
  for (std::size_t begin = 0; begin < n; begin += grain) {
    chunks.push_back(ChunkRange{begin, std::min(n, begin + grain)});
  }
  return chunks;
}

void parallel_for(
    const std::vector<ChunkRange>& chunks,
    const std::function<void(std::size_t, const ChunkRange&)>& body) {
  if (chunks.empty()) return;
  int threads = 1;
  ThreadPool* pool =
      in_parallel_region() ? nullptr : shared_pool(threads);
  const bool instrument = obs::metrics_enabled();
  std::atomic<long long> busy_us{0};
  const auto chunk_body = [&](std::size_t i) {
    if (instrument) {
      const Timer timer;
      body(i, chunks[i]);
      busy_us.fetch_add(static_cast<long long>(timer.seconds() * 1e6),
                        std::memory_order_relaxed);
    } else {
      body(i, chunks[i]);
    }
  };
  if (pool == nullptr || chunks.size() <= 1) {
    for (std::size_t i = 0; i < chunks.size(); ++i) chunk_body(i);
  } else {
    pool->run(chunks.size(), chunk_body);
  }
  if (instrument) record_region(chunks.size(), busy_us.load(), threads);
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for(partition(n, grain),
               [&](std::size_t, const ChunkRange& range) {
                 body(range.begin, range.end);
               });
}

std::array<double, 2> parallel_sum2(
    const std::vector<ChunkRange>& chunks,
    const std::function<std::array<double, 2>(std::size_t, std::size_t)>&
        partial) {
  std::vector<std::array<double, 2>> partials(chunks.size());
  parallel_for(chunks, [&](std::size_t i, const ChunkRange& range) {
    partials[i] = partial(range.begin, range.end);
  });
  // Canonical combine: chunk-index order, independent of scheduling.
  std::array<double, 2> total{0.0, 0.0};
  for (const std::array<double, 2>& value : partials) {
    total[0] += value[0];
    total[1] += value[1];
  }
  return total;
}

double parallel_sum(
    const std::vector<ChunkRange>& chunks,
    const std::function<double(std::size_t, std::size_t)>& partial) {
  return parallel_sum2(chunks, [&](std::size_t begin, std::size_t end) {
    return std::array<double, 2>{partial(begin, end), 0.0};
  })[0];
}

double parallel_sum(
    std::size_t n, std::size_t grain,
    const std::function<double(std::size_t, std::size_t)>& partial) {
  return parallel_sum(partition(n, grain), partial);
}

void parallel_tasks(std::size_t count,
                    const std::function<void(std::size_t)>& task) {
  parallel_for(count, 1,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) task(i);
               });
}

}  // namespace fp::exec
