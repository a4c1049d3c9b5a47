// Child-process spawn/reap primitives for the batch farm (src/farm/).
//
// The exec layer's thread pool parallelizes *within* one process; this
// header is the scale-out counterpart: fork/exec a worker with its
// stdio redirected to files, poll it without blocking, and kill it when
// it hangs. Everything is deliberately low-level and non-owning of
// policy -- retries, backoff and journaling live in the farm supervisor;
// this layer only guarantees that
//
//   * a spawned child never shares the supervisor's stdout (worker noise
//     would corrupt the supervisor's own report stream),
//   * the exit status distinguishes a normal exit from death by signal
//     (a crashed worker must be classifiable as FP-CRASH), and
//   * every child is reaped exactly once (no zombies across a
//     thousand-job sweep), and
//   * killing a child kills its process group, leaving no orphans.
//
// POSIX-only, like the artifact layer's host block; the farm subcommand
// is compiled out on other platforms.
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

namespace fp::exec {

/// How one child terminated.
struct ExitStatus {
  bool exited = false;     // true: normal exit; false: killed by a signal
  int code = 0;            // exit code when exited
  int signal = 0;          // terminating signal when !exited
  /// "exit 3" / "signal 9 (SIGKILL)" -- the journal/manifest rendering.
  [[nodiscard]] std::string to_string() const;
};

/// What to spawn. argv[0] is the executable path (execv, no PATH
/// search -- the farm self-execs an absolute path).
struct SpawnOptions {
  std::vector<std::string> argv;
  /// Environment entries set in the child ("NAME=value" semantics,
  /// given as {name, value}); the rest of the environment is inherited.
  std::vector<std::pair<std::string, std::string>> set_env;
  /// Environment names removed in the child (a retry attempt must not
  /// inherit the supervisor's FPKIT_FAULTS).
  std::vector<std::string> unset_env;
  /// Redirect targets; empty = inherit. stderr capture is how a crashed
  /// worker's last words reach the farm manifest.
  std::string stdout_path;
  std::string stderr_path;
};

/// One spawned child. Movable, not copyable; the destructor does NOT
/// kill or reap -- the farm supervisor owns child lifetime explicitly
/// and leaks are surfaced by its drain loop instead of hidden in a
/// destructor.
class Child {
 public:
  Child() = default;

  /// fork+execv. Throws IoError when the fork fails or the redirect
  /// files cannot be opened; an exec failure surfaces as the child
  /// exiting 127 (classified by the supervisor like any failed attempt).
  [[nodiscard]] static Child spawn(const SpawnOptions& options);

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] bool running() const { return pid_ > 0 && !reaped_; }

  /// Non-blocking reap (waitpid WNOHANG). Returns true once the child
  /// has terminated and fills `status`; subsequent calls keep returning
  /// true with the same status.
  bool try_wait(ExitStatus& status);

  /// Blocking reap; returns the final status.
  ExitStatus wait();

  /// Sends `signum` (SIGTERM/SIGKILL) to the child's process group --
  /// the child and anything it spawned; no-op once reaped.
  void kill(int signum);

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  ExitStatus status_;
};

/// The last `max_bytes` of `path`, with a leading "...(truncated)" marker
/// when the file was longer; empty string when the file is missing or
/// unreadable. Used to embed a crashed worker's stderr in its manifest.
[[nodiscard]] std::string read_tail(const std::string& path,
                                    std::size_t max_bytes);

}  // namespace fp::exec
