#include "exec/subprocess.h"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/error.h"

namespace fp::exec {

namespace {

/// Signal number -> "SIGKILL"-style name for the common reaper cases.
const char* signal_name(int signum) {
  switch (signum) {
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGINT: return "SIGINT";
    case SIGKILL: return "SIGKILL";
    case SIGSEGV: return "SIGSEGV";
    case SIGTERM: return "SIGTERM";
    default: return "signal";
  }
}

/// Opens `path` for the child's fd `target_fd` (O_TRUNC: one file per
/// attempt). Called between fork and exec, so failures must exit, not
/// throw.
void redirect_or_die(const std::string& path, int target_fd) {
  if (path.empty()) return;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0 || ::dup2(fd, target_fd) < 0) {
    _exit(127);
  }
  ::close(fd);
}

}  // namespace

std::string ExitStatus::to_string() const {
  if (exited) return "exit " + std::to_string(code);
  return "signal " + std::to_string(signal) + " (" + signal_name(signal) +
         ")";
}

Child Child::spawn(const SpawnOptions& options) {
  require(!options.argv.empty(), "Child::spawn: empty argv");
  // argv must outlive execv; build it before forking.
  std::vector<char*> argv;
  argv.reserve(options.argv.size() + 1);
  for (const std::string& arg : options.argv) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw IoError("Child::spawn: fork failed: " +
                  std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    // Child side. Only exec from here on; any failure exits 127 so the
    // supervisor classifies it as a failed attempt rather than hanging.
    ::setpgid(0, 0);  // own process group: kill() reaches its children too
    for (const std::string& name : options.unset_env) {
      ::unsetenv(name.c_str());
    }
    for (const auto& [name, value] : options.set_env) {
      ::setenv(name.c_str(), value.c_str(), /*overwrite=*/1);
    }
    redirect_or_die(options.stdout_path, STDOUT_FILENO);
    redirect_or_die(options.stderr_path, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::setpgid(pid, pid);  // also here, so kill() never races the child's call
  Child child;
  child.pid_ = pid;
  return child;
}

bool Child::try_wait(ExitStatus& status) {
  if (reaped_) {
    status = status_;
    return true;
  }
  if (pid_ <= 0) return false;
  int raw = 0;
  const pid_t reaped = ::waitpid(pid_, &raw, WNOHANG);
  if (reaped == 0) return false;  // still running
  // reaped == pid_, or an error (ECHILD) we treat as "gone": either way
  // the child will never be reaped again.
  reaped_ = true;
  if (reaped == pid_ && WIFEXITED(raw)) {
    status_.exited = true;
    status_.code = WEXITSTATUS(raw);
  } else if (reaped == pid_ && WIFSIGNALED(raw)) {
    status_.exited = false;
    status_.signal = WTERMSIG(raw);
  } else {
    status_.exited = true;
    status_.code = 127;
  }
  status = status_;
  return true;
}

ExitStatus Child::wait() {
  ExitStatus status;
  while (!try_wait(status)) {
    // Blocking path: let waitpid do the waiting instead of spinning.
    int raw = 0;
    const pid_t reaped = ::waitpid(pid_, &raw, 0);
    if (reaped == pid_ || (reaped < 0 && errno == ECHILD)) {
      reaped_ = true;
      if (reaped == pid_ && WIFEXITED(raw)) {
        status_.exited = true;
        status_.code = WEXITSTATUS(raw);
      } else if (reaped == pid_ && WIFSIGNALED(raw)) {
        status_.exited = false;
        status_.signal = WTERMSIG(raw);
      } else {
        status_.exited = true;
        status_.code = 127;
      }
      status = status_;
      return status;
    }
    if (reaped < 0 && errno == EINTR) continue;
  }
  return status;
}

void Child::kill(int signum) {
  if (pid_ > 0 && !reaped_) ::killpg(pid_, signum);
}

std::string read_tail(const std::string& path, std::size_t max_bytes) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return {};
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  if (size <= 0) return {};
  const bool truncated = static_cast<std::size_t>(size) > max_bytes;
  const std::streamoff offset =
      truncated ? size - static_cast<std::streamoff>(max_bytes) : 0;
  file.seekg(offset, std::ios::beg);
  std::string tail(static_cast<std::size_t>(size - offset), '\0');
  file.read(tail.data(), static_cast<std::streamsize>(tail.size()));
  tail.resize(static_cast<std::size_t>(file.gcount()));
  if (truncated) tail = "...(truncated)" + tail;
  return tail;
}

}  // namespace fp::exec
