#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

using hierarq::Result;
using hierarq::Status;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Whole contents of a small file, or nullopt.
std::optional<std::string> ReadSmallFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

}  // namespace

double ClockTicksPerSecond() {
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return ticks > 0 ? static_cast<double>(ticks) : 100.0;
}

Result<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path) {
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);

  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  std::unique_ptr<ServerProcess> server(new ServerProcess());
  const int rc = ::posix_spawn(&server->pid_, binary.c_str(), &actions,
                               nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  server->stdout_fd_ = out_pipe[0];
  if (rc != 0) {
    server->pid_ = -1;
    return Status::Internal("spawn " + binary + ": " + std::strerror(rc));
  }

  // The first stdout line is `listening on 127.0.0.1:PORT`.
  const auto start = std::chrono::steady_clock::now();
  std::string line;
  while (line.find('\n') == std::string::npos) {
    const double left = kSpawnTimeoutS - SecondsSince(start);
    if (left <= 0) {
      return Status::DeadlineExceeded("server did not announce its port");
    }
    pollfd pfd{server->stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      continue;
    }
    char buf[256];
    const ssize_t n = ::read(server->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      return Status::Internal("server exited before listening; see " +
                              log_path);
    }
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = line.rfind(':', line.find('\n'));
  if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
    return Status::Internal("unexpected server banner: " + line);
  }
  server->port_ =
      static_cast<uint16_t>(std::strtoul(line.c_str() + colon + 1, nullptr,
                                         10));
  return server;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    Stop(SIGKILL);
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
  }
}

std::optional<ProcCpu> ServerProcess::Cpu() const {
  const auto text = ReadSmallFile("/proc/" + std::to_string(pid_) + "/stat");
  return text ? ParseProcStat(*text) : std::nullopt;
}

std::optional<double> ServerProcess::PeakRssMb() const {
  const auto text =
      ReadSmallFile("/proc/" + std::to_string(pid_) + "/status");
  if (!text) {
    return std::nullopt;
  }
  const auto kb = ParseStatusKb(*text, "VmHWM");
  if (!kb) {
    return std::nullopt;
  }
  return static_cast<double>(*kb) / 1024.0;
}

bool ServerProcess::Stop(int signal) {
  if (pid_ <= 0) {
    return false;
  }
  ::kill(pid_, signal);
  const auto start = std::chrono::steady_clock::now();
  bool clean = true;
  while (true) {
    int wstatus = 0;
    const pid_t done = ::waitpid(pid_, &wstatus, WNOHANG);
    if (done == pid_ || (done < 0 && errno == ECHILD)) {
      break;
    }
    if (SecondsSince(start) > kStopTimeoutS) {
      clean = false;
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &wstatus, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return clean;
}

}  // namespace perfbench
