#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_

// The server under test as a separate process: spawn `hierarq_server`,
// learn its ephemeral port from the one `listening on` stdout line, read
// its CPU time and peak RSS from /proc, and stop it. The destructor kills and reaps a server that is
// still running, so no exit path leaves one behind.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hierarq/util/result.h"
#include "measure.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Starts `binary` with `args`, stderr appended to `log_path`, and
  /// waits (up to kSpawnTimeoutS) for the port announcement.
  static hierarq::Result<std::unique_ptr<ServerProcess>> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  std::optional<ProcCpu> Cpu() const;
  /// VmHWM in MB.
  std::optional<double> PeakRssMb() const;

  /// Sends `signal` and reaps the process. Returns false if it was not
  /// running or did not exit within kStopTimeoutS (it is SIGKILLed then).
  bool Stop(int signal);

 private:
  static constexpr double kSpawnTimeoutS = 150.0;
  static constexpr double kStopTimeoutS = 30.0;

  ServerProcess() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// Clock ticks per second for ProcCpu.
double ClockTicksPerSecond();

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
