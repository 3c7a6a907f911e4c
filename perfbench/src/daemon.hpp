// The daemon workload: an stg_checkd child process driven closed-loop
// over its socket protocol, timed at the client.
#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

#include "corpus.hpp"
#include "oneshot.hpp"

namespace perfbench {

/// One stg_checkd process. The constructor starts it and returns once it
/// answers a ping; the destructor kills it if stop() was not called.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& socket_path,
         std::size_t threads);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Sends the shutdown op and reaps the process. Returns its peak
  /// resident set in MB, or 0 if it was already stopped.
  double stop();

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

/// One request of the closed loop. Times are seconds since the loop
/// started, taken when the client sent the request or read the line.
struct DaemonRequest {
  CheckResult result;    ///< seconds = service time (session_start -> result)
  double submitted = 0;
  double accepted = 0;   ///< "accepted" reply
  double started = 0;    ///< the session's "session_start" event
  double finished = 0;   ///< "result" reply
};

/// Runs `workload.stream` through `clients` connections, each sending its
/// next request only after the previous result arrived. `wall_seconds`
/// receives first submit to last result. Throws std::runtime_error on a
/// protocol failure or after 150 s.
std::vector<DaemonRequest> run_closed_loop(const std::string& socket_path,
                                           const Workload& workload,
                                           std::size_t clients,
                                           double& wall_seconds);

}  // namespace perfbench
