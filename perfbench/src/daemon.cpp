#include "daemon.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <memory>
#include <poll.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

using stgcheck::Stopwatch;
using stgcheck::json::Value;

/// Upper bound on one closed loop; the benchmark must exit within 180 s.
constexpr double kLoopTimeoutSeconds = 150;

/// A connected client socket that reads line-delimited JSON.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("daemon: cannot create socket for " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void send(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("daemon: write failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available (call when poll says readable) and appends
  /// every complete line to `lines`. Throws on EOF.
  void read_lines(std::vector<std::string>& lines) {
    char buf[1 << 16];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) return;
    if (n <= 0) throw std::runtime_error("daemon: connection closed");
    pending_.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = pending_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines.push_back(pending_.substr(start, nl - start));
    }
    pending_.erase(0, start);
  }

  /// Blocks up to `timeout_s` for the next line.
  std::string read_line(double timeout_s) {
    std::vector<std::string> lines;
    Stopwatch clock;
    while (lines.empty()) {
      pollfd p{fd_, POLLIN, 0};
      const double left = timeout_s - clock.seconds();
      if (left <= 0 || ::poll(&p, 1, static_cast<int>(left * 1000) + 1) == 0) {
        throw std::runtime_error("daemon: no reply");
      }
      read_lines(lines);
    }
    return lines.front();
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

}  // namespace

Daemon::Daemon(const std::string& exe, const std::string& socket_path,
               std::size_t threads)
    : socket_path_(socket_path) {
  ::unlink(socket_path.c_str());
  const std::string threads_arg = std::to_string(threads);
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("daemon: fork failed");
  if (pid_ == 0) {
    // Dies with the benchmark even if the benchmark is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
    }
    ::execl(exe.c_str(), exe.c_str(), "--socket", socket_path.c_str(),
            "--threads", threads_arg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  Stopwatch clock;
  while (true) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon: " + exe + " exited during start-up");
    }
    Connection conn(socket_path_);
    if (conn.connected()) {
      conn.send(R"({"op":"ping"})");
      if (Value::parse(conn.read_line(10)).at("reply").as_string() != "pong") {
        throw std::runtime_error("daemon: ping not answered");
      }
      return;
    }
    if (clock.seconds() > 10) throw std::runtime_error("daemon: start-up timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

double Daemon::stop() {
  if (pid_ <= 0) return 0;
  {
    Connection conn(socket_path_);
    if (conn.connected()) {
      conn.send(R"({"op":"shutdown"})");
      try {
        conn.read_line(10);  // "bye"
      } catch (const std::runtime_error&) {
        // Reaped (or killed) below either way.
      }
    }
  }
  rusage usage{};
  int status = 0;
  Stopwatch clock;
  while (::wait4(pid_, &status, WNOHANG, &usage) == 0) {
    if (clock.seconds() > 10) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  ::unlink(socket_path_.c_str());
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<DaemonRequest> run_closed_loop(const std::string& socket_path,
                                           const Workload& workload,
                                           std::size_t clients,
                                           double& wall_seconds) {
  std::vector<std::string> request_lines;
  for (const Check& c : workload.checks) {
    Value req = Value::object();
    req.set("op", Value("check"));
    req.set("net", Value(c.text));
    req.set("options", c.config.to_json());
    request_lines.push_back(req.dump());
  }

  struct Client {
    std::unique_ptr<Connection> conn;
    bool busy = false;
    DaemonRequest current;
  };
  std::vector<Client> cs(clients);
  for (Client& c : cs) {
    c.conn = std::make_unique<Connection>(socket_path);
    if (!c.conn->connected()) throw std::runtime_error("daemon: cannot connect");
  }

  std::vector<DaemonRequest> done;
  std::size_t next = 0;
  Stopwatch clock;
  const auto submit = [&](std::size_t k) {
    if (next >= workload.stream.size()) return;
    Client& c = cs[k];
    c.busy = true;
    c.current = DaemonRequest{};
    c.current.result.check = workload.stream[next];
    // Ids are unique per request: "r<index in stream>".
    std::string line = request_lines[c.current.result.check];
    line.insert(1, "\"id\":\"r" + std::to_string(next) + "\",");
    ++next;
    c.current.submitted = clock.seconds();
    c.conn->send(line);
  };
  for (std::size_t k = 0; k < clients; ++k) submit(k);

  std::vector<pollfd> fds(clients);
  std::vector<std::string> lines;
  while (done.size() < workload.stream.size()) {
    if (clock.seconds() > kLoopTimeoutSeconds) {
      throw std::runtime_error("daemon: closed loop timed out");
    }
    for (std::size_t k = 0; k < clients; ++k) fds[k] = {cs[k].conn->fd(), POLLIN, 0};
    if (::poll(fds.data(), fds.size(), 1000) <= 0) continue;
    for (std::size_t k = 0; k < clients; ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Client& c = cs[k];
      lines.clear();
      c.conn->read_lines(lines);
      const double now = clock.seconds();
      for (const std::string& text : lines) {
        const Value msg = Value::parse(text);
        if (!c.busy) throw std::runtime_error("daemon: unsolicited line " + text);
        DaemonRequest& req = c.current;
        if (const Value* event = msg.find("event")) {
          if (event->as_string() == "session_start") req.started = now;
          if (event->as_string() == "session_done") {
            req.result.peak_live_nodes =
                msg.at("metrics").at("peak_live_nodes").as_number();
          }
          continue;
        }
        const std::string& reply = msg.at("reply").as_string();
        if (reply == "accepted") {
          req.accepted = now;
          continue;
        }
        if (reply == "result") {
          if (const Value* report = msg.find("report")) {
            req.result.report = *report;
          } else if (const Value* error = msg.find("error")) {
            req.result.error = error->as_string();
          } else {
            req.result.error = msg.at("outcome").as_string();
          }
        } else {
          req.result.error = "reply " + reply + ": " + text;
        }
        req.finished = now;
        req.result.seconds = now - (req.started > 0 ? req.started : req.submitted);
        done.push_back(req);
        c.busy = false;
        submit(k);
      }
    }
  }
  wall_seconds = clock.seconds();
  return done;
}

}  // namespace perfbench
