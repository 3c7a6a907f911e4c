// stg_checkd: the resident implementability-check daemon.
//
// Accepts many nets over a local AF_UNIX socket speaking line-delimited
// JSON (schema: src/server/protocol.hpp and docs/architecture.md), runs
// up to --threads check sessions concurrently, and streams each session's
// typed event records to the submitting client as they are emitted. Runs
// until a client sends {"op":"shutdown"}.
//
//   usage: stg_checkd --socket <path> [--threads N]
//     --socket  PATH   AF_UNIX socket path to listen on (required)
//     --threads N      max concurrently running sessions, an integer in
//                      [1, 64] (default 4)
//
// Try it:
//   stg_checkd --socket /tmp/stg_checkd.sock &
//   stg_checkd_client --socket /tmp/stg_checkd.sock --batch nets/*.g
//   stg_checkd_client --socket /tmp/stg_checkd.sock --shutdown
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>

#include "server/check_server.hpp"
#include "util/error.hpp"

namespace {

void usage() {
  std::fputs(
      "usage: stg_checkd --socket <path> [--threads N]\n"
      "  --socket  PATH   AF_UNIX socket path to listen on\n"
      "  --threads N      max concurrently running sessions, 1-64\n"
      "                   (default 4)\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stgcheck;

  server::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_arg = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      options.socket_path = next_arg();
    } else if (arg == "--threads") {
      // The whole token must be an integer in [1, kMaxSchedulerThreads]:
      // "4x" and "-1" are usage errors.
      const std::string value = next_arg();
      std::size_t threads = 0;
      const auto [end, ec] = std::from_chars(
          value.data(), value.data() + value.size(), threads);
      if (ec != std::errc() || end != value.data() + value.size() ||
          threads < 1 || threads > server::kMaxSchedulerThreads) {
        std::fprintf(stderr, "--threads: '%s' is not an integer in [1, %zu]\n",
                     value.c_str(), server::kMaxSchedulerThreads);
        usage();
        return 1;
      }
      options.threads = threads;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage();
      return 1;
    }
  }
  if (options.socket_path.empty()) {
    usage();
    return 1;
  }

  try {
    server::CheckServer server(options);
    server.start();
    std::fprintf(stderr, "stg_checkd: listening on %s (%zu threads)\n",
                 options.socket_path.c_str(), server.thread_count());
    server.wait();  // returns after a client's shutdown op
    std::fputs("stg_checkd: shut down\n", stderr);
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
