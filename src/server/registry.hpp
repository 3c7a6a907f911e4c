// The daemon's session registry: id -> (session, lifecycle state), plus
// the per-session governance handles the protocol's cancel/status ops
// act through.
//
// Every check the server accepts gets an entry here for its whole
// lifecycle (queued -> running -> done/failed/cancelled/exhausted). The
// registry is the only structure connection threads and scheduler
// threads both touch, so it is the one place in the server that locks
// around session bookkeeping; the sessions themselves stay
// single-threaded (core/session.hpp). Each entry carries
//
//   * the CheckSession itself (owned until the result line is written),
//   * the CancelToken wired into the session's resource budget -- the
//     one object a "cancel" op from another connection thread may touch
//     while the session runs (it is a lone atomic flag, so no lock
//     ordering issues against the session's thread),
//   * the latest pass gauges, updated by the server's event sink so a
//     "status" op answers live progress without touching the session.
//
// Memory: a finished CheckSession holds its report, which keeps the
// whole BDD manager of the net alive. A resident daemon serving
// thousands of nets cannot retain that, so the server calls finish() as
// soon as the result line has been written: the whole entry is evicted
// and its id + final state pushed onto a small ring of recently-finished
// sessions. The ring is what lets a "status" op answer "finished" for a
// recently-freed id and "unknown" for an id this server never saw --
// distinctly -- while keeping the table bounded by the number of live
// sessions.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "util/budget.hpp"

namespace stgcheck::server {

enum class SessionState {
  kQueued,
  kRunning,
  kDone,       ///< ran to a verdict
  kFailed,     ///< the check threw
  kCancelled,  ///< an explicit cancel landed mid-check
  kExhausted,  ///< a resource limit tripped mid-check
};

const char* to_string(SessionState state);

struct SessionInfo {
  std::string id;
  SessionState state = SessionState::kQueued;
  std::string error;      ///< what() of the failure (kFailed only)
  bool finished = false;  ///< entry lives on the finished ring, not the table
};

/// Latest pass gauges of a running session, captured from its kPass
/// event records (core/events.hpp). All zero until the first pass.
struct SessionProgress {
  std::size_t passes = 0;
  std::size_t image_computations = 0;
  std::size_t live_nodes = 0;
  std::size_t peak_live_nodes = 0;
  std::size_t reached_nodes = 0;
  std::size_t frontier_nodes = 0;
  double at = 0;          ///< clock timestamp of the latest pass record
  double started_at = 0;  ///< clock timestamp when the scheduler picked it up
};

struct RegistryCounts {
  std::size_t queued = 0;
  std::size_t running = 0;
  // Cumulative since server start (finished entries are evicted, so
  // these are counters, not table scans).
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t exhausted = 0;
  std::size_t total() const {
    return queued + running + done + failed + cancelled + exhausted;
  }
};

/// What a cancel op achieved.
enum class CancelResult {
  kSignalled,  ///< token set; the session trips at its next safe point
  kFinished,   ///< the session already finished (ring hit)
  kUnknown,    ///< this server never saw the id
};

/// Thread-safe id -> session table. Ids are client-chosen or generated
/// ("s1", "s2", ...); generated ids are never reused within one server
/// lifetime. Finished entries move to a bounded ring (see file comment).
class SessionRegistry {
 public:
  /// How many recently-finished ids the ring remembers.
  static constexpr std::size_t kFinishedRingSize = 64;

  /// A fresh never-used generated id.
  std::string unique_id();

  /// Registers a queued session under `id` with its cancel token (the
  /// same token the session's budget holds). Returns the raw session
  /// pointer (owned by the registry until finish()), or nullptr if the id
  /// names a live session. Reusing a finished id is legal and evicts its
  /// ring entry: status answers for the new run from then on.
  core::CheckSession* add(const std::string& id,
                          std::unique_ptr<core::CheckSession> session,
                          std::shared_ptr<CancelToken> token);

  /// Marks `id` running (scheduler picked it up) at clock time `at`.
  void mark_running(const std::string& id, double at = 0);

  /// Records the latest pass gauges (called from the event sink);
  /// started_at is preserved from mark_running.
  void note_pass(const std::string& id, const SessionProgress& progress);

  /// Sets the cancel token of a live session; the session unwinds at its
  /// next budget safe point and reports a kCancelled outcome.
  CancelResult cancel(const std::string& id);

  /// Marks `id` finished: bumps the cumulative counter for `state`,
  /// evicts the entry, remembers id + final state on the ring, and frees
  /// the session (see file comment).
  void finish(const std::string& id, SessionState state,
              std::string error = {});

  /// Live entry, or ring entry with finished = true, or nullopt.
  std::optional<SessionInfo> info(const std::string& id) const;
  /// Latest pass gauges of a live session; nullopt for finished/unknown.
  std::optional<SessionProgress> progress(const std::string& id) const;
  /// Live entries in id order, then ring entries oldest-first.
  std::vector<SessionInfo> list() const;
  RegistryCounts counts() const;

 private:
  struct Entry {
    std::unique_ptr<core::CheckSession> session;
    std::shared_ptr<CancelToken> token;
    SessionState state = SessionState::kQueued;
    SessionProgress progress;
  };

  struct Finished {
    std::string id;
    SessionState state = SessionState::kDone;
    std::string error;
  };

  const Finished* find_finished_locked(const std::string& id) const;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // ordered: list() is deterministic
  std::deque<Finished> finished_;         // bounded by kFinishedRingSize
  RegistryCounts finished_counts_;        // cumulative done/failed/... only
  std::size_t next_id_ = 0;
};

}  // namespace stgcheck::server
