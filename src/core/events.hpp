// The structured event log of one check session.
//
// The paper's workflow was one-shot: traverse, print a verdict, exit. A
// resident check service (server/check_server.hpp) needs the same facts as
// *data* -- what ConnChecker-style services ship beyond a boolean verdict:
// per-check progress, gauges and typed verdict records a client can
// consume while the check is still running. This file is that layer:
//
//   * EventRecord -- one typed record: a kind, a timestamp from an
//     injected Clock, a label, an optional verdict flag, a detail string
//     and named numeric metrics;
//   * EventLog -- the per-session append-only log. Emission both retains
//     the record (for post-hoc rendering: stg_check --json) and forwards
//     it to an optional sink (for incremental streaming: the daemon writes
//     each record as one JSON line the moment it is emitted).
//
// Ownership and threading: every CheckSession owns exactly one EventLog,
// and a log is only ever written by the one thread running its session --
// no locking here. A streaming sink shared between sessions (one socket,
// many concurrent checks) must do its own serialization; the server's
// per-connection write mutex is that point.
//
// The clock is injected so timestamps are testable (ManualClock) and so a
// server can stamp every session from one epoch. A null clock means "own
// steady clock started at log construction".
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/budget.hpp"
#include "util/clock.hpp"
#include "util/stopwatch.hpp"

namespace stgcheck::core {

// The clock interface moved to util/clock.hpp so the trace recorder and
// metrics layer (which sit below core) can share it; these aliases keep
// every existing core::Clock consumer compiling unchanged.
using Clock = stgcheck::Clock;
using SteadyClock = stgcheck::SteadyClock;
using ManualClock = stgcheck::ManualClock;

/// What a record reports. The wire names (server/protocol.cpp and the
/// --json output use to_string below) are part of the protocol schema
/// documented in docs/architecture.md.
enum class EventKind {
  kSessionStart,   ///< session accepted; label = STG name, metrics = net sizes
  kPass,           ///< one traversal pass finished; metrics = progress gauges
  kReorder,        ///< one between-pass auto-sift; metrics = live nodes
                   ///< before (after the GC) and after, seconds
  kTraversalDone,  ///< fixpoint reached; metrics = TraversalStats + peaks
  kPhaseDone,      ///< one checker phase finished; label = phase, metrics.seconds
  kVerdict,        ///< one check's verdict; label = check, ok = verdict
  kSessionDone,    ///< the whole check finished; detail = implementability level
  kResourceExhausted,  ///< a resource budget tripped; label = which limit,
                       ///< metrics = gauges at trip time (see budget_trip)
  kCancelled,          ///< an explicit cancel landed; metrics = same gauges
  kError,          ///< the session failed; detail = what()
};

const char* to_string(EventKind kind);

/// One typed event record. `metrics` keeps emission order (it serializes
/// as a JSON object); `has_ok` distinguishes verdict-carrying records from
/// purely informational ones.
struct EventRecord {
  EventKind kind = EventKind::kSessionStart;
  double at = 0;  ///< Clock::seconds() at emission
  std::string label;
  bool has_ok = false;
  bool ok = false;
  std::string detail;
  std::vector<std::pair<std::string, double>> metrics;
};

/// Append-only session event log with optional incremental streaming.
class EventLog {
 public:
  using Sink = std::function<void(const EventRecord&)>;

  /// `clock` is borrowed (may outlive nothing; null = own SteadyClock
  /// starting now); `sink`, when set, receives every record at emission.
  explicit EventLog(const Clock* clock = nullptr, Sink sink = nullptr);

  /// Stamps `record.at` from the clock, stores it, forwards it to the sink.
  void emit(EventRecord record);

  // Typed emission helpers -- one per EventKind.
  void session_start(std::string label,
                     std::vector<std::pair<std::string, double>> metrics = {});
  void pass(std::size_t pass, std::size_t image_computations,
            std::size_t live_nodes, std::size_t peak_live_nodes,
            std::size_t reached_nodes, std::size_t frontier_nodes);
  /// The metric names match the args on the kernel's `sift` trace span.
  void reorder(std::size_t live_before, std::size_t live_after,
               double seconds);
  void traversal_done(std::vector<std::pair<std::string, double>> metrics);
  void phase_done(std::string phase, double seconds);
  void verdict(std::string check, bool ok, std::string detail = {});
  void session_done(bool ok, std::string level,
                    std::vector<std::pair<std::string, double>> metrics = {});
  /// kCancelled for an explicit cancel, kResourceExhausted for any limit.
  /// label = which limit tripped (util/budget.hpp wire names), detail =
  /// the trip's message, metrics = the gauges frozen at trip time.
  void budget_trip(const BudgetTrip& trip, const std::string& message);
  void error(std::string what);

  const std::vector<EventRecord>& records() const { return records_; }
  /// The verdict record of `check`, or nullptr if it was never emitted.
  const EventRecord* find_verdict(std::string_view check) const;
  double now() const { return clock_->seconds(); }
  /// The log's clock -- shared with the session's trace recorder so event
  /// timestamps and trace spans live on one epoch.
  const Clock* clock() const { return clock_; }

 private:
  SteadyClock own_clock_;
  const Clock* clock_;
  Sink sink_;
  std::vector<EventRecord> records_;
};

}  // namespace stgcheck::core
