// Injected time sources shared by the event log (core/events.hpp) and the
// trace recorder (util/trace.hpp).
//
// The interface lives here, below both core and the observability
// utilities, so a TraceRecorder can be driven by the same clock a session
// stamps its event records from -- and so tests can replay both against a
// ManualClock without either layer depending on the other.
#pragma once

#include "util/stopwatch.hpp"

namespace stgcheck {

/// Injected time source; seconds since an epoch the owner defines
/// (session start for a CLI run, server start for a daemon).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual double seconds() const = 0;
};

/// Monotonic clock starting at 0 on construction.
class SteadyClock final : public Clock {
 public:
  double seconds() const override { return watch_.seconds(); }

 private:
  Stopwatch watch_;
};

/// Hand-driven clock for tests: time moves only via advance()/set().
class ManualClock final : public Clock {
 public:
  double seconds() const override { return now_; }
  void advance(double s) { now_ += s; }
  void set(double s) { now_ = s; }

 private:
  double now_ = 0;
};

}  // namespace stgcheck
