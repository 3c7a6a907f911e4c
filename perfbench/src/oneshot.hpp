// One-shot checks: each check in a fresh core::CheckSession inside a fresh
// process of its own, as stg_check runs it, plus the traced pipeline that
// splits the same work by layer.
//
// A process per check keeps one check's heap from shaping the next one's
// timings and gives each check its own peak RSS. The driver never builds a
// BDD: it starts itself again with kCheckProcessFlag, writes the check to
// the process's stdin, reads the JSON result from its stdout and reaps it.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "corpus.hpp"
#include "stg/stg.hpp"
#include "util/json.hpp"

namespace perfbench {

/// One finished check, from any path.
struct CheckResult {
  std::size_t check = 0;  ///< index into the workload's checks
  double seconds = 0;     ///< time to verdict
  double peak_live_nodes = 0;
  double rss_mb = 0;      ///< peak resident set of the check's process
  stgcheck::json::Value report;  ///< report_to_json; null unless completed
  std::string error;  ///< exception text or governed outcome; empty if completed
};

/// The driver's first argument when it runs as a check process.
inline constexpr const char* kCheckProcessFlag = "--check-process";

/// The check process: reads one check request from stdin, runs it (or its
/// traced pipeline) and prints the result as one JSON line. Returns the
/// exit status.
int check_process_main();

/// Parses every check's text: the one-shot set-up work.
std::vector<stgcheck::stg::Stg> parse_all(const std::vector<Check>& checks);

/// Runs one pass over `checks` and returns every run. A check repeats
/// until its runs have taken kMinCheckSeconds or it has run kMaxRepeats
/// times, so short checks get enough samples for a steady median; the
/// repeats are interleaved with the later checks. `between`, if set, is
/// called after each check's first run, while no check runs. Times
/// CheckSession construction and run(); parsing and report rendering stay
/// outside the timer.
std::vector<CheckResult> run_pass(const std::vector<Check>& checks,
                                  const std::function<void()>& between = {});
inline constexpr double kMinCheckSeconds = 0.5;
inline constexpr std::size_t kMaxRepeats = 15;

/// The kernel operation kinds the per-layer metrics name.
inline constexpr const char* kOpNames[] = {"and",   "cofactor", "exists",
                                           "reach", "rel_next", "permute"};

/// One check of the traced pipeline, split by layer: (name, value) pairs
/// named like the per-layer metrics they add up to. Times are span
/// durations.
struct LayerRow {
  CheckResult result;  ///< seconds = encoding through csc; the report
  std::vector<std::pair<std::string, double>> values;

  double get(const std::string& name) const;
};

/// One traced pass: check_implementability's steps called one public
/// layer entry point at a time, each inside a TraceRecorder span, with
/// kernel profiling armed.
std::vector<LayerRow> run_traced(const std::vector<Check>& checks);

/// True when two reports agree on level, verdicts, state and marking
/// counts and traversal passes.
bool same_verdicts(const stgcheck::json::Value& a, const stgcheck::json::Value& b);

}  // namespace perfbench
