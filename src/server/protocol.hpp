// The stg_checkd wire protocol: line-delimited JSON over a local stream
// socket, and the JSON renderings shared by the daemon and `stg_check
// --json` (so the one-shot tool and the server emit field-for-field the
// same records). The schema is documented in docs/architecture.md.
//
// Protocol version 2. Requests may carry an optional integer "version";
// requests versioned newer than kProtocolVersion are rejected with a
// typed "unsupported_version" error so an old daemon fails loudly
// instead of half-understanding a new client. "ping" and "status"
// replies always carry the server's "version".
//
// Requests (one JSON object per line):
//   {"op":"ping"}
//   {"op":"status"}                 -- server-wide counters
//   {"op":"status","session":"s1"}  -- one session's state + progress
//   {"op":"check","id":"...","net":"<.g text>","options":{...}}
//   {"op":"batch","id":"...","nets":[{"id":"...","net":"..."},...],
//    "options":{...}}
//   {"op":"cancel","session":"s1"}
//   {"op":"metrics"}                -- server-cumulative metrics snapshot
//   {"op":"metrics","session":"s1"} -- one finished session's snapshot
//   {"op":"shutdown"}
//
// The options object is the wire form of core::CheckConfig -- one parse
// path for the CLI, the daemon and the tests (core/config.hpp; unknown
// keys are rejected so typos fail loudly instead of silently running
// defaults).
//
// Responses are one JSON object per line. Control replies carry "reply"
// ("pong", "status", "accepted", "result", "batch_done", "cancelled",
// "error", "bye"); streamed event records carry "session" + "event"
// instead (see event_to_json). A check produces: one "accepted", the
// event stream, then one "result" with "report" (completed), "outcome" +
// "trip" (cancelled / resource-exhausted), or "error" (failed). Error
// replies always carry a machine-readable "code" (ErrorCode below) next
// to the human "message".
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace stgcheck::server {

/// The protocol revision this server speaks (see file comment).
inline constexpr int kProtocolVersion = 2;

/// Machine-readable error classes. The wire names (to_string) are stable
/// schema: clients dispatch on "code", never on "message" text.
enum class ErrorCode {
  kBadRequest,          ///< malformed JSON or a schema/option violation
  kUnsupportedVersion,  ///< request "version" newer than kProtocolVersion
  kBadNet,              ///< the net text failed to parse or validate
  kDuplicateSession,    ///< session id already in use
  kUnknownSession,      ///< cancel/status on an id this server never saw
  kSessionFinished,     ///< cancel on a session that already finished
  kSessionFailed,       ///< the check itself threw
};

const char* to_string(ErrorCode code);
std::optional<ErrorCode> parse_error_code(std::string_view name);

/// A protocol violation with its wire error code attached. Derives from
/// ModelError so pre-v2 catch sites keep working.
class ProtocolError : public ModelError {
 public:
  ProtocolError(ErrorCode code, const std::string& what)
      : ModelError("protocol: " + what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// One net to check, plus its session options.
struct CheckRequest {
  std::string id;        ///< empty = server assigns one
  std::string net_text;  ///< .g / astg source
  core::CheckConfig options;
};

struct Request {
  enum class Op { kPing, kStatus, kCheck, kBatch, kCancel, kShutdown, kMetrics };
  Op op = Op::kPing;
  std::vector<CheckRequest> checks;  ///< kCheck: exactly 1; kBatch: >= 0
  std::string batch_id;              ///< kBatch; empty = server assigns
  std::string session_id;  ///< kCancel: required; kStatus/kMetrics:
                           ///< empty = server-wide
};

/// Parses one request line. Throws (ParseError for malformed JSON,
/// ProtocolError/ModelError for schema violations) with a message fit
/// for an error reply.
Request parse_request(const std::string& line);

/// Parses the "options" object -- the wire form of core::CheckConfig.
/// Unknown keys throw. (Thin forwarder kept for callers predating the
/// unified config; new code calls core::CheckConfig::from_json.)
core::CheckConfig parse_session_options(const json::Value& obj);

/// One event record as a JSON object: {"event":kind,"at":seconds} plus,
/// when present, "label", "ok", "detail" and a "metrics" object (empty
/// members are omitted).
json::Value event_to_json(const core::EventRecord& record);
/// The same with a leading "session" member -- the daemon's streamed form.
std::string event_line(const std::string& session_id,
                       const core::EventRecord& record);

/// The full report as JSON -- every fact ImplementabilityReport::summary
/// prints, as typed fields. Shared verbatim by `stg_check --json` and the
/// daemon's "result" reply.
json::Value report_to_json(const stg::Stg& stg,
                           const core::ImplementabilityReport& report);

/// A budget trip as JSON: {"limit":kind,"live_nodes":n,
/// "elapsed_seconds":s,"steps":k} -- the gauges frozen at trip time.
json::Value trip_to_json(const BudgetTrip& trip);

/// {"reply":"error","code":...,"message":...} with an optional "session"
/// member.
std::string error_line(ErrorCode code, const std::string& message,
                       const std::string& session_id = {});

}  // namespace stgcheck::server
