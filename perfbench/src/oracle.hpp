// The verdict oracle: reference verdicts and state counts that do not come
// from the symbolic engines.
//
// Where the explicit state graph can be built (mread8, mutex12, muller16,
// every select size, the example and random nets) the reference is the
// explicit sg/ checker's answer. For muller32/64 and mutex24/48 the counts
// come from the families' closed forms -- 2^(n+1) and 2^n*(1+n); select is
// 7n -- and the verdicts from the largest explicitly checked member of the
// family (muller16, mutex12). The closed forms are themselves checked
// against every explicitly built member.
//
// Oracle work runs outside every timed region. Explicit references are
// cached on disk under a directory the caller keys by a digest of the
// program's and the benchmark's sources, so each checkout builds every
// state graph once rather than once per run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "util/json.hpp"

namespace perfbench {

struct Reference {
  std::string level;
  /// Verdict name (as in the report's "verdicts" object) -> expected value.
  std::map<std::string, bool> verdicts;
  /// Full states and markings. Compared only when the traversal completes
  /// (safe and consistent nets).
  double states = 0;
  double markings = 0;
  bool traversal_ok = true;
  std::string source;  ///< "explicit" or "closed form + <member> verdicts"
};

class Oracle {
 public:
  /// `cache_dir` holds explicit references from earlier runs of the same
  /// sources.
  explicit Oracle(std::string cache_dir) : cache_dir_(std::move(cache_dir)) {}

  /// The reference for a check's net (cached per net name). Throws
  /// std::runtime_error if the explicit graph is incomplete or a closed
  /// form disagrees with an explicitly built member.
  const Reference& reference(const Check& check);

 private:
  /// The explicit reference of `check`'s net, from the disk cache or built.
  Reference explicit_reference(const Check& check);

  std::string cache_dir_;
  std::map<std::string, Reference> cache_;
};

/// The report fields that disagree with the reference ("level",
/// verdict names, "states", "markings"); empty when the report matches.
/// `report` is the report_to_json rendering shared by stg_check --json and
/// the daemon's result line.
std::vector<std::string> compare(const stgcheck::json::Value& report,
                                 const Reference& ref);

/// The known defect that explains these mismatches on this check, or
/// nullptr. A known defect matches only when every mismatching field is
/// one it names, so any other disagreement still counts as a failure.
const char* known_defect(const Check& check,
                         const std::vector<std::string>& mismatches);

}  // namespace perfbench
