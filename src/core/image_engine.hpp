// The pluggable image-computation layer: one interface, three backends.
//
// Everything above the encoding -- traversal, the implementability checks,
// the benches -- computes successor/predecessor sets through an
// ImageEngine, never through SymbolicStg directly. That makes the paper's
// central claim (the per-transition cofactor pipeline beats transition
// relations) a swappable, benchmarkable choice instead of a hard-wired
// code path, and it opens encodings the cofactor trick cannot express
// (k-bounded places, multi-token arcs) as future backends behind the same
// interface.
//
//   * CofactorEngine   -- the paper's delta_N pipeline (Sec. 4): four cube
//                         operations per transition, no relation ever
//                         built.
//   * RelationalEngine -- the relational baseline: sparse per-transition
//                         relations clustered by shared support under a
//                         node cap, fired in support-overlap order, each
//                         cluster's image one twin-pair rel_next product
//                         that quantifies exactly the cluster's support and
//                         renames the primed twins back in one recursion.
//                         Under the chaining strategy the clusters fire
//                         disjunctively in sequence, each from the set
//                         enriched by its predecessors.
//   * SaturationEngine -- the in-kernel fixpoint (saturation.hpp): sparse
//                         relations partitioned by the level of their top
//                         support variable and handed to the kernel's
//                         REACH operation, which saturates low variables
//                         before high ones ever see a frontier. traverse()
//                         detects it (computes_global_fixpoint) and
//                         replaces its pass loop with whole-space
//                         reach_fixpoint calls.
//
// The two relation-backed engines share SparseRelationEngine: one sparse
// relation per transition for the per-transition entry points, and one
// implementation of the cluster image (rel_next) and preimage (rename into
// the primed frame, then and_exists).
//
// Traversal granularity is expressed as "units": the indivisible firing
// steps a backend offers. The cofactor backend has one unit per
// transition (the paper's Fig. 5 inner loop), the relational backend one
// unit per cluster. traverse() iterates units, so chaining, lazy
// initial-value binding and the on-the-fly safeness/consistency checks run
// unchanged on every backend.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/encoding.hpp"
#include "core/relation.hpp"

namespace stgcheck::core {

/// Which backend computes images; TraversalOptions::engine selects one.
enum class EngineKind {
  kCofactor,    ///< the paper's delta_N pipeline
  kRelational,  ///< support-clustered relations, early quantification
  kSaturation,  ///< in-kernel REACH fixpoint over level-partitioned
                ///< relations (core/saturation.hpp)
};

const char* to_string(EngineKind kind);

/// Parses an engine name as printed by to_string ('-' and '_' are
/// interchangeable, so the CLI spellings work too); nullopt for unknown
/// names.
std::optional<EngineKind> parse_engine_kind(std::string_view name);
/// Every valid engine name, comma-separated -- for CLI error messages.
std::string valid_engine_kind_names();

struct EngineOptions {
  /// Threads the BDD kernel may use (Manager::set_thread_count; traverse()
  /// applies it to the encoding's manager before the first image). 1 -- the
  /// default -- runs the exact sequential kernel, bit-identical to every
  /// pre-parallel baseline; larger values attach a work-stealing pool and
  /// the heavy recursions fork their cofactor branches. Canonicity keeps
  /// the results identical at any thread count.
  std::size_t threads = 1;
};

/// Parses a --threads value: an integer in [1, bdd::Manager::kMaxThreads].
/// nullopt for malformed or out-of-range input.
std::optional<std::size_t> parse_thread_count(std::string_view text);
/// The accepted --threads range, for CLI error messages ("1..64").
std::string valid_thread_count_range();

struct ImageEngineStats {
  std::size_t image_calls = 0;     ///< image / image_via / image_unit calls
  std::size_t preimage_calls = 0;
  std::size_t relation_nodes = 0;  ///< BDD size of the backend's relations (0 for cofactor)
  std::size_t units = 0;           ///< firing units the backend exposes
  /// Worst transient overhead of a single image/preimage step: the live-
  /// node high-water mark inside the step minus the live count entering
  /// it, maximized over all steps. This is where relational-product
  /// intermediates show up (the reached set and the relations are part of
  /// the entering count, so they do not pollute it).
  std::size_t peak_intermediate_nodes = 0;
};

/// Abstract image substrate over one SymbolicStg encoding.
class ImageEngine {
 public:
  virtual ~ImageEngine() = default;

  virtual const char* name() const = 0;
  virtual EngineKind kind() const = 0;

  /// Successors of `states` under every transition (one full step).
  virtual bdd::Bdd image(const bdd::Bdd& states);
  /// Predecessors of `states` under every transition.
  virtual bdd::Bdd preimage(const bdd::Bdd& states);
  /// Successors of `states` under one transition.
  virtual bdd::Bdd image_via(const bdd::Bdd& states, pn::TransitionId t) = 0;
  /// Predecessors of `states` under one transition.
  virtual bdd::Bdd preimage_via(const bdd::Bdd& states, pn::TransitionId t) = 0;

  // ---- Firing units (traversal granularity) -------------------------------

  virtual std::size_t unit_count() const = 0;
  /// The transitions unit `u` fires (for lazy binding and safeness
  /// attribution in the traversal).
  virtual const std::vector<pn::TransitionId>& unit_transitions(std::size_t u) const = 0;
  /// Successors of `states` under every transition of unit `u`.
  virtual bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u) = 0;

  // ---- Whole-space fixpoints ----------------------------------------------

  /// True when the backend computes the whole reachability least fixpoint
  /// in one in-kernel operation (SaturationEngine). traverse() then
  /// replaces its pass/unit loop with a single reach_fixpoint call --
  /// but only when no lazy initial-value binding remains after the
  /// initial-state pass (binding needs the temporal order of first
  /// enablings, which a closed set has erased); a net with an undeclared,
  /// not-initially-enabled signal runs the step-wise unit loop instead.
  virtual bool computes_global_fixpoint() const { return false; }
  /// The least fixpoint of `from` under every transition. Engines that
  /// return true above must override; the default throws ModelError.
  virtual bdd::Bdd reach_fixpoint(const bdd::Bdd& from);

  // ---- Shared helpers -----------------------------------------------------

  /// States of `states` from which firing `t` would deposit a second token
  /// on a successor place. Every backend excludes such firings from its
  /// image; this reports them so the traversal can flag the violation.
  bdd::Bdd unsafe_states(const bdd::Bdd& states, pn::TransitionId t);

  SymbolicStg& sym() { return sym_; }
  const ImageEngineStats& stats() const { return stats_; }

 protected:
  explicit ImageEngine(SymbolicStg& sym);

  /// Call at the top of an image/preimage computation: when the manager's
  /// variable order changed since the last call (Manager::reorder_epoch),
  /// lets the backend refresh order-dependent metadata via on_reorder().
  /// The cached cubes and relation BDDs themselves survive a reorder --
  /// sifting rewrites nodes in place, preserving every external handle --
  /// but anything derived from the *shape* of the order (node-count
  /// statistics, level-sorted supports) goes stale.
  void sync_with_order();
  /// Backend hook invoked by sync_with_order() after a reorder.
  virtual void on_reorder() {}

  /// RAII gauge around one image/preimage step: rearms the manager's
  /// step-local live-node watermark on entry and folds (peak - live at
  /// entry) into stats_.peak_intermediate_nodes on exit. Nested gauges
  /// (image() looping image_unit()) measure once, at the outermost level.
  class StepGauge {
   public:
    explicit StepGauge(ImageEngine& engine);
    ~StepGauge();
    StepGauge(const StepGauge&) = delete;
    StepGauge& operator=(const StepGauge&) = delete;

   private:
    ImageEngine& engine_;
    bool outermost_;
    std::size_t live_before_ = 0;
  };

  SymbolicStg& sym_;
  ImageEngineStats stats_;

 private:
  std::size_t gauge_depth_ = 0;
  /// Lazily built per transition: OR of strict-postset place literals.
  std::vector<bdd::Bdd> marked_successor_;
  std::vector<bool> marked_successor_built_;
  std::size_t order_epoch_;
};

// ---------------------------------------------------------------------------
// The delta_N pipeline (extracted out of SymbolicStg; SymbolicStg::image
// and ::preimage delegate here for compatibility).
// ---------------------------------------------------------------------------

/// delta_D(states, t): ((states_E(t) . NPM(t))_NSM(t) . ASM(t) plus the
/// fired signal's bit flip. If `unsafe_out` is non-null it receives the
/// subset of `states` from which firing t would violate safeness (those
/// states are excluded from the image).
bdd::Bdd cofactor_image(const SymbolicStg& sym, const bdd::Bdd& states,
                        pn::TransitionId t, bdd::Bdd* unsafe_out = nullptr);
/// Exact inverse of cofactor_image on consistently-encoded safe states.
bdd::Bdd cofactor_preimage(const SymbolicStg& sym, const bdd::Bdd& states,
                           pn::TransitionId t);

/// The paper's engine: per-transition cofactor pipeline, one unit per
/// transition, no relations. Works on any encoding (primed or not).
class CofactorEngine final : public ImageEngine {
 public:
  explicit CofactorEngine(SymbolicStg& sym);

  const char* name() const override { return "cofactor"; }
  EngineKind kind() const override { return EngineKind::kCofactor; }

  bdd::Bdd image_via(const bdd::Bdd& states, pn::TransitionId t) override;
  bdd::Bdd preimage_via(const bdd::Bdd& states, pn::TransitionId t) override;

  std::size_t unit_count() const override { return units_.size(); }
  const std::vector<pn::TransitionId>& unit_transitions(std::size_t u) const override {
    return units_[u];
  }
  bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u) override;

 private:
  std::vector<std::vector<pn::TransitionId>> units_;  // one transition each
};

/// The shared half of the two relation-backed backends (RelationalEngine,
/// SaturationEngine): one singleton sparse-relation cluster per transition
/// serves the per-transition image_via/preimage_via, and the two cluster
/// products below are the only relational image and preimage either engine
/// runs. Requires an encoding with primed variables.
class SparseRelationEngine : public ImageEngine {
 public:
  bdd::Bdd image_via(const bdd::Bdd& states, pn::TransitionId t) override;
  bdd::Bdd preimage_via(const bdd::Bdd& states, pn::TransitionId t) override;

 protected:
  explicit SparseRelationEngine(SymbolicStg& sym);

  /// Successors of `states` under `c`: the twin-pair rel_next product,
  /// which quantifies c's support and renames the primed twins back in one
  /// recursion. Everything outside the support flows through `states`
  /// untouched, which is the frame condition for free.
  bdd::Bdd cluster_image(const bdd::Bdd& states, const RelationCluster& c);
  /// Predecessors of `states` under `c`: rename c's support into the
  /// primed frame, then quantify the primed twins with and_exists.
  bdd::Bdd cluster_preimage(const bdd::Bdd& states, const RelationCluster& c);
  /// Sets stats_.relation_nodes to the shared node count of `clusters`'
  /// relations. The count depends on the variable order, so on_reorder()
  /// calls this again.
  void count_relation_nodes(const std::vector<RelationCluster>& clusters);

  /// One singleton cluster per transition, indexed by transition.
  std::vector<RelationCluster> by_transition_;
};

/// The relational baseline: sparse per-transition relations clustered by
/// shared support under kClusterNodeCap nodes per cluster relation, one
/// unit per cluster, the clusters fired in support_overlap_order. Each
/// cluster's image and preimage quantify exactly the cluster's support, so
/// untouched variables are never quantified at all.
class RelationalEngine final : public SparseRelationEngine {
 public:
  /// Stop growing a cluster once its relation BDD would exceed this many
  /// nodes. A single transition whose sparse relation is already larger
  /// stays a singleton cluster (a cap cannot split one transition).
  static constexpr std::size_t kClusterNodeCap = 2000;

  explicit RelationalEngine(SymbolicStg& sym);

  const char* name() const override { return "relational"; }
  EngineKind kind() const override { return EngineKind::kRelational; }

  bdd::Bdd preimage(const bdd::Bdd& states) override;

  /// Units are the clusters, in firing order.
  std::size_t unit_count() const override { return clusters_.size(); }
  const std::vector<pn::TransitionId>& unit_transitions(std::size_t u) const override {
    return clusters_[u].transitions;
  }
  bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u) override;

  // ---- Introspection (tests, docs) ---------------------------------------

  /// The clusters in firing order; cluster c is unit c.
  const std::vector<RelationCluster>& clusters() const { return clusters_; }

 protected:
  void on_reorder() override;

 private:
  std::vector<RelationCluster> clusters_;  // in firing order
};

/// Builds the requested backend. The relational and saturation backends
/// throw ModelError unless `sym` was built with primed variables. No
/// backend reads `options` at construction: traverse() applies the
/// thread count to the encoding's manager.
std::unique_ptr<ImageEngine> make_engine(EngineKind kind, SymbolicStg& sym,
                                         const EngineOptions& options = {});

}  // namespace stgcheck::core
