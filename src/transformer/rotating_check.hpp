#pragma once
/// \file rotating_check.hpp
/// A prototype of the transformer the paper leaves open (Section 6):
///
///   "the possibility of designing an efficient general transformer for
///    protocols matching the local checking paradigm remains an open
///    question. This transformer would allow to easily get more efficient
///    communication in the stabilized phase ..."
///
/// This module provides such a transformer for the *universally pairwise
/// checkable* fragment of local checking: predicates of the form
/// "for every edge {p,q}, ok(state_p, state_q)". For those, checking can
/// rotate: each process audits one neighbor per step via a cur pointer
/// (1-efficient in every step, exactly like Fig 7) and invokes the source
/// protocol's repair action — which may read the whole neighborhood —
/// only when the audited pair is inconsistent. In the stabilized phase no
/// pair is inconsistent, so every process pays one neighbor per step
/// forever.
///
/// The fragment boundary is the interesting part, and it is the paper's
/// point: MIS-style predicates need an *existential* witness ("some
/// neighbor dominates me"), which a memoryless rotation cannot certify —
/// Fig 8 solves it by *pinning* the cur pointer on the witness. That
/// pinning is problem-specific, which is precisely why the general
/// transformer is open.

#include <memory>
#include <string>

#include "runtime/protocol.hpp"

namespace sss {

/// A source protocol admissible for the rotating-check transformation.
class PairwiseCheckable {
 public:
  virtual ~PairwiseCheckable() = default;

  /// Communication variables of the source protocol (the transformer adds
  /// its own internal cur pointer on top).
  virtual const ProtocolSpec& base_spec() const = 0;

  /// True if the edge to the neighbor on `channel` is locally
  /// inconsistent, reading only that neighbor. Must be symmetric up to
  /// repair: if a pair is inconsistent, at least one endpoint must see it.
  virtual bool pair_suspicious(const GuardContext& ctx,
                               NbrIndex channel) const = 0;

  /// Repair after a suspicion; may read the entire neighborhood and must
  /// write at least one communication variable in a way that resolves the
  /// suspicion with positive probability.
  virtual void repair(ActionContext& ctx) const = 0;

  virtual const std::string& name() const = 0;
  virtual bool is_probabilistic() const { return true; }
};

/// The transformed protocol: 1-efficient audit, full-width repair.
///
///   action 0 (audit fails):  repair(); cur <- (cur mod delta) + 1
///   action 1 (audit passes): cur <- (cur mod delta) + 1
class RotatingCheck final : public Protocol {
 public:
  static constexpr int kCurVar = 0;  ///< internal

  /// Keeps a reference to `source`; it must outlive the transformer.
  /// This ad-hoc construction path is deprecated in favor of the
  /// registry's composable "rotating-check" transformer entry (select a
  /// checker source as its inner spec); it remains as a compat shim for
  /// callers that own their source separately.
  RotatingCheck(const Graph& g, const PairwiseCheckable& source);

  /// Owning variant: the registry's "rotating-check" entry wraps checker
  /// sources it constructs itself.
  RotatingCheck(const Graph& g, std::unique_ptr<PairwiseCheckable> source);

  const std::string& name() const override { return name_; }
  const ProtocolSpec& spec() const override { return spec_; }
  int num_actions() const override { return 2; }
  bool is_probabilistic() const override {
    return source_.is_probabilistic();
  }

  int first_enabled(GuardContext& ctx) const override;
  void execute(int action, ActionContext& ctx) const override;

 private:
  /// Set only by the owning constructor; `source_` points at it then.
  std::unique_ptr<PairwiseCheckable> owned_;
  const PairwiseCheckable& source_;
  std::string name_;
  ProtocolSpec spec_;
};

/// Instance 1: proper vertex coloring. Suspicious = same color; repair =
/// redraw uniformly among the colors no neighbor uses (a full-read
/// Gradinariu-Tixeuil step). RotatingCheck over this instance behaves
/// like Fig 7 with a smarter (but wider) repair.
class PairwiseColoring final : public PairwiseCheckable {
 public:
  static constexpr int kColorVar = 0;

  explicit PairwiseColoring(const Graph& g, int palette_size = 0);

  const ProtocolSpec& base_spec() const override { return spec_; }
  bool pair_suspicious(const GuardContext& ctx,
                       NbrIndex channel) const override;
  void repair(ActionContext& ctx) const override;
  const std::string& name() const override { return name_; }

  int palette_size() const { return palette_size_; }

 private:
  std::string name_ = "pairwise-coloring";
  int palette_size_;
  ProtocolSpec spec_;
};

/// Instance 2: frequency separation — adjacent values must differ by at
/// least `separation` (channel assignment with guard bands; separation=1
/// degenerates to proper coloring). A palette of separation*(2*Delta)+1
/// values always leaves a free slot, since each neighbor blocks an
/// interval of 2*separation-1 values.
class PairwiseSeparation final : public PairwiseCheckable {
 public:
  static constexpr int kValueVar = 0;

  PairwiseSeparation(const Graph& g, int separation, int palette_size = 0);

  const ProtocolSpec& base_spec() const override { return spec_; }
  bool pair_suspicious(const GuardContext& ctx,
                       NbrIndex channel) const override;
  void repair(ActionContext& ctx) const override;
  const std::string& name() const override { return name_; }

  int separation() const { return separation_; }
  int palette_size() const { return palette_size_; }

  /// The separation predicate over a whole configuration: one O(n + m)
  /// pass over the adjacency, no allocation.
  static bool separated(const Graph& g, const Configuration& config,
                        int separation, int value_var = kValueVar);

 private:
  std::string name_;
  int separation_;
  int palette_size_;
  ProtocolSpec spec_;
};

}  // namespace sss
