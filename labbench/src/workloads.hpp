#pragma once
/// \file workloads.hpp
/// The benchmark's three workloads, each a manifest generated from the
/// benchmark seed plus the per-protocol claims the output checks hold the
/// results to. The simulator only ever sees the generated manifest text.

#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol_registry.hpp"

namespace labbench {

/// The read-efficiency claim a protocol's measured k is checked against.
enum class ReadClaim {
  kOne,            ///< 1-efficient in every step (the paper's protocols)
  kTwo,            ///< 2-efficient (the BFS family)
  kDegree,         ///< full-read baseline: at most Delta
  kOneWhenStable,  ///< generic-efficiency(X): 1 once stabilized
};

/// One protocol entry of a workload: its manifest spelling, the registry
/// selection that spelling parses to, and its claims.
struct ProtocolCase {
  /// Outermost registry name; the suffix of per-protocol metric names.
  std::string key;
  /// The manifest's protocol object, verbatim.
  std::string json;
  sss::ProtocolSelection selection;
  ReadClaim claim = ReadClaim::kOne;
};

/// Batch worker threads of the lab path (run_batch). One: on this
/// benchmark's shared hosts a two-worker batch is fast only while both
/// workers' cores are uncontended at once, and its figure moved by up to
/// 87% between runs where the single-threaded path moved by 48%.
constexpr int kBatchThreads = 1;

struct Workload {
  std::string name;
  std::vector<ProtocolCase> protocols;
  bool churn = false;
  /// Manifest "defaults" object for a seed.
  std::string (*defaults)(std::uint64_t seed) = nullptr;
  /// Manifest "graphs" array (the same for every seed).
  const char* graphs = nullptr;
  int graph_count = 0;
  /// Timed rounds (one repetition of every unit on both paths) per second
  /// of `--seconds`. A constant, so the minimum's sample size is the same
  /// on every commit rather than growing with the program's speed; set so
  /// that a round count fills about `--seconds` on the host the README
  /// describes.
  double rounds_per_second = 0;

  /// The complete manifest: one sweep per protocol case, in order, each
  /// over the same graphs — so plan item i belongs to protocol case
  /// i / graph_count.
  std::string manifest(std::uint64_t seed) const;
  const ProtocolCase& case_of_item(std::size_t item) const {
    return protocols[item / static_cast<std::size_t>(graph_count)];
  }
};

const std::vector<Workload>& all_workloads();
/// Throws std::invalid_argument on an unknown name.
const Workload& find_workload(const std::string& name);

/// Protocol keys present in every workload; their per-protocol step cost
/// is reported as a per-layer metric on all of them.
const std::vector<std::string>& common_protocol_keys();

}  // namespace labbench
