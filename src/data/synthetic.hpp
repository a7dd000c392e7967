/// \file synthetic.hpp
/// Synthetic replicas of the six TUDataset benchmarks used in the paper.
///
/// The evaluation environment has no network access, so the real DD,
/// ENZYMES, MUTAG, NCI1, PROTEINS and PTC_FM files cannot be downloaded.
/// This module generates stand-in datasets that preserve what drives the
/// paper's claims:
///
///   * the Table I statistics — graph count, class count, average vertices,
///     average edges and ~0.05 average density — which determine every
///     training/inference *timing* result (Fig 3 middle/right);
///   * class-conditional topology — each class draws from a different random
///     graph family (molecule trees with different ring counts, small-world
///     vs preferential-attachment vs community structure), so structure-only
///     classifiers have real signal and the *accuracy comparison* between
///     GraphHD, kernels and GNNs is meaningful (Fig 3 left).
///
/// Absolute accuracy values are not comparable to the paper's (different
/// data); relative orderings and timing shapes are the reproduction target.
///
/// If real TUDataset files are available on disk, `load_or_synthesize`
/// prefers them.

#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace graphhd::data {

/// Target statistics for a synthetic replica (values from Table I).
struct SyntheticSpec {
  std::string name;
  std::size_t graphs = 0;
  std::size_t classes = 0;
  double avg_vertices = 0.0;
  double avg_edges = 0.0;
};

/// The six benchmark specs exactly as printed in Table I of the paper.
[[nodiscard]] std::span<const SyntheticSpec> table1_specs();

/// Looks up a Table I spec by dataset name (case-sensitive; throws if
/// unknown).
[[nodiscard]] const SyntheticSpec& spec_by_name(const std::string& name);

/// Generates a synthetic replica of `spec`.  `scale` in (0, 1] shrinks the
/// number of graphs (never below 4 per class) for quick runs; sizes of the
/// individual graphs are never scaled, so per-graph costs stay faithful.
/// Degree-bucket vertex labels are attached for the attribute-aware GraphHD
/// extension (the paper's protocol ignores them).
[[nodiscard]] GraphDataset make_synthetic_replica(const SyntheticSpec& spec, std::uint64_t seed,
                                                  double scale = 1.0);

/// Convenience overload by dataset name.
[[nodiscard]] GraphDataset make_synthetic_replica(const std::string& name, std::uint64_t seed,
                                                  double scale = 1.0);

/// Loads the real TUDataset from `data_dir/<name>/` when present, otherwise
/// synthesizes the replica.  This is what examples and benches call.
[[nodiscard]] GraphDataset load_or_synthesize(const std::filesystem::path& data_dir,
                                              const std::string& name, std::uint64_t seed,
                                              double scale = 1.0);

}  // namespace graphhd::data
