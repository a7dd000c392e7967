/// \file tudataset.hpp
/// Reader/writer for the on-disk TUDataset exchange format.
///
/// The format (Morris et al., "TUDataset", ICML 2020 GRL+ workshop) stores a
/// dataset DS in a directory as line-oriented text files:
///
///   DS_A.txt               sparse adjacency: one "i, j" pair per line,
///                          1-based global vertex ids; undirected graphs list
///                          both directions.
///   DS_graph_indicator.txt line v = graph id (1-based) of global vertex v.
///   DS_graph_labels.txt    line g = class label of graph g (arbitrary ints).
///   DS_node_labels.txt     (optional) line v = label of global vertex v.
///
/// The reader accepts both one-direction and both-direction edge lists
/// (duplicates are merged), arbitrary integer class labels (remapped to
/// dense 0-based ids preserving numeric order), comments starting with '#',
/// and flexible whitespace.  The writer emits the canonical both-direction
/// form so that round-trips are exact.
///
/// If the real TUDataset files are placed under e.g. data/MUTAG/, the
/// examples and benches load them; otherwise they fall back to the synthetic
/// replicas (see synthetic.hpp).

#pragma once

#include <filesystem>
#include <string>

#include "data/dataset.hpp"

namespace graphhd::data {

/// Loads dataset `name` from `directory`, expecting `<name>_A.txt` etc.
/// inside.  Throws std::runtime_error with a descriptive message on missing
/// files or malformed content.
[[nodiscard]] GraphDataset load_tudataset(const std::filesystem::path& directory,
                                          const std::string& name);

/// True when the three mandatory files of dataset `name` exist in
/// `directory`.
[[nodiscard]] bool tudataset_exists(const std::filesystem::path& directory,
                                    const std::string& name);

/// Writes `dataset` to `directory` in TUDataset format (creates the
/// directory) by appending every graph through data::TUDatasetWriter.
/// Vertex labels are written when present.  Throws std::runtime_error when
/// a file cannot be created or a write fails.
void save_tudataset(const GraphDataset& dataset, const std::filesystem::path& directory);

}  // namespace graphhd::data
