#include "data/tudataset.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "data/stream.hpp"
#include "data/text_io.hpp"

namespace graphhd::data {

namespace {

namespace fs = std::filesystem;

using text_io::parse_ints;
using text_io::read_int_column;
using text_io::trim;

}  // namespace

bool tudataset_exists(const fs::path& directory, const std::string& name) {
  return fs::exists(directory / (name + "_A.txt")) &&
         fs::exists(directory / (name + "_graph_indicator.txt")) &&
         fs::exists(directory / (name + "_graph_labels.txt"));
}

GraphDataset load_tudataset(const fs::path& directory, const std::string& name) {
  const fs::path adjacency_file = directory / (name + "_A.txt");
  const fs::path indicator_file = directory / (name + "_graph_indicator.txt");
  const fs::path labels_file = directory / (name + "_graph_labels.txt");
  const fs::path node_labels_file = directory / (name + "_node_labels.txt");

  // 1. Vertex -> graph assignment (1-based on both sides in the format).
  const auto indicator = read_int_column(indicator_file);
  const std::size_t total_vertices = indicator.size();
  std::size_t num_graphs = 0;
  for (const long long g : indicator) {
    if (g < 1) {
      throw std::runtime_error(indicator_file.string() + ": graph ids must be >= 1");
    }
    num_graphs = std::max(num_graphs, static_cast<std::size_t>(g));
  }
  // Every line of the indicator column assigns one vertex, so a graph id
  // beyond the line count cannot name a real graph.  Without this bound a
  // single corrupted digit ("3" -> "3000000000") turns into a multi-gigabyte
  // builder allocation instead of a parse error (see tests/test_fuzz_loaders).
  if (num_graphs > total_vertices) {
    throw std::runtime_error(indicator_file.string() + ": graph id " +
                             std::to_string(num_graphs) + " exceeds the vertex count " +
                             std::to_string(total_vertices));
  }

  // Local (per-graph) vertex ids in order of appearance.
  std::vector<std::size_t> local_id(total_vertices);
  std::vector<std::size_t> graph_size(num_graphs, 0);
  for (std::size_t v = 0; v < total_vertices; ++v) {
    const auto g = static_cast<std::size_t>(indicator[v]) - 1;
    local_id[v] = graph_size[g]++;
  }

  // 2. Graph labels, remapped to dense 0-based ids preserving numeric order.
  const auto raw_labels = read_int_column(labels_file);
  if (raw_labels.size() != num_graphs) {
    throw std::runtime_error(labels_file.string() + ": expected " + std::to_string(num_graphs) +
                             " labels, found " + std::to_string(raw_labels.size()));
  }
  std::map<long long, std::size_t> label_map;
  for (const long long l : raw_labels) label_map.emplace(l, 0);
  std::size_t next_label = 0;
  for (auto& [raw, dense] : label_map) dense = next_label++;

  // 3. Edges.
  std::vector<graph::GraphBuilder> builders;
  builders.reserve(num_graphs);
  for (std::size_t g = 0; g < num_graphs; ++g) {
    builders.emplace_back(graph_size[g]);
  }
  std::ifstream adjacency_in(adjacency_file);
  if (!adjacency_in) {
    throw std::runtime_error("tudataset: cannot open " + adjacency_file.string());
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(adjacency_in, line)) {
    ++line_no;
    const auto trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto ints = parse_ints(trimmed, adjacency_file, line_no);
    if (ints.size() != 2) {
      throw std::runtime_error(adjacency_file.string() + ":" + std::to_string(line_no) +
                               ": expected 'i, j'");
    }
    const long long gi = ints[0], gj = ints[1];
    if (gi < 1 || gj < 1 || static_cast<std::size_t>(gi) > total_vertices ||
        static_cast<std::size_t>(gj) > total_vertices) {
      throw std::runtime_error(adjacency_file.string() + ":" + std::to_string(line_no) +
                               ": vertex id out of range");
    }
    const auto u = static_cast<std::size_t>(gi) - 1;
    const auto v = static_cast<std::size_t>(gj) - 1;
    if (indicator[u] != indicator[v]) {
      throw std::runtime_error(adjacency_file.string() + ":" + std::to_string(line_no) +
                               ": edge crosses graph boundary");
    }
    const auto g = static_cast<std::size_t>(indicator[u]) - 1;
    // The builder merges the reverse direction and ignores self-loops.
    builders[g].add_edge(static_cast<graph::VertexId>(local_id[u]),
                         static_cast<graph::VertexId>(local_id[v]));
  }

  std::vector<Graph> graphs;
  std::vector<std::size_t> labels;
  graphs.reserve(num_graphs);
  labels.reserve(num_graphs);
  for (std::size_t g = 0; g < num_graphs; ++g) {
    builders[g].ensure_vertices(graph_size[g]);
    graphs.push_back(builders[g].build());
    labels.push_back(label_map.at(raw_labels[g]));
  }
  GraphDataset dataset(name, std::move(graphs), std::move(labels));

  // 4. Optional node labels.
  if (fs::exists(node_labels_file)) {
    const auto raw_node_labels = read_int_column(node_labels_file);
    if (raw_node_labels.size() != total_vertices) {
      throw std::runtime_error(node_labels_file.string() + ": expected " +
                               std::to_string(total_vertices) + " node labels");
    }
    std::map<long long, std::size_t> node_label_map;
    for (const long long l : raw_node_labels) node_label_map.emplace(l, 0);
    std::size_t next_node_label = 0;
    for (auto& [raw, dense] : node_label_map) dense = next_node_label++;
    std::vector<std::vector<std::size_t>> vertex_labels(num_graphs);
    for (std::size_t g = 0; g < num_graphs; ++g) {
      vertex_labels[g].resize(graph_size[g]);
    }
    for (std::size_t v = 0; v < total_vertices; ++v) {
      const auto g = static_cast<std::size_t>(indicator[v]) - 1;
      vertex_labels[g][local_id[v]] = node_label_map.at(raw_node_labels[v]);
    }
    dataset.set_vertex_labels(std::move(vertex_labels));
  }
  return dataset;
}

void save_tudataset(const GraphDataset& dataset, const fs::path& directory) {
  TUDatasetWriter writer(directory, dataset.name());
  for (std::size_t g = 0; g < dataset.size(); ++g) {
    std::span<const std::size_t> vertex_labels;
    if (dataset.has_vertex_labels()) vertex_labels = dataset.vertex_labels()[g];
    writer.append(dataset.graph(g), dataset.label(g), vertex_labels);
  }
  writer.close();
}

}  // namespace graphhd::data
