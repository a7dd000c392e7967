#include "data/stream.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "data/text_io.hpp"

namespace graphhd::data {

namespace {

namespace fs = std::filesystem;

}  // namespace

// ---------------------------------------------------------------------------
// Chunking helpers
// ---------------------------------------------------------------------------

GraphDataset next_chunk(GraphStream& stream, std::size_t max_graphs, const std::string& name) {
  std::vector<Graph> graphs;
  std::vector<std::size_t> labels;
  std::vector<std::vector<std::size_t>> vertex_labels;
  bool labeled = false;
  for (std::size_t i = 0; i < max_graphs; ++i) {
    auto sample = stream.next();
    if (!sample.has_value()) break;
    if (graphs.empty()) {
      labeled = !sample->vertex_labels.empty();
    } else if (labeled != !sample->vertex_labels.empty()) {
      throw std::runtime_error(
          "next_chunk: stream mixes vertex-labeled and unlabeled samples within one chunk");
    }
    graphs.push_back(std::move(sample->graph));
    labels.push_back(sample->label);
    if (labeled) vertex_labels.push_back(std::move(sample->vertex_labels));
  }
  GraphDataset chunk(name, std::move(graphs), std::move(labels));
  if (labeled) chunk.set_vertex_labels(std::move(vertex_labels));
  return chunk;
}

ChunkFetcher::ChunkFetcher(GraphStream& stream, std::size_t chunk, bool prefetch)
    : stream_(stream), chunk_(chunk), prefetch_(prefetch) {
  if (prefetch_) pending_ = launch();
}

ChunkFetcher::~ChunkFetcher() {
  if (pending_.valid()) {
    try {
      (void)pending_.get();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

GraphDataset ChunkFetcher::next() {
  if (!prefetch_) return next_chunk(stream_, chunk_);
  GraphDataset ready = pending_.get();
  // Don't speculate past the end: an exhausted stream stays untouched.
  if (!ready.empty()) pending_ = launch();
  return ready;
}

std::future<GraphDataset> ChunkFetcher::launch() {
  return std::async(std::launch::async, [this] { return next_chunk(stream_, chunk_); });
}

GraphDataset materialize(GraphStream& stream, const std::string& name) {
  stream.reset();
  std::vector<Graph> graphs;
  std::vector<std::size_t> labels;
  std::vector<std::vector<std::size_t>> vertex_labels;
  bool labeled = false;
  while (auto sample = stream.next()) {
    if (graphs.empty()) labeled = !sample->vertex_labels.empty();
    graphs.push_back(std::move(sample->graph));
    labels.push_back(sample->label);
    if (labeled) vertex_labels.push_back(std::move(sample->vertex_labels));
  }
  GraphDataset dataset(name, std::move(graphs), std::move(labels));
  if (labeled) dataset.set_vertex_labels(std::move(vertex_labels));
  return dataset;
}

std::vector<std::size_t> collect_labels(GraphStream& stream) {
  stream.reset();
  if (auto labels = stream.label_scan(); labels.has_value()) return std::move(*labels);
  std::vector<std::size_t> labels;
  if (const auto hint = stream.size_hint(); hint.has_value()) labels.reserve(*hint);
  while (auto sample = stream.next()) labels.push_back(sample->label);
  stream.reset();
  return labels;
}

// ---------------------------------------------------------------------------
// DatasetStream
// ---------------------------------------------------------------------------

std::optional<StreamSample> DatasetStream::next() {
  if (position_ >= dataset_->size()) return std::nullopt;
  StreamSample sample;
  sample.graph = dataset_->graph(position_);
  sample.label = dataset_->label(position_);
  if (dataset_->has_vertex_labels()) {
    sample.vertex_labels = dataset_->vertex_labels()[position_];
  }
  ++position_;
  return sample;
}

// ---------------------------------------------------------------------------
// GeneratorStream
// ---------------------------------------------------------------------------

GeneratorStream::GeneratorStream(std::size_t count, std::size_t num_classes, std::uint64_t seed,
                                 Factory factory)
    : count_(count), num_classes_(num_classes), seed_(seed), factory_(std::move(factory)) {
  if (num_classes_ == 0) {
    throw std::invalid_argument("GeneratorStream: need at least 1 class");
  }
  if (!factory_) {
    throw std::invalid_argument("GeneratorStream: factory must be callable");
  }
}

std::optional<StreamSample> GeneratorStream::next() {
  if (position_ >= count_) return std::nullopt;
  const std::size_t index = position_++;
  const std::size_t label = index % num_classes_;
  hdc::Rng rng(hdc::derive_seed(seed_, index));
  StreamSample sample;
  sample.graph = factory_(index, label, rng);
  sample.label = label;
  return sample;
}

std::optional<std::vector<std::size_t>> GeneratorStream::label_scan() {
  std::vector<std::size_t> labels(count_);
  for (std::size_t i = 0; i < count_; ++i) labels[i] = i % num_classes_;
  return labels;
}

// ---------------------------------------------------------------------------
// FilteredStream
// ---------------------------------------------------------------------------

FilteredStream::FilteredStream(GraphStream& source, std::vector<bool> keep,
                               std::optional<std::size_t> num_classes)
    : source_(&source), keep_(std::move(keep)) {
  for (std::size_t i = 0; i < keep_.size(); ++i) kept_count_ += keep_[i] ? 1 : 0;
  num_classes_ = num_classes.value_or(source.num_classes());
  if (num_classes_ > source.num_classes()) {
    throw std::invalid_argument(
        "FilteredStream: advertised num_classes exceeds the source's class count");
  }
  reset();
}

void FilteredStream::reset() {
  source_->reset();
  source_position_ = 0;
}

std::optional<StreamSample> FilteredStream::next() {
  while (true) {
    auto sample = source_->next();
    if (!sample.has_value()) return std::nullopt;
    if (source_position_ >= keep_.size()) {
      throw std::runtime_error(
          "FilteredStream: source yielded more samples than the filter mask covers (mask "
          "size " +
          std::to_string(keep_.size()) + ") — the plan was drawn against a different stream");
    }
    const bool kept = keep_[source_position_++];
    if (kept) return sample;
  }
}

std::optional<std::vector<std::size_t>> FilteredStream::label_scan() {
  auto all = source_->label_scan();
  if (!all.has_value()) return std::nullopt;
  if (all->size() > keep_.size()) {
    throw std::runtime_error(
        "FilteredStream: source has more samples than the filter mask covers (mask size " +
        std::to_string(keep_.size()) + ") — the plan was drawn against a different stream");
  }
  std::vector<std::size_t> kept;
  kept.reserve(kept_count_);
  for (std::size_t i = 0; i < all->size(); ++i) {
    if (keep_[i]) kept.push_back((*all)[i]);
  }
  return kept;
}

// ---------------------------------------------------------------------------
// ReplayableStream
// ---------------------------------------------------------------------------

ReplayableStream::ReplayableStream(Opener opener) : opener_(std::move(opener)) {
  if (!opener_) {
    throw std::invalid_argument("ReplayableStream: opener must be callable");
  }
  inner_ = open();
  num_classes_ = inner_->num_classes();
}

std::unique_ptr<GraphStream> ReplayableStream::open() {
  auto stream = opener_();
  if (stream == nullptr) {
    throw std::runtime_error(
        "ReplayableStream: opener returned no stream — the source is not re-openable");
  }
  return stream;
}

void ReplayableStream::reset() {
  auto fresh = open();
  if (fresh->num_classes() != num_classes_) {
    throw std::runtime_error("ReplayableStream: re-opened source changed its class count (" +
                             std::to_string(num_classes_) + " -> " +
                             std::to_string(fresh->num_classes()) + ")");
  }
  inner_ = std::move(fresh);
  inner_->reset();
}

std::optional<StreamSample> ReplayableStream::next() { return inner_->next(); }

std::optional<std::size_t> ReplayableStream::size_hint() const { return inner_->size_hint(); }

std::optional<std::vector<std::size_t>> ReplayableStream::label_scan() {
  return inner_->label_scan();
}

// ---------------------------------------------------------------------------
// ShardedStream
// ---------------------------------------------------------------------------

namespace {

void require_valid_shard(std::size_t shard, std::size_t num_shards) {
  if (num_shards == 0) {
    throw std::invalid_argument("ShardedStream: num_shards must be positive");
  }
  if (shard >= num_shards) {
    throw std::invalid_argument("ShardedStream: shard " + std::to_string(shard) +
                                " out of range for " + std::to_string(num_shards) + " shards");
  }
}

}  // namespace

ShardedStream::ShardedStream(GraphStream& source, std::size_t shard, std::size_t num_shards)
    : source_(&source), shard_(shard), num_shards_(num_shards) {
  require_valid_shard(shard, num_shards);
  reset();
}

ShardedStream::ShardedStream(StreamOpener opener, std::size_t shard, std::size_t num_shards)
    : owned_(std::make_unique<ReplayableStream>(std::move(opener))),
      source_(owned_.get()),
      shard_(shard),
      num_shards_(num_shards) {
  require_valid_shard(shard, num_shards);
  reset();
}

void ShardedStream::reset() {
  source_->reset();
  source_position_ = 0;
}

std::optional<StreamSample> ShardedStream::next() {
  while (true) {
    auto sample = source_->next();
    if (!sample.has_value()) return std::nullopt;
    const bool mine = (source_position_++ % num_shards_) == shard_;
    if (mine) return sample;
  }
}

std::optional<std::size_t> ShardedStream::size_hint() const {
  auto n = source_->size_hint();
  if (!n.has_value()) return std::nullopt;
  // Samples shard_, shard_ + W, shard_ + 2W, ... below *n.
  return *n > shard_ ? (*n - shard_ + num_shards_ - 1) / num_shards_ : 0;
}

std::optional<std::vector<std::size_t>> ShardedStream::label_scan() {
  auto all = source_->label_scan();
  if (!all.has_value()) return std::nullopt;
  std::vector<std::size_t> mine;
  mine.reserve(all->size() / num_shards_ + 1);
  for (std::size_t i = shard_; i < all->size(); i += num_shards_) mine.push_back((*all)[i]);
  return mine;
}

// ---------------------------------------------------------------------------
// TUDatasetStream
// ---------------------------------------------------------------------------

/// Open files plus the one-row lookahead each of them needs.  reset() simply
/// rebuilds the cursor.
struct TUDatasetStream::Cursor {
  Cursor(const fs::path& directory, const std::string& name, bool has_node_labels)
      : indicator(directory / (name + "_graph_indicator.txt")),
        adjacency(directory / (name + "_A.txt")) {
    if (has_node_labels) node_labels.emplace(directory / (name + "_node_labels.txt"));
  }

  /// Past the last graph every file must be exhausted: a row left over
  /// would name a vertex, an edge or a vertex label of no graph.
  void reject_leftover_rows() {
    long long value = 0;
    std::array<long long, 2> edge{};
    if (pending_indicator || indicator.next({&value, 1})) {
      indicator.fail("row past the last graph");
    }
    if (pending_edge || adjacency.next(edge)) adjacency.fail("row past the last graph");
    if (node_labels && node_labels->next({&value, 1})) {
      node_labels->fail("row past the last graph");
    }
  }

  text_io::RowReader indicator;
  text_io::RowReader adjacency;
  std::optional<text_io::RowReader> node_labels;
  /// Lookahead: graph id (1-based) of the next unconsumed indicator row.
  bool pending_indicator = false;
  long long indicator_row = 0;
  /// Lookahead: next unconsumed adjacency row as global 1-based ids.
  bool pending_edge = false;
  std::array<long long, 2> edge_row{};
  /// The current graph's adjacency rows in local ids, reused across graphs.
  std::vector<graph::Edge> edges;
  std::size_t next_graph = 0;          ///< 0-based id of the next graph to emit.
  std::size_t global_vertex_base = 0;  ///< 0-based global id of that graph's vertex 0.
};

TUDatasetStream::TUDatasetStream(const fs::path& directory, const std::string& name)
    : directory_(directory), name_(name) {
  // Graph labels load up front: num_classes() must be known before the first
  // pull, and the densification order is global.
  const auto raw_labels = text_io::read_int_column(directory_ / (name_ + "_graph_labels.txt"));
  std::map<long long, std::size_t> label_map;
  for (const long long l : raw_labels) label_map.emplace(l, 0);
  std::size_t next_label = 0;
  for (auto& [raw, dense] : label_map) dense = next_label++;
  labels_.reserve(raw_labels.size());
  for (const long long l : raw_labels) labels_.push_back(label_map.at(l));
  num_classes_ = label_map.size();

  // Node labels densify by global numeric order, so one cheap value-collect
  // pass runs up front; the per-vertex rows stream later.
  const fs::path node_labels_file = directory_ / (name_ + "_node_labels.txt");
  has_node_labels_ = fs::exists(node_labels_file);
  if (has_node_labels_) node_label_map_keys_ = text_io::read_distinct_column(node_labels_file);
  reset();
}

void TUDatasetStream::reset() {
  cursor_ = std::make_shared<Cursor>(directory_, name_, has_node_labels_);
}

std::optional<StreamSample> TUDatasetStream::next() {
  Cursor& cursor = *cursor_;
  if (cursor.next_graph >= labels_.size()) {
    cursor.reject_leftover_rows();
    return std::nullopt;
  }
  const auto graph_id = static_cast<long long>(cursor.next_graph) + 1;  // 1-based.
  const auto graph_count = static_cast<long long>(labels_.size());

  // 1. Consume this graph's indicator rows (the column must be
  //    non-decreasing — that is what makes single-pass streaming sound).
  std::size_t vertices = 0;
  while (true) {
    if (!cursor.pending_indicator) {
      // EOF: later graphs are empty.
      if (!cursor.indicator.next({&cursor.indicator_row, 1})) break;
      cursor.pending_indicator = true;
    }
    const long long id = cursor.indicator_row;
    if (id < graph_id) {
      cursor.indicator.fail("indicator column is not non-decreasing (graph id " +
                            std::to_string(id) + " after graph " + std::to_string(graph_id) +
                            " started); the streaming reader requires the canonical sorted "
                            "layout — use load_tudataset for arbitrary row orders");
    }
    if (id > graph_count) {
      cursor.indicator.fail("graph id " + std::to_string(id) + " exceeds the label count " +
                            std::to_string(graph_count));
    }
    if (id > graph_id) break;  // belongs to a later graph — keep as lookahead.
    cursor.pending_indicator = false;
    ++vertices;
  }

  // 2. Consume this graph's adjacency rows (grouped-by-graph layout).
  cursor.edges.clear();
  const auto base = static_cast<long long>(cursor.global_vertex_base);
  const long long last = base + static_cast<long long>(vertices);
  while (true) {
    if (!cursor.pending_edge) {
      // EOF: later graphs carry no edges.
      if (!cursor.adjacency.next(cursor.edge_row)) break;
      cursor.pending_edge = true;
    }
    const auto [gi, gj] = cursor.edge_row;
    if (gi < 1 || gj < 1) cursor.adjacency.fail("vertex ids must be >= 1");
    const bool i_here = gi > base && gi <= last;
    const bool j_here = gj > base && gj <= last;
    if (!i_here && !j_here) {
      if (gi <= base || gj <= base) {
        cursor.adjacency.fail("adjacency rows are not grouped by graph (edge " +
                              std::to_string(gi) + ", " + std::to_string(gj) +
                              " references an earlier graph); the streaming reader requires "
                              "the canonical grouped layout — use load_tudataset for "
                              "arbitrary row orders");
      }
      break;  // belongs to a later graph — keep as lookahead.
    }
    if (i_here != j_here) {
      cursor.adjacency.fail("edge " + std::to_string(gi) + ", " + std::to_string(gj) +
                            " crosses a graph boundary");
    }
    cursor.pending_edge = false;
    cursor.edges.push_back({static_cast<graph::VertexId>(gi - 1 - base),
                            static_cast<graph::VertexId>(gj - 1 - base)});
  }

  // Rows list each edge once per direction; the builder merges them.
  graph::GraphBuilder builder(vertices);
  builder.reserve_edges(cursor.edges.size());
  for (const graph::Edge& e : cursor.edges) builder.add_edge(e.u, e.v);
  StreamSample sample;
  sample.graph = builder.build();
  sample.label = labels_[cursor.next_graph];

  // 3. This graph's node-label rows (one per vertex, same global order).
  if (cursor.node_labels) {
    sample.vertex_labels.reserve(vertices);
    long long raw = 0;
    for (std::size_t v = 0; v < vertices; ++v) {
      if (!cursor.node_labels->next({&raw, 1})) {
        cursor.node_labels->fail("fewer node labels than vertices");
      }
      const auto it =
          std::lower_bound(node_label_map_keys_.begin(), node_label_map_keys_.end(), raw);
      if (it == node_label_map_keys_.end() || *it != raw) {
        cursor.node_labels->fail("unexpected node label value " + std::to_string(raw));
      }
      sample.vertex_labels.push_back(static_cast<std::size_t>(it - node_label_map_keys_.begin()));
    }
  }

  cursor.global_vertex_base += vertices;
  ++cursor.next_graph;
  return sample;
}

// ---------------------------------------------------------------------------
// TUDatasetWriter
// ---------------------------------------------------------------------------

TUDatasetWriter::TUDatasetWriter(const fs::path& directory, const std::string& name)
    : directory_(directory), name_(name) {
  fs::create_directories(directory_);
  adjacency_out_.open(directory_ / (name_ + "_A.txt"));
  indicator_out_.open(directory_ / (name_ + "_graph_indicator.txt"));
  labels_out_.open(directory_ / (name_ + "_graph_labels.txt"));
  if (!adjacency_out_ || !indicator_out_ || !labels_out_) {
    throw std::runtime_error("TUDatasetWriter: cannot create files under " +
                             directory_.string());
  }
}

void TUDatasetWriter::append(const Graph& graph, std::size_t label,
                             std::span<const std::size_t> vertex_labels) {
  if (closed_) {
    throw std::logic_error("TUDatasetWriter::append: writer is closed");
  }
  const bool labeled = !vertex_labels.empty();
  if (labeled && vertex_labels.size() != graph.num_vertices()) {
    throw std::invalid_argument("TUDatasetWriter::append: vertex label count mismatch");
  }
  // A zero-vertex graph carries no label rows either way, so only a graph
  // with vertices fixes the labeled mode (or must follow it).
  if (graph.num_vertices() > 0 && !writes_vertex_labels_.has_value()) {
    writes_vertex_labels_ = labeled;
    if (labeled) {
      node_labels_out_.open(directory_ / (name_ + "_node_labels.txt"));
      if (!node_labels_out_) {
        throw std::runtime_error("TUDatasetWriter: cannot create node labels file");
      }
    }
  } else if (graph.num_vertices() > 0 && *writes_vertex_labels_ != labeled) {
    throw std::invalid_argument(
        "TUDatasetWriter::append: vertex labels must come with every graph or none");
  }

  for (std::size_t v = 0; v < graph.num_vertices(); ++v) {
    indicator_out_ << (graphs_written_ + 1) << '\n';
  }
  for (const auto& e : graph.edges()) {
    const std::size_t u = global_vertex_base_ + e.u + 1;
    const std::size_t v = global_vertex_base_ + e.v + 1;
    adjacency_out_ << u << ", " << v << '\n';
    adjacency_out_ << v << ", " << u << '\n';
  }
  labels_out_ << label << '\n';
  for (const std::size_t vertex_label : vertex_labels) {
    node_labels_out_ << vertex_label << '\n';
  }
  global_vertex_base_ += graph.num_vertices();
  ++graphs_written_;
}

void TUDatasetWriter::close() {
  if (closed_) return;
  closed_ = true;
  adjacency_out_.close();
  indicator_out_.close();
  labels_out_.close();
  if (node_labels_out_.is_open()) node_labels_out_.close();
  if (adjacency_out_.fail() || indicator_out_.fail() || labels_out_.fail() ||
      node_labels_out_.fail()) {
    throw std::runtime_error("TUDatasetWriter: stream failure while writing " +
                             (directory_ / name_).string());
  }
}

TUDatasetWriter::~TUDatasetWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; callers wanting the error call close().
  }
}

}  // namespace graphhd::data
