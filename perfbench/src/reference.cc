// The reference store: a fixed adjacency-list graph store that belongs to
// the benchmark, not to the library (see perfbench.h, Reference).

#include <string_view>
#include <unordered_set>

#include "perfbench/src/perfbench.h"

namespace perfbench {

Reference::Reference(const GraphData& data,
                     const gdbmicro::datasets::Workload& picker)
    : picker_(picker) {
  vertices_.resize(data.vertices.size());
  for (size_t i = 0; i < data.vertices.size(); ++i) {
    vertices_[i].label = data.vertices[i].label;
    vertex_index_.emplace(HashKey(i), static_cast<uint32_t>(i));
  }
  edges_.reserve(data.edges.size());
  for (size_t i = 0; i < data.edges.size(); ++i) {
    const GraphData::Edge& e = data.edges[i];
    edges_.push_back({static_cast<uint32_t>(e.src),
                      static_cast<uint32_t>(e.dst), e.label});
    vertices_[e.src].out.push_back(static_cast<uint32_t>(i));
    vertices_[e.dst].in.push_back(static_cast<uint32_t>(i));
    edge_index_.emplace(HashKey(i), static_cast<uint32_t>(i));
  }
}

uint64_t Reference::HashKey(uint64_t index) {
  return index * 0x9E3779B97F4A7C15ull;
}

uint64_t Reference::Run(const Op& op) const {
  const int it = op.iteration;
  const int number = op.spec->number;
  if (number == 15) {
    const Edge& e = edges_[edge_index_.at(HashKey(picker_.ReadEdgeIndex(it)))];
    return e.label.empty() ? 0 : 1;
  }
  const Vertex& v =
      vertices_[vertex_index_.at(HashKey(picker_.ReadVertexIndex(it)))];
  switch (number) {
    case 14:
      return v.label.empty() ? 0 : 1;
    case 22:
    case 23: {
      uint64_t n = 0;
      for (uint32_t e : number == 22 ? v.in : v.out) {
        const Edge& edge = edges_[e];
        n += vertices_[number == 22 ? edge.src : edge.dst].label.empty() ? 0 : 1;
      }
      return n;
    }
    case 24: {
      const std::string label = picker_.EdgeLabel(it);
      uint64_t n = 0;
      for (const std::vector<uint32_t>* list : {&v.out, &v.in}) {
        for (uint32_t e : *list) {
          const Edge& edge = edges_[e];
          if (edge.label != label) continue;
          const uint32_t other = list == &v.out ? edge.dst : edge.src;
          n += vertices_[other].label.empty() ? 0 : 1;
        }
      }
      return n;
    }
    default: {  // 25-27: distinct labels of the in/out/both edges
      std::unordered_set<std::string_view> labels;
      if (number != 26) {
        for (uint32_t e : v.in) labels.insert(edges_[e].label);
      }
      if (number != 25) {
        for (uint32_t e : v.out) labels.insert(edges_[e].label);
      }
      return labels.size();
    }
  }
}

}  // namespace perfbench
