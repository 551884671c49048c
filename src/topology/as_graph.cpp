#include "topology/as_graph.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace tiv::topology {
namespace {

/// The directed half-entries a link contributes: (node, role) twice.
struct HalfEntry {
  AsId node;
  Role role;
};

std::pair<HalfEntry, HalfEntry> link_halves(const AsLink& l) {
  if (l.kind == LinkKind::kCustomerProvider) {
    return {{l.a, Role::kToProvider}, {l.b, Role::kToCustomer}};
  }
  return {{l.a, Role::kToPeer}, {l.b, Role::kToPeer}};
}

}  // namespace

AsGraph::AsGraph(std::vector<AsNode> nodes, std::vector<AsLink> links)
    : nodes_(std::move(nodes)), links_(std::move(links)) {
  const obs::Span span("graph-build");
  const std::size_t n = nodes_.size();

  // Pass 1: per-(node, role) counts. Also the only place endpoints are
  // range-checked, before any array is sized from them.
  std::vector<std::uint32_t> prov_count(n, 0);
  std::vector<std::uint32_t> cust_count(n, 0);
  std::vector<std::uint32_t> peer_count(n, 0);
  for (const AsLink& l : links_) {
    if (l.a >= n || l.b >= n) {
      throw std::out_of_range("AsGraph: link endpoint out of range");
    }
    const auto [ha, hb] = link_halves(l);
    for (const HalfEntry& h : {ha, hb}) {
      switch (h.role) {
        case Role::kToProvider:
          ++prov_count[h.node];
          break;
        case Role::kToCustomer:
          ++cust_count[h.node];
          break;
        case Role::kToPeer:
          ++peer_count[h.node];
          break;
      }
    }
  }

  // Segment boundaries: providers, customers, peers contiguous per node.
  offset_.resize(n + 1);
  cust_begin_.resize(n);
  peer_begin_.resize(n);
  std::uint32_t at = 0;
  for (std::size_t v = 0; v < n; ++v) {
    offset_[v] = at;
    cust_begin_[v] = at + prov_count[v];
    peer_begin_[v] = cust_begin_[v] + cust_count[v];
    at = peer_begin_[v] + peer_count[v];
  }
  offset_[n] = at;

  // Pass 2: stable fill (within a segment, entries keep link order — the
  // seed's push_back order).
  neighbor_.resize(at);
  delay_ms_.resize(at);
  data_delay_ms_.resize(at);
  std::vector<std::uint32_t> cursor_prov(offset_.begin(), offset_.end() - 1);
  std::vector<std::uint32_t> cursor_cust = cust_begin_;
  std::vector<std::uint32_t> cursor_peer = peer_begin_;
  for (const AsLink& l : links_) {
    const double data = l.delay_ms * l.congestion;
    const auto [ha, hb] = link_halves(l);
    const AsId other[2] = {l.b, l.a};
    const HalfEntry halves[2] = {ha, hb};
    for (int side = 0; side < 2; ++side) {
      const HalfEntry& h = halves[side];
      std::uint32_t* cursor = nullptr;
      switch (h.role) {
        case Role::kToProvider:
          cursor = &cursor_prov[h.node];
          break;
        case Role::kToCustomer:
          cursor = &cursor_cust[h.node];
          break;
        case Role::kToPeer:
          cursor = &cursor_peer[h.node];
          break;
      }
      const std::uint32_t slot = (*cursor)++;
      neighbor_[slot] = other[side];
      delay_ms_[slot] = l.delay_ms;
      data_delay_ms_[slot] = data;
    }
  }
}

void AsGraph::validate() const {
  const std::size_t n = nodes_.size();
  for (const AsLink& l : links_) {
    if (l.a == l.b) throw std::logic_error("AsGraph: self link");
    if (!(l.delay_ms > 0)) {
      throw std::logic_error("AsGraph: non-positive link delay");
    }
    if (!(l.congestion >= 1.0)) {
      throw std::logic_error("AsGraph: congestion multiplier below 1");
    }
  }

  // CSR segment invariants: boundaries monotone and in range, total entry
  // count = two per link, and the arrays byte-for-byte what the links imply
  // (a rebuild must reproduce them — catches any drift between links_ and
  // the packed lanes).
  if (offset_.size() != n + 1 || cust_begin_.size() != n ||
      peer_begin_.size() != n) {
    throw std::logic_error("AsGraph: CSR index arrays have wrong size");
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (offset_[v] > cust_begin_[v] || cust_begin_[v] > peer_begin_[v] ||
        peer_begin_[v] > offset_[v + 1]) {
      throw std::logic_error("AsGraph: CSR segment boundaries not monotone");
    }
  }
  if (offset_[n] != 2 * links_.size() || neighbor_.size() != offset_[n] ||
      delay_ms_.size() != offset_[n] || data_delay_ms_.size() != offset_[n]) {
    throw std::logic_error("AsGraph: CSR entry count mismatch");
  }
  {
    const AsGraph rebuilt(nodes_, links_);
    if (rebuilt.offset_ != offset_ || rebuilt.cust_begin_ != cust_begin_ ||
        rebuilt.peer_begin_ != peer_begin_ ||
        rebuilt.neighbor_ != neighbor_ || rebuilt.delay_ms_ != delay_ms_ ||
        rebuilt.data_delay_ms_ != data_delay_ms_) {
      throw std::logic_error(
          "AsGraph: CSR arrays disagree with the link list");
    }
  }

  // Customer-provider acyclicity via iterative DFS coloring over
  // customer->provider edges (the provider segment of each node).
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(n, kWhite);
  for (AsId start = 0; start < n; ++start) {
    if (color[start] != kWhite) continue;
    // Stack holds (node, next provider-segment index to explore).
    std::vector<std::pair<AsId, std::uint32_t>> stack{{start, 0}};
    color[start] = kGray;
    while (!stack.empty()) {
      auto& [v, idx] = stack.back();
      const Segment prov = providers(v);
      bool descended = false;
      while (idx < prov.count) {
        const AsId w = prov.neighbor[idx++];
        if (color[w] == kGray) {
          throw std::logic_error(
              "AsGraph: customer-provider cycle involving AS " +
              std::to_string(w));
        }
        if (color[w] == kWhite) {
          color[w] = kGray;
          stack.emplace_back(w, 0);
          descended = true;
          break;
        }
      }
      if (!descended) {
        color[v] = kBlack;
        stack.pop_back();
      }
    }
  }
}

}  // namespace tiv::topology
