// AS-level Internet topology: nodes are autonomous systems with a geographic
// position, a tier, and a cluster (continent) id; links carry propagation
// delays and Gao-Rexford business relationships (customer-provider or
// peer-peer). The routing module computes valley-free policy paths over this
// graph; the delayspace module attaches end hosts to it.
//
// Storage is a flat CSR (compressed sparse row) adjacency, role-segmented
// per node: the entries of node v occupy [offset_[v], offset_[v+1]) in three
// contiguous runs — providers, then customers, then peers — across separate
// structure-of-arrays lanes (neighbor_, delay_ms_, data_delay_ms_). The
// three policy-routing phases each scan exactly one segment with no role
// branch, and role counts are O(1) segment widths instead of per-call scans.
#pragma once

#include <cstdint>
#include <vector>

namespace tiv::topology {

using AsId = std::uint32_t;

enum class Tier : std::uint8_t {
  kTier1,  ///< global transit core; tier-1s peer in a full mesh
  kTier2,  ///< regional providers; customers of tier-1s
  kStub,   ///< edge networks; customers of tier-2s (or tier-1s)
};

enum class LinkKind : std::uint8_t {
  kCustomerProvider,  ///< a pays b for transit (a = customer, b = provider)
  kPeerPeer,          ///< settlement-free peering
};

struct AsNode {
  int cluster = 0;  ///< continent index; kNoiseCluster for unclustered nodes
  Tier tier = Tier::kStub;
  double x = 0.0;  ///< geographic position (abstract units; see generator)
  double y = 0.0;
};

/// Cluster id used for nodes that belong to no major continent cluster
/// (satellite links, isolated islands) — the paper's "noise cluster".
inline constexpr int kNoiseCluster = -1;

struct AsLink {
  AsId a = 0;  ///< customer for kCustomerProvider links
  AsId b = 0;  ///< provider for kCustomerProvider links
  LinkKind kind = LinkKind::kPeerPeer;
  double delay_ms = 0.0;  ///< one-way propagation delay of the link
  /// Congestion/inefficiency multiplier (>= 1). The *experienced* delay of
  /// the link is delay_ms * congestion, but BGP route selection only sees
  /// the propagation delay — real interdomain routing is congestion-
  /// oblivious, which is one of the mechanisms behind severe TIVs.
  double congestion = 1.0;
};

/// How a link looks from one endpoint's perspective.
enum class Role : std::uint8_t { kToProvider, kToCustomer, kToPeer };

/// Immutable AS graph with role-segmented CSR adjacency.
///
/// Invariants (checked by validate()): link endpoints are in range and
/// distinct, delays are positive, the customer-provider relation is acyclic
/// (no AS is, transitively, its own provider), and the CSR arrays are
/// exactly the segment layout the links imply.
class AsGraph {
 public:
  AsGraph(std::vector<AsNode> nodes, std::vector<AsLink> links);

  std::size_t size() const { return nodes_.size(); }
  const AsNode& node(AsId v) const { return nodes_[v]; }
  const std::vector<AsNode>& nodes() const { return nodes_; }
  const std::vector<AsLink>& links() const { return links_; }

  /// One role segment of a node's adjacency: `count` parallel-lane entries.
  /// The batched routing engine consumes these directly; relative order
  /// within a segment is link insertion order (stable across rebuilds).
  struct Segment {
    const AsId* neighbor = nullptr;
    const double* delay_ms = nullptr;
    const double* data_delay_ms = nullptr;
    std::uint32_t count = 0;
  };
  Segment providers(AsId v) const {
    return segment(offset_[v], cust_begin_[v]);
  }
  Segment customers(AsId v) const {
    return segment(cust_begin_[v], peer_begin_[v]);
  }
  Segment peers(AsId v) const { return segment(peer_begin_[v], offset_[v + 1]); }
  /// Every entry of v as one segment (the three role runs are contiguous),
  /// for role-oblivious consumers like the shortest-path engine.
  Segment neighbors(AsId v) const { return segment(offset_[v], offset_[v + 1]); }

  /// Number of links in which v is the customer / provider / a peer.
  /// O(1): segment widths precomputed at build time.
  std::size_t provider_count(AsId v) const {
    return cust_begin_[v] - offset_[v];
  }
  std::size_t customer_count(AsId v) const {
    return peer_begin_[v] - cust_begin_[v];
  }
  std::size_t peer_count(AsId v) const {
    return offset_[v + 1] - peer_begin_[v];
  }
  std::size_t degree(AsId v) const { return offset_[v + 1] - offset_[v]; }

  /// Throws std::logic_error when a structural invariant is broken. Intended
  /// for generator tests; generated graphs always pass.
  void validate() const;

 private:
  Segment segment(std::uint32_t begin, std::uint32_t end) const {
    return {neighbor_.data() + begin, delay_ms_.data() + begin,
            data_delay_ms_.data() + begin, end - begin};
  }

  std::vector<AsNode> nodes_;
  std::vector<AsLink> links_;

  // CSR arrays. Node v's entries are [offset_[v], offset_[v+1]), split as
  //   providers [offset_[v], cust_begin_[v])
  //   customers [cust_begin_[v], peer_begin_[v])
  //   peers     [peer_begin_[v], offset_[v+1])
  std::vector<std::uint32_t> offset_;      ///< size n+1
  std::vector<std::uint32_t> cust_begin_;  ///< size n
  std::vector<std::uint32_t> peer_begin_;  ///< size n
  std::vector<AsId> neighbor_;
  std::vector<double> delay_ms_;
  std::vector<double> data_delay_ms_;
};

}  // namespace tiv::topology
