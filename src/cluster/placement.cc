#include "cluster/placement.h"

#include <algorithm>

namespace apollo::cluster {

namespace {

// SplitMix64 finisher: spreads FNV's weak low bits across the word so
// vnode points land uniformly on the ring.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t PlacementHash(std::string_view key) {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a 64 offset basis
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return Mix(h);
}

PlacementRing::PlacementRing(const std::vector<std::string>& nodes) {
  node_names_ = nodes;
  std::sort(node_names_.begin(), node_names_.end());
  node_names_.erase(std::unique(node_names_.begin(), node_names_.end()),
                    node_names_.end());
  ring_.reserve(node_names_.size() * kPlacementVnodes);
  for (std::uint32_t n = 0; n < node_names_.size(); ++n) {
    std::uint64_t h = PlacementHash(node_names_[n]);
    for (std::uint32_t v = 0; v < kPlacementVnodes; ++v) {
      // Derive each vnode point from the previous by mixing: cheap, stable,
      // and independent of how many vnodes other nodes use.
      h = Mix(h + v + 1);
      ring_.push_back(Point{h, n});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    return a.node < b.node;
  });
}

std::vector<std::string> PlacementRing::ReplicasFor(std::string_view topic,
                                                    std::uint32_t rf) const {
  return ReplicasFor(topic, rf, [](const std::string&) { return true; });
}

std::vector<std::string> PlacementRing::ReplicasFor(
    std::string_view topic, std::uint32_t rf,
    const std::function<bool(const std::string&)>& eligible) const {
  std::vector<std::string> out;
  if (ring_.empty() || rf == 0) return out;
  const std::uint64_t h = PlacementHash(topic);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const Point& p, std::uint64_t v) { return p.hash < v; });
  std::vector<bool> seen(node_names_.size(), false);
  for (std::size_t step = 0; step < ring_.size() && out.size() < rf; ++step) {
    if (it == ring_.end()) it = ring_.begin();
    if (!seen[it->node]) {
      seen[it->node] = true;
      if (eligible(node_names_[it->node])) {
        out.push_back(node_names_[it->node]);
      }
    }
    ++it;
  }
  return out;
}

}  // namespace apollo::cluster
