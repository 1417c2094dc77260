#include "net/routing.hpp"

#include <limits>

#include "common/check.hpp"

namespace dfv::net {

const char* to_string(RoutingPolicy p) noexcept {
  switch (p) {
    case RoutingPolicy::Minimal: return "minimal";
    case RoutingPolicy::Valiant: return "valiant";
    case RoutingPolicy::Ugal: return "ugal";
  }
  return "?";
}

double PathChooser::path_cost(const Path& p, std::span<const double> link_rate,
                              bool non_minimal) const {
  double cost = double(p.hops());
  if (non_minimal) cost += params_.valiant_hop_penalty * double(p.hops());
  if (!link_rate.empty()) {
    for (LinkId id : p)
      cost += params_.congestion_weight * link_rate[std::size_t(id)] / topo_->capacity(id);
  }
  return cost;
}

Path PathChooser::sample_minimal(RouterId src, RouterId dst, Rng& rng) const {
  const int copies = std::max(1, topo_->blue_copies());
  const int k = int(rng.uniform_index(std::uint64_t(copies)));
  const auto o1 = rng.bernoulli(0.5) ? IntraOrder::RowFirst : IntraOrder::ColFirst;
  const auto o2 = rng.bernoulli(0.5) ? IntraOrder::RowFirst : IntraOrder::ColFirst;
  return topo_->minimal_path(src, dst, k, o1, o2);
}

Path PathChooser::sample_valiant(RouterId src, RouterId dst, Rng& rng) const {
  const int G = topo_->config().groups;
  const GroupId ga = topo_->group_of(src), gb = topo_->group_of(dst);
  // Draw an intermediate group distinct from both endpoints' groups.
  GroupId via = GroupId(rng.uniform_index(std::uint64_t(G)));
  for (int tries = 0; (via == ga || via == gb) && tries < 8; ++tries)
    via = GroupId(rng.uniform_index(std::uint64_t(G)));
  if (via == ga || via == gb) return sample_minimal(src, dst, rng);
  const int copies = std::max(1, topo_->blue_copies());
  const int k1 = int(rng.uniform_index(std::uint64_t(copies)));
  const int k2 = int(rng.uniform_index(std::uint64_t(copies)));
  const auto order = rng.bernoulli(0.5) ? IntraOrder::RowFirst : IntraOrder::ColFirst;
  return topo_->valiant_path(src, dst, via, k1, k2, order);
}

Path PathChooser::choose(RouterId src, RouterId dst, RoutingPolicy policy,
                         std::span<const double> link_rate, Rng& rng) const {
  DFV_CHECK(src >= 0 && src < topo_->config().num_routers());
  DFV_CHECK(dst >= 0 && dst < topo_->config().num_routers());
  if (src == dst) return {};

  const bool can_valiant = topo_->config().groups > 2 ||
                           (topo_->config().groups == 2 &&
                            topo_->group_of(src) == topo_->group_of(dst));

  switch (policy) {
    case RoutingPolicy::Minimal:
      return sample_minimal(src, dst, rng);
    case RoutingPolicy::Valiant:
      if (!can_valiant) return sample_minimal(src, dst, rng);
      // Intra-group pairs still get a minimal route: Valiant through a
      // remote group for local traffic is not what Cray XC does.
      if (topo_->group_of(src) == topo_->group_of(dst) && topo_->config().groups < 2)
        return sample_minimal(src, dst, rng);
      return sample_valiant(src, dst, rng);
    case RoutingPolicy::Ugal: {
      Path best;
      double best_cost = std::numeric_limits<double>::infinity();
      for (int i = 0; i < params_.minimal_candidates; ++i) {
        Path p = sample_minimal(src, dst, rng);
        const double c = path_cost(p, link_rate, /*non_minimal=*/false);
        if (c < best_cost) {
          best_cost = c;
          best = p;
        }
      }
      if (can_valiant && topo_->group_of(src) != topo_->group_of(dst)) {
        for (int i = 0; i < params_.valiant_candidates; ++i) {
          Path p = sample_valiant(src, dst, rng);
          const double c = path_cost(p, link_rate, /*non_minimal=*/true);
          if (c < best_cost) {
            best_cost = c;
            best = p;
          }
        }
      }
      return best;
    }
  }
  return sample_minimal(src, dst, rng);
}

}  // namespace dfv::net
