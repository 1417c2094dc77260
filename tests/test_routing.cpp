#include "net/routing.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dfv::net {
namespace {

class RoutingTest : public ::testing::Test {
 protected:
  RoutingTest() : topo_(DragonflyConfig::small(4)), chooser_(topo_) {}
  Topology topo_;
  PathChooser chooser_;
  Rng rng_{77};
};

TEST_F(RoutingTest, SameRouterYieldsEmptyPath) {
  const Path p = chooser_.choose(5, 5, RoutingPolicy::Ugal, {}, rng_);
  EXPECT_EQ(p.hops(), 0u);
}

TEST_F(RoutingTest, MinimalPolicyPathsAreMinimal) {
  const int R = topo_.config().num_routers();
  for (int trial = 0; trial < 200; ++trial) {
    const auto src = RouterId(rng_.uniform_index(R));
    const auto dst = RouterId(rng_.uniform_index(R));
    const Path p = chooser_.choose(src, dst, RoutingPolicy::Minimal, {}, rng_);
    ASSERT_TRUE(topo_.path_connects(p, src, dst));
    EXPECT_LE(p.hops(), topo_.group_of(src) == topo_.group_of(dst) ? 2u : 5u);
  }
}

TEST_F(RoutingTest, ValiantInterGroupUsesTwoBlueHops) {
  // Pick an inter-group pair.
  const RouterId src = 0;
  const RouterId dst = topo_.router_at(2, 1, 1);
  int blue_hops_seen = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const Path p = chooser_.choose(src, dst, RoutingPolicy::Valiant, {}, rng_);
    ASSERT_TRUE(topo_.path_connects(p, src, dst));
    int blue = 0;
    for (LinkId id : p)
      if (topo_.link(id).type == LinkType::Blue) ++blue;
    blue_hops_seen = std::max(blue_hops_seen, blue);
    EXPECT_LE(blue, 2);
  }
  EXPECT_EQ(blue_hops_seen, 2);  // valiant detours exist
}

TEST_F(RoutingTest, UgalOnIdleNetworkStaysMinimal) {
  std::vector<double> idle(std::size_t(topo_.num_links()), 0.0);
  const RouterId src = 0;
  const RouterId dst = topo_.router_at(3, 2, 3);
  for (int trial = 0; trial < 100; ++trial) {
    const Path p = chooser_.choose(src, dst, RoutingPolicy::Ugal, idle, rng_);
    EXPECT_LE(p.hops(), 5u) << "UGAL took a non-minimal path on an idle network";
  }
}

TEST_F(RoutingTest, UgalAvoidsCongestedMinimalRoute) {
  // Saturate every blue link between groups 0 and 1; UGAL should detour
  // through another group most of the time.
  std::vector<double> load(std::size_t(topo_.num_links()), 0.0);
  for (int k = 0; k < topo_.blue_copies(); ++k) {
    const LinkId direct = topo_.blue_link(0, 1, k);
    load[std::size_t(direct)] = topo_.link(direct).capacity * 10.0;
  }
  const RouterId src = 0;
  const RouterId dst = topo_.router_at(1, 1, 2);
  int detours = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    const Path p = chooser_.choose(src, dst, RoutingPolicy::Ugal, load, rng_);
    ASSERT_TRUE(topo_.path_connects(p, src, dst));
    bool used_direct = false;
    for (LinkId id : p) {
      const LinkInfo& li = topo_.link(id);
      if (li.type == LinkType::Blue && topo_.group_of(li.from) == 0 &&
          topo_.group_of(li.to) == 1)
        used_direct = true;
    }
    if (!used_direct) ++detours;
  }
  EXPECT_GT(detours, trials / 2);
}

TEST_F(RoutingTest, PathCostIncreasesWithLoad) {
  const Path p = topo_.minimal_path(0, topo_.router_at(2, 0, 0), 0);
  std::vector<double> idle(std::size_t(topo_.num_links()), 0.0);
  std::vector<double> busy(std::size_t(topo_.num_links()), 0.0);
  for (LinkId id : p) busy[std::size_t(id)] = topo_.link(id).capacity;
  EXPECT_GT(chooser_.path_cost(p, busy, false), chooser_.path_cost(p, idle, false));
}

TEST_F(RoutingTest, NonMinimalPenaltyApplied) {
  const Path p = topo_.minimal_path(0, topo_.router_at(2, 0, 0), 0);
  std::vector<double> idle(std::size_t(topo_.num_links()), 0.0);
  EXPECT_GT(chooser_.path_cost(p, idle, true), chooser_.path_cost(p, idle, false));
}

TEST_F(RoutingTest, BoundsCheckedOnRouterIds) {
  EXPECT_THROW((void)chooser_.choose(-1, 3, RoutingPolicy::Minimal, {}, rng_),
               ContractError);
  EXPECT_THROW((void)chooser_.choose(0, topo_.config().num_routers(),
                                     RoutingPolicy::Minimal, {}, rng_),
               ContractError);
}

TEST(RoutingNames, ToString) {
  EXPECT_STREQ(to_string(RoutingPolicy::Minimal), "minimal");
  EXPECT_STREQ(to_string(RoutingPolicy::Valiant), "valiant");
  EXPECT_STREQ(to_string(RoutingPolicy::Ugal), "ugal");
}

}  // namespace
}  // namespace dfv::net
