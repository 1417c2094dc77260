// Golden bit-identity pins for the per-step kernels of campaign
// generation: background routing, the flow max-min transfer, job byte
// accounting, per-job counter aggregation and the LDMS system scan.
//
// Every value is folded into an FNV-1a hash by its exact bit pattern, so
// any change in routing draws, summation order or floating-point
// contraction changes the hex. The constants were recorded before the
// step kernels were made allocation-free; a mismatch means campaign bytes
// moved, not that the constants need re-recording.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/app_model.hpp"
#include "common/integrity.hpp"
#include "common/rng.hpp"
#include "mon/counter_model.hpp"
#include "mon/ldms.hpp"
#include "net/flow_model.hpp"
#include "sched/allocator.hpp"
#include "sched/placement.hpp"
#include "sched/workload.hpp"

namespace dfv {
namespace {

struct Hasher {
  std::uint64_t h = kFnvBasis;
  void add(double v) { h = fnv1a64_update(h, &v, sizeof v); }
  void add(std::int64_t v) { h = fnv1a64_update(h, &v, sizeof v); }
  void add(const std::vector<double>& vs) {
    add(std::int64_t(vs.size()));
    for (double v : vs) add(v);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

void add_transfer(Hasher& hs, const net::TransferResult& r) {
  hs.add(r.makespan);
  hs.add(std::int64_t(r.messages.size()));
  for (const net::RoutedMessage& m : r.messages) {
    hs.add(m.rate);
    hs.add(m.time);
    hs.add(std::int64_t(m.path.hops()));
    for (net::LinkId id : m.path) hs.add(std::int64_t(id));
  }
}

/// A loaded Cori with one MILC-128 step transferred through it.
class StepGolden : public ::testing::Test {
 protected:
  StepGolden()
      : topo_(net::DragonflyConfig::cori()),
        flow_(topo_),
        counters_(topo_),
        io_(mon::make_default_io_routers(topo_, 1)),
        ldms_(counters_, io_) {
    sched::NodeAllocator alloc(topo_);
    Rng rng(20200518);

    // Background: three jobs with different shapes, routed adaptively and
    // accumulated, loading part of the machine past saturation.
    bg_.resize(topo_);
    const struct {
      int nodes;
      sched::BgPattern pattern;
      double net_bps, io_bps;
    } jobs[] = {
        {1024, sched::BgPattern::UniformPairs, 2.0e9, 0.0},
        {512, sched::BgPattern::NearestNeighbor, 3.0e9, 0.0},
        {512, sched::BgPattern::IoHeavy, 0.5e9, 1.0e9},
    };
    for (const auto& j : jobs) {
      const auto placement = sched::make_placement(
          alloc.allocate(j.nodes, sched::AllocPolicy::Clustered, rng), topo_);
      sched::TrafficSpec spec;
      spec.net_bytes_per_node_per_s = j.net_bps;
      spec.io_bytes_per_node_per_s = j.io_bps;
      spec.pattern = j.pattern;
      const auto demands =
          sched::generate_background_demands(placement, spec, io_, topo_, rng);
      flow_.route_background(demands, net::RoutingPolicy::Ugal, 1.0, rng, bg_);
    }

    // One MILC step on 128 nodes, every point-to-point phase transferred
    // against the background with the job's bytes accumulated.
    placement_ = sched::make_placement(
        alloc.allocate(128, sched::AllocPolicy::Clustered, rng), topo_);
    const auto milc = apps::make_milc(128);
    const apps::StepSpec step = milc->step(40, placement_, topo_, rng);
    job_.resize(topo_);
    for (const apps::PhaseSpec& phase : step.phases)
      if (phase.kind == apps::PhaseSpec::Kind::PointToPoint)
        transfers_.push_back(
            flow_.transfer(phase.demands, net::RoutingPolicy::Ugal, bg_, rng, &job_));
    // Edge shapes: chunked multi-megabyte messages, same-router traffic
    // and an empty message.
    const net::RouterId a = placement_.routers.front(), b = placement_.routers.back();
    const std::vector<net::Demand> edges = {
        {a, b, 3.5e6}, {b, a, 9.0e6}, {a, a, 2.0e5}, {b, a, 0.0}, {a, 3000, 1.5e6}};
    transfers_.push_back(flow_.transfer(edges, net::RoutingPolicy::Ugal, bg_, rng, &job_));
    // Cross-group traffic forced through Valiant's longest routes.
    const std::vector<net::Demand> remote = {
        {a, 3000, 4.0e5}, {b, 1500, 2.5e6}, {200, 2900, 7.0e5}, {3100, a, 1.0e5}};
    transfers_.push_back(
        flow_.transfer(remote, net::RoutingPolicy::Valiant, bg_, rng, &job_));
  }

  net::Topology topo_;
  net::FlowModel flow_;
  mon::CounterModel counters_;
  std::vector<net::RouterId> io_;
  mon::LdmsSampler ldms_;
  net::RateLoads bg_;
  sched::Placement placement_;
  net::ByteLoads job_;
  std::vector<net::TransferResult> transfers_;
  static constexpr double kDt = 2.5;
};

TEST_F(StepGolden, BackgroundRatesPinned) {
  Hasher hs;
  hs.add(bg_.link_rate);
  hs.add(bg_.inject_rate);
  hs.add(bg_.eject_rate);
  EXPECT_EQ(hs.hex(), "d8f0b1eabc71c967");
}

TEST_F(StepGolden, TransferPinned) {
  ASSERT_GE(transfers_.size(), 3u);
  Hasher hs;
  for (const auto& t : transfers_) add_transfer(hs, t);
  EXPECT_EQ(hs.hex(), "38f9ee730aacbe87");
}

TEST_F(StepGolden, JobByteLoadsPinned) {
  Hasher hs;
  hs.add(job_.link_bytes);
  hs.add(job_.inject_bytes);
  hs.add(job_.eject_bytes);
  EXPECT_EQ(hs.hex(), "b21fbff01c1a4cc4");
}

TEST_F(StepGolden, CounterAggregatePinned) {
  const mon::CounterVec v = counters_.aggregate(placement_.routers, bg_, job_, kDt);
  Hasher hs;
  for (double x : v) hs.add(x);
  EXPECT_EQ(hs.hex(), "10645e22fc4fd120");
}

TEST_F(StepGolden, LdmsSamplePinned) {
  const mon::LdmsFeatures f = ldms_.sample(bg_, job_, kDt, placement_.routers);
  Hasher hs;
  for (double x : f.io) hs.add(x);
  for (double x : f.sys) hs.add(x);
  EXPECT_EQ(hs.hex(), "e2ccaddc1791ea56");
}

}  // namespace
}  // namespace dfv
