// Flow-level congestion model.
//
// This is the fast network engine used for campaign generation: instead
// of simulating every flit, it (a) routes each demand along a policy-
// chosen path, (b) computes max-min fair bandwidth shares for the
// instrumented job's messages given the residual capacity left by
// background traffic, and (c) reports per-link byte totals from which
// the monitoring layer derives Aries-style counters. The packet-level
// DES in packet_sim.hpp validates its qualitative behavior.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/routing.hpp"
#include "net/traffic.hpp"

namespace dfv::net {

/// One message of the instrumented job after routing and rate solving.
struct RoutedMessage {
  Demand demand;
  Path path;
  double rate = 0.0;  ///< max-min fair bandwidth share [bytes/s]
  double time = 0.0;  ///< completion time = latency + bytes / rate [s]
};

/// Result of transferring a set of messages in one communication phase.
struct TransferResult {
  std::vector<RoutedMessage> messages;
  double makespan = 0.0;  ///< max completion time over all messages
};

struct FlowModelParams {
  RoutingParams routing;
  /// Fraction of nominal capacity available to payload (protocol overhead).
  double capacity_headroom = 0.95;
  /// Floor on residual capacity as a fraction of nominal capacity: even a
  /// saturated link drains slowly rather than stalling forever.
  double min_residual_frac = 0.04;
  /// Messages larger than this are split into up to `max_chunks` chunks
  /// routed independently (adaptive routing sprays large transfers).
  double chunk_bytes = 1.0e6;
  int max_chunks = 4;
};

/// Utilization -> stall-cycles-per-cycle shape: queueing-style growth that
/// stays near zero below ~60% utilization and explodes as u -> 1.
/// Exposed so the monitoring layer and tests share one definition; inline
/// because the LDMS scan evaluates it for every directed link each step.
[[nodiscard]] inline double stall_fraction(double utilization) noexcept {
  // Queueing-style growth: negligible below ~40% utilization, steep near
  // saturation. The value is "stall cycles per cycle" aggregated over the
  // VCs of a tile, so it may exceed 1; clamp to keep counters finite when
  // demand far exceeds capacity.
  const double u = std::min(utilization, 1.2);
  const double s = std::max(0.0, u - 0.15);
  return std::min(6.0, s * s / std::max(0.05, 1.02 - u));
}

class FlowModel {
 public:
  explicit FlowModel(const Topology& topo, FlowModelParams params = {});

  [[nodiscard]] const Topology& topology() const noexcept { return *topo_; }
  [[nodiscard]] const FlowModelParams& params() const noexcept { return params_; }

  /// Route sustained background demands (bytes over an interval of `dt`
  /// seconds) and accumulate the resulting rates into `out`.
  void route_background(std::span<const Demand> demands, RoutingPolicy policy, double dt,
                        Rng& rng, RateLoads& out) const;

  /// Route and rate-solve one communication phase of the instrumented job
  /// against background load `bg`. If `ours` is non-null, the job's own
  /// byte totals are accumulated there (for counter accounting).
  [[nodiscard]] TransferResult transfer(std::span<const Demand> messages,
                                        RoutingPolicy policy, const RateLoads& bg,
                                        Rng& rng, ByteLoads* ours = nullptr) const;

  /// Scalar congestion multiplier (>= 1) summarizing how loaded the links
  /// around `job_routers` are; used for collective (allreduce/barrier)
  /// latency scaling where per-message routing would be overkill.
  [[nodiscard]] double congestion_factor(std::span<const RouterId> job_routers,
                                         const RateLoads& bg) const;

 private:
  const Topology* topo_;
  FlowModelParams params_;
  PathChooser chooser_;
  /// Per-call arrays of transfer(), kept across calls so that a phase
  /// allocates nothing once they have grown to its size. Chunk-flows are
  /// structure-of-arrays indexed by flow id; a resource is a link id, then
  /// L+r (router r's injection) or L+R+r (its ejection), dense-indexed in
  /// first-touch order.
  struct TransferScratch {
    std::vector<double> est_rate;            ///< background + self load seen by routing
    std::vector<std::size_t> msg_flow;       ///< message i owns flows [msg_flow[i], msg_flow[i+1])
    std::vector<std::size_t> flow_msg;       ///< flow -> message
    std::vector<double> flow_bytes;
    std::vector<double> flow_rate;
    std::vector<Path> flow_path;             ///< chunk route (empty for same-router traffic)
    std::vector<std::uint32_t> flow_off;     ///< flow -> its slice of refs
    std::vector<std::uint32_t> refs;         ///< dense resource ids, flow by flow
    std::vector<std::size_t> used;           ///< dense id -> resource
    std::vector<double> residual;
    std::vector<int> nflows;
    std::vector<std::uint32_t> radj_off;     ///< dense id -> its slice of radj_items
    std::vector<std::uint32_t> radj_items;   ///< flows crossing each resource
    std::vector<std::uint32_t> cursor;
    std::vector<char> done;
    std::vector<std::pair<double, std::uint32_t>> heap;  ///< (share, dense id) min-heap
    std::vector<std::uint32_t> res_stamp;    ///< resource -> epoch of last touch
    std::vector<std::uint32_t> res_dense;    ///< resource -> dense id (valid if stamped)
    std::uint32_t res_epoch = 0;
  };
  /// Because of this scratch, FlowModel is not safe for concurrent
  /// transfer() calls on one instance; transfer() itself parallelizes
  /// internally via dfv::exec.
  mutable TransferScratch scratch_;
};

}  // namespace dfv::net
