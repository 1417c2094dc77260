#include "net/flow_model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "exec/exec.hpp"

namespace dfv::net {

FlowModel::FlowModel(const Topology& topo, FlowModelParams params)
    : topo_(&topo), params_(params), chooser_(topo, params.routing) {
  DFV_CHECK(params_.capacity_headroom > 0.0 && params_.capacity_headroom <= 1.0);
  DFV_CHECK(params_.min_residual_frac > 0.0 && params_.min_residual_frac < 1.0);
  DFV_CHECK(params_.max_chunks >= 1);
}

namespace {

int chunk_count(double bytes, const FlowModelParams& p) {
  if (bytes <= p.chunk_bytes) return 1;
  const double n = std::ceil(bytes / p.chunk_bytes);
  return int(std::min<double>(n, p.max_chunks));
}

/// Demands per routing wave. Within a wave, paths are chosen in parallel
/// against a frozen load snapshot; the snapshot is refreshed between waves
/// so adaptive routing still reacts to earlier demands. The wave structure
/// (and hence every result) depends only on the input order, never on the
/// thread count.
constexpr std::size_t kRoutingWave = 64;

}  // namespace

void FlowModel::route_background(std::span<const Demand> demands, RoutingPolicy policy,
                                 double dt, Rng& rng, RateLoads& out) const {
  DFV_CHECK(dt > 0.0);
  if (out.link_rate.size() != std::size_t(topo_->num_links())) out.resize(*topo_);
  if (demands.empty()) return;

  // One draw from the caller's stream; each demand routes from its own
  // substream so wave-parallel execution consumes exactly the same random
  // sequence per demand regardless of scheduling.
  const std::uint64_t seed = rng();

  // Chunk routes of one wave, demand by demand: demand i's chunks are
  // wave_paths[slot_off[i - wave_lo] .. slot_off[i - wave_lo + 1]).
  std::vector<std::size_t> slot_off(std::min(kRoutingWave, demands.size()) + 1, 0);
  std::vector<Path> wave_paths;
  const auto routed = [](const Demand& d) { return !(d.bytes <= 0.0) && d.src != d.dst; };
  for (std::size_t wave_lo = 0; wave_lo < demands.size(); wave_lo += kRoutingWave) {
    const std::size_t wave_hi = std::min(wave_lo + kRoutingWave, demands.size());
    for (std::size_t i = wave_lo; i < wave_hi; ++i) {
      const Demand& d = demands[i];
      slot_off[i - wave_lo + 1] =
          slot_off[i - wave_lo] + (routed(d) ? std::size_t(chunk_count(d.bytes, params_)) : 0);
    }
    wave_paths.resize(slot_off[wave_hi - wave_lo]);
    exec::parallel_for(wave_lo, wave_hi, 8, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const Demand& d = demands[i];
        if (!routed(d)) continue;
        Rng dr(exec::substream_seed(seed, i));
        for (std::size_t k = slot_off[i - wave_lo]; k < slot_off[i - wave_lo + 1]; ++k)
          wave_paths[k] = chooser_.choose(d.src, d.dst, policy, out.link_rate, dr);
      }
    });
    // Apply in demand order so accumulation is independent of scheduling.
    for (std::size_t i = wave_lo; i < wave_hi; ++i) {
      const Demand& d = demands[i];
      if (!routed(d)) {
        if (d.src == d.dst && d.bytes > 0.0) {
          // Same-router traffic only touches the processor tiles.
          out.inject_rate[std::size_t(d.src)] += d.bytes / dt;
          out.eject_rate[std::size_t(d.dst)] += d.bytes / dt;
        }
        continue;
      }
      const std::size_t first = slot_off[i - wave_lo], last = slot_off[i - wave_lo + 1];
      const double chunk_rate = d.bytes / dt / double(last - first);
      for (std::size_t k = first; k < last; ++k)
        for (LinkId id : wave_paths[k]) out.link_rate[std::size_t(id)] += chunk_rate;
      out.inject_rate[std::size_t(d.src)] += d.bytes / dt;
      out.eject_rate[std::size_t(d.dst)] += d.bytes / dt;
    }
  }
}

TransferResult FlowModel::transfer(std::span<const Demand> messages, RoutingPolicy policy,
                                   const RateLoads& bg, Rng& rng, ByteLoads* ours) const {
  TransferResult result;
  if (messages.empty()) return result;

  const std::size_t L = std::size_t(topo_->num_links());
  const std::size_t R = std::size_t(topo_->config().num_routers());
  DFV_CHECK_MSG(bg.link_rate.size() == L, "background RateLoads not sized to topology");
  TransferScratch& s = scratch_;

  // Effective load seen by the adaptive path chooser: background plus our
  // own already-routed chunks (estimated as if transferred over ~100 ms).
  s.est_rate.assign(bg.link_rate.begin(), bg.link_rate.end());
  constexpr double kSelfRateDt = 0.1;

  // Skeleton pass: fix the flow decomposition (message -> chunk-flows)
  // before any routing so both the wave structure and the per-message RNG
  // substreams are functions of the input alone.
  result.messages.resize(messages.size());
  s.msg_flow.resize(messages.size() + 1);
  s.flow_msg.clear();
  s.flow_bytes.clear();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Demand& d = messages[i];
    result.messages[i].demand = d;
    s.msg_flow[i] = s.flow_msg.size();
    if (d.bytes <= 0.0) continue;
    const int chunks = d.src == d.dst ? 1 : chunk_count(d.bytes, params_);
    const double chunk_bytes = d.bytes / double(chunks);
    for (int c = 0; c < chunks; ++c) {
      s.flow_msg.push_back(i);
      s.flow_bytes.push_back(chunk_bytes);
    }
    if (ours != nullptr) {
      ours->inject_bytes[std::size_t(d.src)] += d.bytes;
      ours->eject_bytes[std::size_t(d.dst)] += d.bytes;
    }
  }
  const std::size_t F = s.flow_msg.size();
  s.msg_flow[messages.size()] = F;
  s.flow_path.assign(F, Path{});

  // Dense-index the touched resources in first-touch (flow) order via an
  // epoch-stamped lookup table: no O(refs log refs) sort, no O(L+2R) clear
  // per call. `refs` flattens each flow's route links, then its source's
  // injection and its destination's ejection, as dense ids.
  if (s.res_stamp.size() != L + 2 * R) {
    s.res_stamp.assign(L + 2 * R, 0);
    s.res_dense.assign(L + 2 * R, 0);
    s.res_epoch = 0;
  }
  if (++s.res_epoch == 0) {  // epoch wrapped: invalidate all stamps
    std::fill(s.res_stamp.begin(), s.res_stamp.end(), 0u);
    s.res_epoch = 1;
  }
  s.used.clear();
  s.refs.clear();
  s.flow_off.resize(F + 1);
  const auto touch = [&s](std::size_t r) {
    if (s.res_stamp[r] != s.res_epoch) {
      s.res_stamp[r] = s.res_epoch;
      s.res_dense[r] = std::uint32_t(s.used.size());
      s.used.push_back(r);
    }
    s.refs.push_back(s.res_dense[r]);
  };

  // Wave-parallel routing. One draw seeds per-message substreams; each
  // message routes its chunks sequentially from its own stream against the
  // load snapshot frozen at the wave boundary, so results are bit-identical
  // for any thread count. Self-load (est_rate), byte accounting and the
  // dense indexing are applied serially in flow order between waves.
  const std::uint64_t phase_seed = rng();
  for (std::size_t wave_lo = 0; wave_lo < messages.size(); wave_lo += kRoutingWave) {
    const std::size_t wave_hi = std::min(wave_lo + kRoutingWave, messages.size());
    exec::parallel_for(wave_lo, wave_hi, 8, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const Demand& d = messages[i];
        if (d.bytes <= 0.0 || d.src == d.dst) continue;
        Rng mr(exec::substream_seed(phase_seed, i));
        for (std::size_t fi = s.msg_flow[i]; fi < s.msg_flow[i + 1]; ++fi)
          s.flow_path[fi] = chooser_.choose(d.src, d.dst, policy, s.est_rate, mr);
        result.messages[i].path = s.flow_path[s.msg_flow[i]];
      }
    });
    for (std::size_t fi = s.msg_flow[wave_lo]; fi < s.msg_flow[wave_hi]; ++fi) {
      const double bytes = s.flow_bytes[fi];
      s.flow_off[fi] = std::uint32_t(s.refs.size());
      for (LinkId id : s.flow_path[fi]) {
        s.est_rate[std::size_t(id)] += bytes / kSelfRateDt;
        if (ours != nullptr) ours->link_bytes[std::size_t(id)] += bytes;
        touch(std::size_t(id));
      }
      const Demand& d = messages[s.flow_msg[fi]];
      touch(L + std::size_t(d.src));
      touch(L + R + std::size_t(d.dst));
    }
  }
  s.flow_off[F] = std::uint32_t(s.refs.size());
  const std::size_t U = s.used.size();

  // Inverted adjacency (resource -> flows crossing it) by counting sort;
  // per-resource flow lists come out in ascending flow order. The counts
  // are also each resource's number of unfrozen flows.
  s.radj_off.assign(U + 1, 0);
  for (std::uint32_t id : s.refs) ++s.radj_off[id + 1];
  s.nflows.resize(U);
  for (std::size_t u = 0; u < U; ++u) s.nflows[u] = int(s.radj_off[u + 1]);
  for (std::size_t u = 0; u < U; ++u) s.radj_off[u + 1] += s.radj_off[u];
  s.radj_items.resize(s.refs.size());
  s.cursor.assign(s.radj_off.begin(), s.radj_off.end() - 1);
  for (std::size_t fi = 0; fi < F; ++fi)
    for (std::uint32_t k = s.flow_off[fi]; k < s.flow_off[fi + 1]; ++k)
      s.radj_items[s.cursor[s.refs[k]]++] = std::uint32_t(fi);

  // Residual capacities after background traffic, floored so saturated
  // resources drain slowly instead of deadlocking the solve.
  s.residual.resize(U);
  const double ep_bw = topo_->config().endpoint_bw;
  for (std::size_t u = 0; u < U; ++u) {
    const std::size_t e = s.used[u];
    double cap, bg_rate;
    if (e < L) {
      cap = topo_->capacity(LinkId(e));
      bg_rate = bg.link_rate[e];
    } else if (e < L + R) {
      cap = ep_bw;
      bg_rate = bg.inject_rate[e - L];
    } else {
      cap = ep_bw;
      bg_rate = bg.eject_rate[e - L - R];
    }
    s.residual[u] = std::max(cap * params_.capacity_headroom - bg_rate,
                             cap * params_.min_residual_frac);
  }

  // Progressive-filling max-min fairness with a lazy min-heap over
  // (residual/nflows, resource). Water-filling shares are non-decreasing,
  // so a popped entry is either current (freeze its flows) or stale
  // (re-push the recomputed share). The pop cap guards pathological
  // inputs; stragglers fall back to a per-flow bottleneck approximation.
  // The heap holds at most one entry per resource and entries compare as
  // (share, id) pairs, so the pop sequence is the same whatever the heap
  // layout: it is built in one pass.
  using HeapEntry = std::pair<double, std::uint32_t>;
  const auto heap_push = [&s](HeapEntry e) {
    s.heap.push_back(e);
    std::push_heap(s.heap.begin(), s.heap.end(), std::greater<HeapEntry>{});
  };
  s.flow_rate.assign(F, 0.0);
  s.done.assign(F, 0);
  s.heap.clear();
  std::size_t remaining = F;
  for (std::size_t u = 0; u < U; ++u)
    if (s.nflows[u] > 0)
      s.heap.emplace_back(s.residual[u] / double(s.nflows[u]), std::uint32_t(u));
  std::make_heap(s.heap.begin(), s.heap.end(), std::greater<HeapEntry>{});
  std::size_t pops = 0;
  const std::size_t pop_cap = 64 * U + s.refs.size() + 1024;
  while (remaining > 0 && !s.heap.empty() && pops++ < pop_cap) {
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<HeapEntry>{});
    const auto [share, u] = s.heap.back();
    s.heap.pop_back();
    if (s.nflows[u] <= 0) continue;
    const double cur = s.residual[u] / double(s.nflows[u]);
    if (cur != share) {
      heap_push({cur, u});
      continue;
    }
    DFV_CHECK(std::isfinite(share));
    for (std::uint32_t k = s.radj_off[u]; k < s.radj_off[u + 1]; ++k) {
      const std::uint32_t fi = s.radj_items[k];
      if (s.done[fi]) continue;
      s.flow_rate[fi] = share;
      s.done[fi] = 1;
      --remaining;
      for (std::uint32_t kk = s.flow_off[fi]; kk < s.flow_off[fi + 1]; ++kk) {
        s.residual[s.refs[kk]] -= share;
        --s.nflows[s.refs[kk]];
      }
    }
  }
  if (remaining > 0) {
    for (std::size_t fi = 0; fi < F; ++fi) {
      if (s.done[fi]) continue;
      double share = std::numeric_limits<double>::infinity();
      for (std::uint32_t k = s.flow_off[fi]; k < s.flow_off[fi + 1]; ++k) {
        const std::uint32_t u = s.refs[k];
        if (s.nflows[u] > 0) share = std::min(share, s.residual[u] / double(s.nflows[u]));
      }
      s.flow_rate[fi] = std::isfinite(share) ? std::max(share, 1.0) : 1.0;
    }
  }

  // Message completion time: max over its chunk flows.
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (s.msg_flow[i] == s.msg_flow[i + 1]) continue;
    RoutedMessage& m = result.messages[i];
    const double latency =
        m.path.empty() ? 2.0e-7 : topo_->path_latency(m.path) + 2.0e-7;
    for (std::size_t fi = s.msg_flow[i]; fi < s.msg_flow[i + 1]; ++fi) {
      const double rate = s.flow_rate[fi];
      const double t = latency + s.flow_bytes[fi] / std::max(rate, 1.0);
      m.time = std::max(m.time, t);
      m.rate = m.rate == 0.0 ? rate : std::min(m.rate, rate);
    }
  }
  for (const RoutedMessage& m : result.messages)
    result.makespan = std::max(result.makespan, m.time);
  return result;
}

double FlowModel::congestion_factor(std::span<const RouterId> job_routers,
                                    const RateLoads& bg) const {
  if (job_routers.empty() || bg.link_rate.empty()) return 1.0;
  double util_sum = 0.0, stall_sum = 0.0, max_stall = 0.0;
  std::size_t n = 0;
  for (RouterId r : job_routers) {
    for (LinkId id : topo_->out_links(r)) {
      const double u = bg.link_rate[std::size_t(id)] / topo_->capacity(id);
      const double sf = stall_fraction(u);
      util_sum += std::min(u, 1.5);
      stall_sum += sf;
      max_stall = std::max(max_stall, sf);
      ++n;
    }
  }
  if (n == 0) return 1.0;
  const double mean_util = util_sum / double(n);
  const double mean_stall = stall_sum / double(n);
  // Mean terms capture diffuse congestion; the max term captures one hot
  // link on the job's routers (adaptive routing dilutes but does not hide
  // it, §II-A).
  return 1.0 + 1.0 * mean_util + 2.0 * mean_stall + 0.08 * max_stall;
}

}  // namespace dfv::net
