#include "mon/ldms.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "exec/exec.hpp"

namespace dfv::mon {

std::vector<net::RouterId> make_default_io_routers(const net::Topology& topo,
                                                   int per_group) {
  DFV_CHECK(per_group >= 1);
  const auto& cfg = topo.config();
  std::vector<net::RouterId> io;
  io.reserve(std::size_t(cfg.groups * per_group));
  for (net::GroupId g = 0; g < cfg.groups; ++g)
    for (int i = 0; i < per_group; ++i) {
      // Spread service routers across rows within the group.
      const int idx = (i * cfg.routers_per_group()) / per_group + cfg.row_size / 2;
      io.push_back(net::RouterId(g * cfg.routers_per_group() +
                                 idx % cfg.routers_per_group()));
    }
  std::sort(io.begin(), io.end());
  io.erase(std::unique(io.begin(), io.end()), io.end());
  return io;
}

LdmsSampler::LdmsSampler(const CounterModel& model, std::vector<net::RouterId> io_routers)
    : model_(&model), io_routers_(std::move(io_routers)) {
  std::sort(io_routers_.begin(), io_routers_.end());
}

LdmsFeatures LdmsSampler::sample(const net::RateLoads& bg, const net::ByteLoads& job,
                                 double dt,
                                 std::span<const net::RouterId> job_routers) const {
  return sample_with_job_counters(bg, job, dt, model_->aggregate(job_routers, bg, job, dt));
}

LdmsFeatures LdmsSampler::sample_with_job_counters(const net::RateLoads& bg,
                                                   const net::ByteLoads& job, double dt,
                                                   const CounterVec& job_counters) const {
  const net::Topology& topo = model_->topology();
  const auto& cfg = topo.config();
  const double flit = cfg.flit_bytes;
  const double cycles = dt * cfg.clock_hz;
  LdmsFeatures f;

  // All four aggregates below are chunked reductions combined in chunk
  // order, so each sum is bit-identical for any thread count.
  using Acc = std::array<double, 4>;
  const auto add4 = [](Acc a, const Acc& b) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
    return a;
  };

  // ---- io aggregate: per-router counters over the I/O router set -------
  const Acc io = exec::parallel_reduce(
      0, io_routers_.size(), 4, Acc{},
      [&](std::size_t lo, std::size_t hi) {
        Acc p{};
        for (std::size_t i = lo; i < hi; ++i) {
          const CounterVec v = model_->router_counters(io_routers_[i], bg, job, dt);
          p[0] += v[size_t(Counter::RT_FLIT_TOT)];
          p[1] += v[size_t(Counter::RT_RB_STL)];
          p[2] += v[size_t(Counter::PT_FLIT_TOT)];
          p[3] += v[size_t(Counter::PT_PKT_TOT)];
        }
        return p;
      },
      add4);
  for (std::size_t i = 0; i < io.size(); ++i) f.io[i] = io[i];

  // ---- sys aggregate: system totals (one pass over links + router
  // endpoint arrays) minus the instrumented job's routers ----------------
  //
  // The link scan visits every directed link each step. Within a chunk it
  // walks the three link-class id ranges (one capacity each) in blocks. A
  // block first gathers the byte totals of its busy links, branch-free
  // and in link order; the per-link terms of those are then computed
  // branch-free and added serially in that order. Idle links are skipped
  // just as a per-link loop would skip them, so each chunk partial is the
  // same left-to-right sum.
  const auto& prm = model_->params();
  const double stall_w = cycles * (prm.in_stall_weight + prm.out_stall_weight);
  const std::size_t L = std::size_t(topo.num_links());
  const std::size_t class_end[3] = {std::size_t(topo.black_base()),
                                    std::size_t(topo.blue_base()), L};
  const Acc link_tot = exec::parallel_reduce(
      0, L, 16384, Acc{},
      [&](std::size_t lo, std::size_t hi) {
        constexpr std::size_t kBlock = 256;
        double busy[kBlock], flits[kBlock], stalls[kBlock];
        Acc p{};
        std::size_t b = lo;
        for (const std::size_t end : class_end) {
          const std::size_t seg_hi = std::min(hi, end);
          if (b >= seg_hi) continue;
          const double cap_dt = topo.capacity(net::LinkId(int(b))) * dt;
          while (b < seg_hi) {
            const std::size_t n = std::min(kBlock, seg_hi - b);
            const double* rate = bg.link_rate.data() + b;
            const double* jb = job.link_bytes.data() + b;
            std::size_t m = 0;
            for (std::size_t j = 0; j < n; ++j) {
              const double bytes = rate[j] * dt + jb[j];
              busy[m] = bytes;
              m += bytes <= 0.0 ? 0 : 1;
            }
            for (std::size_t j = 0; j < m; ++j) {
              flits[j] = busy[j] / flit;
              stalls[j] = stall_w * net::stall_fraction(busy[j] / cap_dt);
            }
            for (std::size_t j = 0; j < m; ++j) {
              p[0] += flits[j];
              p[1] += stalls[j];
            }
            b += n;
          }
        }
        return p;
      },
      add4);
  const double tot_rt_flit = link_tot[0], tot_rt_stl = link_tot[1];
  const std::size_t R = std::size_t(cfg.num_routers());
  const double tot_pt_flit = exec::parallel_reduce(
      0, R, 512, 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double p = 0.0;
        for (std::size_t r = lo; r < hi; ++r)
          p += (bg.inject_rate[r] * dt + job.inject_bytes[r] + bg.eject_rate[r] * dt +
                job.eject_bytes[r]) /
               flit;
        return p;
      },
      [](double a, double b) { return a + b; });

  const double job_rt_flit = job_counters[size_t(Counter::RT_FLIT_TOT)];
  const double job_rt_stl = job_counters[size_t(Counter::RT_RB_STL)];
  const double job_pt_flit = job_counters[size_t(Counter::PT_FLIT_TOT)];

  f.sys[0] = std::max(0.0, tot_rt_flit - job_rt_flit);
  f.sys[1] = std::max(0.0, tot_rt_stl - job_rt_stl);
  f.sys[2] = std::max(0.0, tot_pt_flit - job_pt_flit);
  f.sys[3] = f.sys[2] / cfg.flits_per_packet;
  return f;
}

}  // namespace dfv::mon
