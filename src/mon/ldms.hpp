// LDMS-style system-wide monitoring.
//
// On Cori, LDMS samples counters on *all* routers once per second
// (~5 TB/day). The analyses only consume two aggregates derived from it
// (§IV-C / Fig. 10):
//   io  — counters of routers whose nodes serve the filesystem (I/O nodes)
//   sys — counters of routers sharing no nodes with the instrumented job
#pragma once

#include <array>
#include <span>
#include <vector>

#include "mon/counter_model.hpp"

namespace dfv::mon {

/// The 4+4 aggregate features exposed to the forecasting models.
struct LdmsFeatures {
  std::array<double, kNumIoFeatures> io{};    ///< IO_RT_FLIT_TOT, IO_RT_RB_STL, IO_PT_FLIT_TOT, IO_PT_PKT_TOT
  std::array<double, kNumSysFeatures> sys{};  ///< SYS_* equivalents over non-job routers
};

/// Pick the default I/O router set: `per_group` routers per group
/// (deterministic, spread over rows) playing the role of service/LNET
/// routers that front the filesystem.
[[nodiscard]] std::vector<net::RouterId> make_default_io_routers(const net::Topology& topo,
                                                                 int per_group = 1);

class LdmsSampler {
 public:
  LdmsSampler(const CounterModel& model, std::vector<net::RouterId> io_routers);

  /// Aggregate features over one interval. `job_routers` must be sorted
  /// (they are excluded from the sys aggregate).
  [[nodiscard]] LdmsFeatures sample(const net::RateLoads& bg, const net::ByteLoads& job,
                                    double dt,
                                    std::span<const net::RouterId> job_routers) const;

  /// The same, given `job_counters` = CounterModel::aggregate over the
  /// job's routers for this interval (which a campaign step records
  /// anyway), so those routers are not synthesized a second time.
  [[nodiscard]] LdmsFeatures sample_with_job_counters(const net::RateLoads& bg,
                                                      const net::ByteLoads& job, double dt,
                                                      const CounterVec& job_counters) const;

  [[nodiscard]] const std::vector<net::RouterId>& io_routers() const noexcept {
    return io_routers_;
  }

 private:
  const CounterModel* model_;
  std::vector<net::RouterId> io_routers_;
};

}  // namespace dfv::mon
