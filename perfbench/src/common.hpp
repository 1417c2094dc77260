// Shared pieces of the perfbench driver: clocks, process probes (peak
// RSS, CPU time), an FNV-1a output digest, the in-memory span tracer, and
// the result record every workload fills. Order statistics come from
// dfv::stats.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/integrity.hpp"
#include "common/stats.hpp"

namespace pb {

using dfv::stats::median;
using dfv::stats::percentile;

using Clock = std::chrono::steady_clock;

[[nodiscard]] double since(Clock::time_point t0);

/// Pins the calling thread to each CPU the process may use, one at a
/// time in turn, and restores the process's CPU mask when destroyed. On a
/// shared VM each vCPU runs at its own, drifting speed; a single-threaded
/// set-up timed on one of them would read that vCPU's speed of the moment.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Move the calling thread to the next CPU.
  void next();
  [[nodiscard]] std::size_t size() const noexcept { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Time `fn` back to back until `budget_s` is spent and at least
/// `min_reps` times, on every CPU in turn and as often on each, appending
/// each duration to `out`; `untimed` runs before each repetition, off the
/// clock. Workloads call it between their passes so that set-up samples
/// span the whole run.
template <class Untimed, class Fn>
void time_repeatedly(std::vector<double>& out, double budget_s, int min_reps, Untimed&& untimed,
                     Fn&& fn) {
  CpuRotation cpus;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < std::size_t(min_reps) || since(start) < budget_s || i % cpus.size() != 0; ++i) {
    cpus.next();
    untimed();
    const auto t0 = Clock::now();
    fn();
    out.push_back(since(t0));
  }
}

template <class Fn>
void time_repeatedly(std::vector<double>& out, double budget_s, int min_reps, Fn&& fn) {
  time_repeatedly(out, budget_s, min_reps, [] {}, fn);
}

/// Highest resident set of the process so far (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();
/// Give the heap's free pages back to the kernel (malloc_trim) and reset
/// the high-water mark to the current resident set (/proc/self/clear_refs),
/// so that peak_rss_mb() then reads the peak of what follows. Returns
/// false when the kernel refuses the reset.
bool reset_peak_rss();
/// Current resident set (VmRSS), in MiB.
[[nodiscard]] double rss_mb();
/// User + system CPU time of the whole process, in seconds.
[[nodiscard]] double process_cpu_s();
/// CPU time of the calling thread, in seconds.
[[nodiscard]] double thread_cpu_s();

/// Incremental FNV-1a 64 over the bytes of the outputs a workload checks.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) { h_ = dfv::fnv1a64_update(h_, p, n); }
  void str(std::string_view s) { u64(s.size()); bytes(s.data(), s.size()); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = dfv::kFnvBasis;
};

/// Spans kept in memory and written as Chrome trace-event JSON at exit.
/// Spans are opened and closed on one thread (the workload's main
/// thread); nesting follows the open stack, which gives each span its
/// parent and lets totals() split duration into self and child time.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  class Span {
   public:
    Span(Tracer* t, int idx) : t_(t), idx_(idx) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    Tracer* t_;
    int idx_;
  };

  /// Open a span; it closes when the returned object is destroyed. A
  /// disabled tracer records nothing.
  [[nodiscard]] Span span(const char* name);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };
  /// Per span name: summed duration, summed self time, span count.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Total seconds of every span named `name` (0 when none).
  [[nodiscard]] double total_s(const std::string& name) const;
  /// What tracing cost this run: the spans recorded times the measured
  /// cost of opening and closing one span on this host. A traced pass
  /// minus an untraced one would carry the host's run-to-run noise,
  /// which is far larger than the cost of a few thousand spans.
  [[nodiscard]] double overhead_s() const;

  void write_chrome_json(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
  };
  void close(int idx);
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Rec> recs_;
  int open_ = -1;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int width = 1;         ///< exec pool lanes
  std::string work_dir;  ///< scratch space for caches and stores
  std::string out_path;  ///< result JSON
  std::string trace_path;
  bool prepare = false;  ///< only build the inputs that are made before timing
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value (0 = one reading)
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< failed self-checks, with the reason
  std::string digest;
  std::vector<Metric> metrics;  ///< end-to-end, under the BENCHMARK.json names
  std::vector<Metric> named;    ///< end-to-end, under the workload's own names
  std::vector<Metric> layers;   ///< per-layer (traced runs)
  std::string extra_json;       ///< workload-specific detail, a JSON value or empty

  /// Record a self-check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);
  void metric(std::string name, double value, std::string unit, std::uint64_t n = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), n});
  }
  void name(std::string name, double value, std::string unit, std::uint64_t n = 0) {
    named.push_back({std::move(name), value, std::move(unit), n});
  }
  void layer(std::string name, double value, std::string unit, std::uint64_t n = 0) {
    layers.push_back({std::move(name), value, std::move(unit), n});
  }
};

[[nodiscard]] std::string json_escape(std::string_view s);
[[nodiscard]] std::string json_number(double v);

Result run_campaign(const Options& o, Tracer& tracer);
Result run_study(const Options& o, Tracer& tracer);
Result run_serve(const Options& o, Tracer& tracer);
Result run_longitudinal(const Options& o, Tracer& tracer);

}  // namespace pb
