#include "common.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pb {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size()));
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_kb("VmHWM") / 1024.0; }
double rss_mb() { return status_kb("VmRSS") / 1024.0; }

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5\n";
  return out.good();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  if (cpus_.empty()) cpus_.push_back(-1);  // mask unknown: do not pin
}

CpuRotation::~CpuRotation() {
  if (cpus_.front() < 0) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int c : cpus_) CPU_SET(c, &mask);
  (void)sched_setaffinity(0, sizeof mask, &mask);
}

void CpuRotation::next() {
  const int cpu = cpus_[next_++ % cpus_.size()];
  if (cpu < 0) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  (void)sched_setaffinity(0, sizeof mask, &mask);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

Tracer::Span Tracer::span(const char* name) {
  if (!enabled_) return Span(nullptr, -1);
  recs_.push_back(Rec{name, now_ns(), -1, open_});
  open_ = int(recs_.size()) - 1;
  return Span(this, open_);
}

Tracer::Span::~Span() {
  if (t_) t_->close(idx_);
}

void Tracer::close(int idx) {
  recs_[std::size_t(idx)].end_ns = now_ns();
  open_ = recs_[std::size_t(idx)].parent;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(recs_.size(), 0);
  for (const Rec& r : recs_)
    if (r.parent >= 0) child_ns[std::size_t(r.parent)] += r.end_ns - r.begin_ns;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const std::int64_t dur = recs_[i].end_ns - recs_[i].begin_ns;
    Totals& t = out[recs_[i].name];
    t.total_s += 1e-9 * double(dur);
    t.self_s += 1e-9 * double(dur - child_ns[i]);
    ++t.count;
  }
  return out;
}

double Tracer::total_s(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : it->second.total_s;
}

double Tracer::overhead_s() const {
  if (recs_.empty()) return 0.0;
  // Open and close spans on a scratch tracer, one level deep as most
  // spans are, in batches; the median batch gives the cost of one.
  constexpr int kBatches = 7;
  constexpr int kSpans = 20'000;
  std::vector<double> per_span;
  for (int b = 0; b < kBatches; ++b) {
    Tracer scratch(true);
    auto parent = scratch.span("calibrate");
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) auto s = scratch.span("calibrate.span");
    per_span.push_back(since(t0) / kSpans);
  }
  return median(per_span) * double(recs_.size());
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(r.name)
        << "\",\"cat\":\"" << json_escape(r.name.substr(0, r.name.find('.')))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json_number(1e-3 * double(r.begin_ns))
        << ",\"dur\":" << json_number(1e-3 * double(r.end_ns - r.begin_ns))
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
  }
  out << "\n]}\n";
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace pb
