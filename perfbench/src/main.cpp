// perfbench: runs one named workload of the benchmark and writes its
// result record as JSON.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --width W --work-dir DIR --out FILE [--trace-out FILE]
//             [--prepare]
//
// perfbench/run.py builds this binary, calls it (with --prepare first for
// the workloads whose inputs are made before timing), checks the output
// digest against the committed references, and prints the final line.
#include <sys/utsname.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/log.hpp"
#include "exec/exec.hpp"

namespace {

using namespace pb;

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") o.workload = next();
    else if (arg == "--seed") o.seed = std::stoull(next());
    else if (arg == "--seconds") o.seconds = std::stod(next());
    else if (arg == "--trace") o.trace = std::stoi(next()) != 0;
    else if (arg == "--width") o.width = std::stoi(next());
    else if (arg == "--work-dir") o.work_dir = next();
    else if (arg == "--out") o.out_path = next();
    else if (arg == "--trace-out") o.trace_path = next();
    else if (arg == "--prepare") o.prepare = true;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (o.workload.empty() || o.work_dir.empty() || (o.out_path.empty() && !o.prepare))
    throw std::invalid_argument("--workload, --work-dir and --out are required");
  if (o.seconds <= 0.0 || o.width < 1) throw std::invalid_argument("bad --seconds or --width");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

void write_metrics(std::ostream& out, const char* key, const std::vector<Metric>& ms) {
  out << ",\"" << key << "\":{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    out << (i ? "," : "") << "\"" << json_escape(ms[i].name)
        << "\":{\"value\":" << json_number(ms[i].value) << ",\"unit\":\""
        << json_escape(ms[i].unit) << "\",\"samples\":" << ms[i].samples << "}";
  out << "}";
}

void write_result(const Options& o, const Result& r, const Tracer& tracer) {
  std::ofstream out(o.out_path);
  if (!out) throw std::runtime_error("cannot write " + o.out_path);
  utsname u{};
  uname(&u);
  out << "{\"workload\":\"" << json_escape(o.workload) << "\",\"seed\":" << o.seed
      << ",\"seconds\":" << json_number(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"context\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":\"" << json_escape(cpu_model()) << "\",\"kernel\":\""
      << json_escape(u.release) << "\",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER)
      << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"pool_width\":" << o.width
      << "},\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"digest\":\"" << r.digest << "\",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    out << (i ? "," : "") << "\"" << json_escape(r.failures[i]) << "\"";
  out << "]";
  write_metrics(out, "metrics", r.metrics);
  write_metrics(out, "named", r.named);
  write_metrics(out, "layers", r.layers);
  out << ",\"spans\":{";
  bool first = true;
  for (const auto& [name, t] : tracer.totals()) {
    out << (first ? "" : ",") << "\"" << json_escape(name) << "\":{\"total_s\":"
        << json_number(t.total_s) << ",\"self_s\":" << json_number(t.self_s)
        << ",\"count\":" << t.count << "}";
    first = false;
  }
  out << "},\"detail\":" << (r.extra_json.empty() ? "null" : r.extra_json) << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    dfv::set_log_level(dfv::LogLevel::Warn);
    dfv::exec::ThreadPool::instance().resize(o.width);
    std::filesystem::create_directories(o.work_dir);

    const std::map<std::string, Result (*)(const Options&, Tracer&)> workloads = {
        {"campaign", run_campaign},
        {"study", run_study},
        {"serve", run_serve},
        {"longitudinal", run_longitudinal},
    };
    const auto it = workloads.find(o.workload);
    if (it == workloads.end()) throw std::invalid_argument("unknown workload " + o.workload);
    Tracer tracer(o.trace);
    Result r = it->second(o, tracer);
    if (o.prepare) return 0;
    const bool has_rss = std::any_of(r.metrics.begin(), r.metrics.end(),
                                     [](const Metric& m) { return m.name == "peak_rss_mb"; });
    if (!o.trace && !has_rss) {
      r.metric("peak_rss_mb", peak_rss_mb(), "MB");
      r.name("peak_rss_mb", peak_rss_mb(), "MB");
    }
    if (o.trace) r.layer("trace.overhead_s", tracer.overhead_s(), "s");
    if (o.trace && !o.trace_path.empty()) tracer.write_chrome_json(o.trace_path);
    write_result(o, r, tracer);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
