// stm_bench: the repository's end-to-end benchmark.
//
//   stm_bench --workload=NAME|all [--seed=N] [--seconds=S] [--trace=FILE]
//             [--json=FILE] [--work-dir=DIR]
//   stm_bench --smoke
//
// Prints a report, one `meta` line, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics. With --trace the workload runs twice, untraced then traced: the
// last line then holds the per-layer metrics, the report adds each layer's
// self time and the tracing overhead, and FILE receives the spans as Chrome
// trace-event JSON. --json appends one full record per run (metadata, all
// metrics) to FILE. --workload=all runs each workload in its own child
// process. Exit status 0 means every correctness check passed.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "setops/simd.hpp"
#include "util/check.hpp"
#include "util/options.hpp"

extern char** environ;

namespace stm::e2e {
namespace {

namespace fs = std::filesystem;

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ",";
    out += quote(m.name) + ":{\"value\":" + num(m.value) +
           ",\"unit\":" + quote(m.unit) + "}";
  }
  return out + "}";
}

bool release_build() {
  const std::string type = STM_BENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
}

std::string meta_json(const std::string& workload, std::uint64_t seed,
                      double seconds, const WorkloadResult& r) {
  std::string params = "{";
  for (const auto& [k, v] : r.params) {
    if (params.size() > 1) params += ",";
    params += quote(k) + ":" + quote(v);
  }
  params += "}";
  return "{\"git_sha\":" + quote(STM_BENCH_GIT_SHA) +
         ",\"build_type\":" + quote(STM_BENCH_BUILD_TYPE) +
         ",\"isa\":" + quote(simd::to_string(simd::active_isa())) +
         ",\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"workload\":" + quote(workload) +
         ",\"seed\":" + std::to_string(seed) + ",\"seconds\":" + num(seconds) +
         ",\"params\":" + params + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

/// Non-finite metric values cannot be printed as JSON numbers; they are a
/// benchmark bug, reported as a failed check.
void check_finite(WorkloadResult& r) {
  for (const auto* list : {&r.end_to_end, &r.per_layer})
    for (const Metric& m : *list)
      if (!std::isfinite(m.value))
        r.errors.push_back("metric " + m.name + " is not finite");
}

/// Restarts the kernel's peak-RSS tracking (VmHWM), so a traced run after an
/// untraced one in the same process reports its own peak. Best effort.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

int run_one(const Workload& w, std::uint64_t seed, double seconds,
            const std::string& trace_path, const std::string& json_path,
            const fs::path& work_dir) {
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);
  RunOptions opts;
  opts.seed = seed;
  opts.seconds = seconds;
  opts.work_dir = work_dir;
  reset_peak_rss();
  WorkloadResult r = w.run(opts);
  const std::vector<Metric> untraced = r.end_to_end;

  if (!trace_path.empty()) {
    Trace trace;
    opts.trace = &trace;
    reset_peak_rss();
    WorkloadResult traced = w.run(opts);
    std::printf("tracing overhead (traced vs untraced run):\n");
    for (std::size_t i = 0; i < untraced.size(); ++i)
      std::printf("  %-32s %14.6g -> %-14.6g %+6.1f%%\n",
                  untraced[i].name.c_str(), untraced[i].value,
                  traced.end_to_end[i].value,
                  100.0 * (traced.end_to_end[i].value / untraced[i].value - 1));
    std::printf("layer time from the trace:\n  %-20s %8s %12s %12s\n", "span",
                "count", "total_ms", "self_ms");
    for (const Trace::LayerTime& lt : trace.layer_times())
      std::printf("  %-20s %8zu %12.3f %12.3f\n", lt.name.c_str(), lt.spans,
                  lt.total_ms, lt.self_ms);
    if (!trace.write_chrome(trace_path,
                            meta_json(w.name, seed, seconds, traced)))
      traced.errors.push_back("cannot write trace file " + trace_path);
    traced.attempted += r.attempted;
    traced.failed += r.failed;
    traced.errors.insert(traced.errors.end(), r.errors.begin(),
                         r.errors.end());
    traced.end_to_end = untraced;
    r = std::move(traced);
  }
  check_finite(r);
  fs::remove_all(work_dir);

  std::printf("== %s (seed %llu, %g s) ==\n", w.name,
              static_cast<unsigned long long>(seed), seconds);
  print_metrics("end-to-end:", r.end_to_end);
  print_metrics("workload metrics:", r.extras);
  if (!trace_path.empty()) print_metrics("per-layer:", r.per_layer);
  if (r.errors.empty()) {
    std::printf("checks: passed (%llu operations)\n",
                static_cast<unsigned long long>(r.attempted));
  } else {
    std::printf("checks: FAILED (%zu errors)\n", r.errors.size());
    for (std::size_t i = 0; i < r.errors.size() && i < 10; ++i)
      std::printf("  %s\n", r.errors[i].c_str());
  }
  const std::string meta = meta_json(w.name, seed, seconds, r);
  std::printf("meta %s\n", meta.c_str());

  const std::string correct = r.errors.empty() ? "true" : "false";
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::app);
    out << "{\"workload\":" << quote(w.name) << ",\"seed\":" << seed
        << ",\"traced\":" << (trace_path.empty() ? "false" : "true")
        << ",\"meta\":" << meta << ",\"correct\":" << correct
        << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
        << ",\"end_to_end\":" << metrics_json(r.end_to_end)
        << ",\"extras\":" << metrics_json(r.extras)
        << ",\"per_layer\":" << metrics_json(r.per_layer) << "}\n";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct.c_str(), static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(trace_path.empty() ? r.end_to_end : r.per_layer)
                  .c_str());
  std::fflush(stdout);
  return r.errors.empty() ? 0 : 1;
}

/// Runs each workload in a child process of this binary, so peak RSS and
/// the library's process-wide caches are per workload.
int run_all(const std::vector<std::string>& shared_args,
            const std::string& trace_path) {
  int status = 0;
  for (const Workload& w : workloads()) {
    std::vector<std::string> args = {"stm_bench",
                                     std::string("--workload=") + w.name};
    args.insert(args.end(), shared_args.begin(), shared_args.end());
    if (!trace_path.empty()) {
      const fs::path p(trace_path);
      args.push_back("--trace=" + (p.parent_path() / (p.stem().string() + "-" +
                                                      w.name +
                                                      p.extension().string()))
                                      .string());
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      std::fprintf(stderr, "stm_bench: cannot spawn %s\n", w.name);
      return 1;
    }
    int child = 0;
    waitpid(pid, &child, 0);
    if (!WIFEXITED(child) || WEXITSTATUS(child) != 0) status = 1;
  }
  return status;
}

/// Syntax check of one JSON document (the smoke test's trace parse).
class JsonSyntax {
 public:
  explicit JsonSyntax(const std::string& s) : s_(s) {}
  bool valid() { return value() && (skip_ws(), i_ == s_.size()); }

 private:
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool value() {
    skip_ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return sequence('{', '}', true);
    if (c == '[') return sequence('[', ']', false);
    if (c == '"') return string();
    for (const char* lit : {"true", "false", "null"})
      if (s_.compare(i_, std::strlen(lit), lit) == 0) {
        i_ += std::strlen(lit);
        return true;
      }
    double v = 0;
    const auto res = std::from_chars(s_.data() + i_, s_.data() + s_.size(), v);
    if (res.ec != std::errc()) return false;
    i_ = static_cast<std::size_t>(res.ptr - s_.data());
    return true;
  }
  bool string() {
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') i_ += s_[i_] == '\\' ? 2 : 1;
    return i_++ < s_.size();
  }
  bool sequence(char open, char close, bool keyed) {
    eat(open);
    if (eat(close)) return true;
    do {
      if (keyed && !(skip_ws(), i_ < s_.size() && s_[i_] == '"' && string() &&
                     eat(':')))
        return false;
      if (!value()) return false;
    } while (eat(','));
    return eat(close);
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// Every workload at toy size with every check on and tracing on, the
/// checker caught on a planted wrong expected count, and each trace parsed.
int smoke(const fs::path& root) {
  bool ok = true;
  const auto fail = [&ok](const std::string& msg) {
    std::fprintf(stderr, "smoke: %s\n", msg.c_str());
    ok = false;
  };
  std::vector<std::string> e2e_names, layer_names;
  for (const Workload& w : workloads()) {
    Trace trace;
    RunOptions opts;
    opts.seconds = 0.2;
    opts.toy = true;
    opts.trace = &trace;
    opts.work_dir = root / w.name;
    fs::create_directories(opts.work_dir);
    const double t0 = now_ms();
    WorkloadResult r = w.run(opts);
    check_finite(r);
    for (const std::string& e : r.errors) fail(std::string(w.name) + ": " + e);
    std::vector<std::string> e2e, layer;
    for (const Metric& m : r.end_to_end) {
      e2e.push_back(m.name);
      if (!(m.value > 0)) fail(std::string(w.name) + ": " + m.name + " is 0");
    }
    for (const Metric& m : r.per_layer) layer.push_back(m.name);
    if (e2e_names.empty()) {
      e2e_names = e2e;
      layer_names = layer;
    }
    if (e2e != e2e_names || layer != layer_names || layer.empty())
      fail(std::string(w.name) + ": metric names differ between workloads");
    const fs::path trace_file = opts.work_dir / "trace.json";
    trace.write_chrome(trace_file, meta_json(w.name, 1, 0.2, r));
    std::ifstream in(trace_file);
    std::stringstream text;
    text << in.rdbuf();
    if (!JsonSyntax(text.str()).valid())
      fail(std::string(w.name) + ": trace is not valid JSON");
    std::printf("smoke: %s ran %llu operations in %.1f s\n", w.name,
                static_cast<unsigned long long>(r.attempted),
                (now_ms() - t0) / 1e3);
  }
  RunOptions corrupt;
  corrupt.seconds = 0.2;
  corrupt.toy = true;
  corrupt.corrupt_expected = true;
  corrupt.work_dir = root / "corrupt";
  fs::create_directories(corrupt.work_dir);
  if (workloads().front().run(corrupt).errors.empty())
    fail("a wrong expected count went unnoticed");
  fs::remove_all(root);
  std::printf("smoke: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int main_impl(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.allow_only(
      {"workload", "seed", "seconds", "trace", "json", "work-dir", "smoke"});
  if (!release_build())
    std::fprintf(stderr,
                 "stm_bench: warning: build type '%s' is neither Release nor "
                 "RelWithDebInfo; timings are not comparable\n",
                 STM_BENCH_BUILD_TYPE);
  const fs::path work_root = opts.get("work-dir", ".");
  const std::string tag = std::to_string(getpid());
  if (opts.get_bool("smoke", false))
    return smoke(work_root / ("stm_bench-smoke-" + tag));

  const std::string workload = opts.get("workload", "all");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const double seconds = opts.get_double("seconds", 10.0);
  STM_CHECK_MSG(seconds > 0.0, "--seconds must be positive");
  const std::string trace_path = opts.get("trace", "");
  const std::string json_path = opts.get("json", "");
  if (workload == "all") {
    std::vector<std::string> shared = {"--seed=" + std::to_string(seed),
                                       "--seconds=" + num(seconds),
                                       "--work-dir=" + work_root.string()};
    if (!json_path.empty()) shared.push_back("--json=" + json_path);
    return run_all(shared, trace_path);
  }
  for (const Workload& w : workloads())
    if (workload == w.name)
      return run_one(w, seed, seconds, trace_path, json_path,
                     work_root / ("stm_bench-" + workload + "-" + tag));
  std::fprintf(stderr, "stm_bench: unknown workload '%s'\n", workload.c_str());
  return 2;
}

}  // namespace
}  // namespace stm::e2e

int main(int argc, char** argv) {
  try {
    return stm::e2e::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stm_bench: error: %s\n", e.what());
    return 2;
  }
}
