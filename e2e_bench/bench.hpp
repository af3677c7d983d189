// Shared declarations of the end-to-end benchmark (stm_bench).
//
// A workload builds its inputs from a seed, drives a GraphSession through its
// public API for a fixed wall-clock budget, checks every output, and returns
// its end-to-end metrics. A traced run additionally records one span per
// public call (plus child spans placed from the durations the results report)
// and fills the per-layer metrics. README.md is the metric glossary.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace stm::e2e {

/// Wall-clock ms since process start (steady clock); the one time base of
/// every latency and span the benchmark records.
double now_ms();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// In-memory span recorder. Spans stay in memory until the run ends, then
/// are written as Chrome trace-event JSON (loads in Perfetto).
class Trace {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::uint64_t op = 0;  // id of the public call the span belongs to
    int parent = -1;       // index of the parent span, -1 for a root
    int tid = 0;           // client thread
  };

  /// Allocates the id of one public call.
  std::uint64_t next_op();
  /// Records a span and returns its index (the parent of later children).
  /// Children are clamped into their parent's interval.
  int add(std::string name, double start_ms, double end_ms, std::uint64_t op,
          int tid, int parent = -1);

  /// Per span name: total duration and self time (duration minus the part
  /// of the interval its children cover), in ms, sorted by name.
  struct LayerTime {
    std::string name;
    std::size_t spans = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<LayerTime> layer_times() const;

  /// Writes {"traceEvents": [...], "otherData": {...}}; `other_json` is a
  /// JSON object literal. Returns false when the file cannot be written.
  bool write_chrome(const std::filesystem::path& path,
                    const std::string& other_json) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_op_ = 1;
};

/// Options of one workload run.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Smoke sizes: tiny graphs, the same code paths and checks.
  bool toy = false;
  /// Smoke self-test of the checker: one expected count is off by one, so a
  /// correct run must be reported incorrect.
  bool corrupt_expected = false;
  /// State directories, spill files and WAL probes live here.
  std::filesystem::path work_dir;
  /// Non-null: record spans and fill WorkloadResult::per_layer.
  Trace* trace = nullptr;
};

struct WorkloadResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Workload-specific numbers under their own names (query_qps,
  /// update_p99_ms, drain_emb_per_s, ...); printed and kept in --json.
  std::vector<Metric> extras;
  /// Workload parameters, recorded as run metadata.
  std::vector<std::pair<std::string, std::string>> params;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness failures; empty means every check passed.
  std::vector<std::string> errors;
};

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunOptions&);
};

/// The four workloads, in BENCHMARK.json order (README.md says why each
/// exists). Every workload reports the same end-to-end and per-layer metric
/// names.
const std::vector<Workload>& workloads();

}  // namespace stm::e2e
