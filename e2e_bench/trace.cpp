#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "bench.hpp"

namespace stm::e2e {

double now_ms() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double, std::milli>(clock::now() - origin)
      .count();
}

std::uint64_t Trace::next_op() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_op_++;
}

int Trace::add(std::string name, double start_ms, double end_ms,
               std::uint64_t op, int tid, int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  if (parent >= 0) {
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    start_ms = std::clamp(start_ms, p.start_ms, p.end_ms);
    end_ms = std::clamp(end_ms, start_ms, p.end_ms);
  }
  end_ms = std::max(end_ms, start_ms);
  spans_.push_back({std::move(name), start_ms, end_ms, op, parent, tid});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Trace::LayerTime> Trace::layer_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                                s.end_ms);
  std::map<std::string, LayerTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : kids) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    LayerTime& lt = by_name[s.name];
    lt.name = s.name;
    ++lt.spans;
    lt.total_ms += s.end_ms - s.start_ms;
    lt.self_ms += std::max(0.0, s.end_ms - s.start_ms - covered);
  }
  std::vector<LayerTime> out;
  for (auto& [name, lt] : by_name) out.push_back(lt);
  return out;
}

bool Trace::write_chrome(const std::filesystem::path& path,
                         const std::string& other_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\n",
               other_json.c_str());
  std::fprintf(f, "\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::size_t dot = s.name.find('.');
    const std::string cat =
        dot == std::string::npos ? "op" : s.name.substr(0, dot);
    const char* parent =
        s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name.c_str()
                      : "";
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"op\":%llu,"
                 "\"parent\":\"%s\"}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), cat.c_str(),
                 s.start_ms * 1e3, (s.end_ms - s.start_ms) * 1e3, s.tid,
                 static_cast<unsigned long long>(s.op), parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace stm::e2e
