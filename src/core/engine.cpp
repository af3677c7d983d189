#include "core/engine.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <queue>

#include "core/fault.hpp"
#include "pattern/matching_order.hpp"
#include "setops/multi_set_op.hpp"
#include "util/check.hpp"

namespace stm {

namespace {

/// Work migrated by a steal: the frozen stack prefix plus the split
/// iteration range at the entry level (paper Fig. 5 divide-and-copy).
struct StackSnapshot {
  std::uint32_t entry_level = 0;
  std::array<VertexId, kMaxPatternSize> matched{};
  std::int64_t iter = 0;
  std::int64_t limit = 0;
  std::vector<VertexId> c0;  // when entry_level == 0
  /// (node id, value) pairs: the candidate set of entry_level and every
  /// carried intermediate set (paper §VII: "copy all the intermediate sets
  /// that are used by sets after target_level").
  std::vector<std::pair<std::int16_t, std::vector<VertexId>>> node_values;
  std::uint64_t elements = 0;  // copy-cost basis
};

/// A failed warp's entire stack frame, captured before the failing step
/// mutated it. Restoring it into an idle warp resumes the enumeration at
/// exactly the interrupted step: completed subtrees are not redone and the
/// dead warp's already-committed count is kept, so recovery is exact.
struct FullFrame {
  int level = 0;
  std::vector<VertexId> c0;
  std::vector<std::vector<std::vector<VertexId>>> values;
  std::array<std::int64_t, kMaxPatternSize> iter{};
  std::array<std::int64_t, kMaxPatternSize> limit{};
  std::array<std::int32_t, kMaxPatternSize> ucol{};
  std::array<std::int32_t, kMaxPatternSize> num_cols{};
  std::array<VertexId, kMaxPatternSize> matched{};
  std::array<std::vector<VertexId>, kMaxPatternSize> col_choice;
  std::array<std::vector<bool>, kMaxPatternSize> col_valid;
  std::uint64_t elements = 0;  // copy-cost basis
};

/// Work lost to an injected fault, queued for re-execution: either a full
/// frame (warp abort, slab-allocation failure) or a migrating steal snapshot
/// lost in transit. Carries the lineage's failure count; exceeding the
/// per-unit budget fails the whole run with kInternalError.
struct RecoveryUnit {
  std::uint32_t attempts = 0;
  std::optional<FullFrame> frame;
  std::optional<StackSnapshot> split;
};

struct WarpState {
  std::uint32_t id = 0;
  std::uint32_t block = 0;
  std::uint32_t lane_in_block = 0;

  std::uint64_t clock = 0;  // virtual time
  std::uint64_t busy = 0;
  std::uint64_t count = 0;
  bool done = false;
  bool idle = false;

  int level = -1;  // -1: needs work
  std::vector<VertexId> c0;
  /// values[node][column]: materialized set contents.
  std::vector<std::vector<std::vector<VertexId>>> values;
  std::array<std::int64_t, kMaxPatternSize> iter{};
  std::array<std::int64_t, kMaxPatternSize> limit{};
  std::array<std::int32_t, kMaxPatternSize> ucol{};
  std::array<std::int32_t, kMaxPatternSize> num_cols{};
  std::array<VertexId, kMaxPatternSize> matched{};
  /// col_choice[l][m] / col_valid[l][m]: the level-(l-1) choice behind
  /// column m of level l, and whether it passed the descend-time filters.
  std::array<std::vector<VertexId>, kMaxPatternSize> col_choice;
  std::array<std::vector<bool>, kMaxPatternSize> col_valid;

  WarpOpCost ops;
  std::uint64_t sets_built = 0;
  std::uint64_t local_steals = 0;
  std::uint64_t global_steals = 0;
  std::uint64_t chunks = 0;
  std::uint32_t push_throttle = 0;
  /// Active steps executed; key basis for fault-injection decisions.
  std::uint64_t steps = 0;
  /// Failures accumulated by the work lineage this warp is running (nonzero
  /// only after adopting a recovery unit).
  std::uint32_t unit_attempts = 0;
};

class StackEngine {
 public:
  StackEngine(GraphView g, const MatchingPlan& plan, const EngineConfig& cfg,
              const CancelToken* cancel, EmbeddingSink* sink,
              OuterRange range)
      : g_(g), plan_(plan), cfg_(cfg), range_(range), poller_(cancel),
        sink_(sink), k_(plan.size()), simd_(simd::kernels()) {
    cfg_.device.validate();
    STM_CHECK(cfg_.unroll >= 1 && cfg_.unroll <= kWarpWidth);
    STM_CHECK(cfg_.stop_level >= 1);
    STM_CHECK(cfg_.chunk_size >= 1);
    STM_CHECK_MSG(!plan_.pattern().is_labeled() || g_.is_labeled(),
                  "labeled pattern requires a labeled data graph");
    shared_per_warp_ = stmatch_shared_bytes_per_warp(plan_.num_nodes(),
                                                     cfg_.unroll, k_);
    STM_CHECK_MSG(
        shared_per_warp_ * cfg_.device.warps_per_block <=
            cfg_.device.shared_mem_bytes,
        "thread block exceeds shared memory: "
            << shared_per_warp_ * cfg_.device.warps_per_block << " > "
            << cfg_.device.shared_mem_bytes
            << " bytes (reduce unroll or warps_per_block)");
    STM_CHECK(range_.stride >= 1);
    const VertexId range_end =
        (range_.end == 0) ? g_.num_vertices()
                          : std::min<VertexId>(range_.end, g_.num_vertices());
    // The outer loop walks virtual indices i -> begin + i * stride.
    v_cursor_ = 0;
    v_end_ = (range_end > range_.begin)
                 ? (range_end - range_.begin + range_.stride - 1) /
                       range_.stride
                 : 0;
    if (cfg_.fault.enabled()) injector_.emplace(cfg_.fault);
    build_carry_sets();
  }

  MatchResult run();

 private:
  using HeapEntry = std::pair<std::uint64_t, std::uint32_t>;  // clock, warp id

  // --- setup -------------------------------------------------------------
  void build_carry_sets() {
    // carry_[t]: nodes whose value must migrate with a steal at entry level
    // t — materialized at or before t and still referenced after t.
    carry_.resize(k_);
    const auto& nodes = plan_.nodes();
    for (std::size_t t = 0; t < k_; ++t) {
      std::vector<bool> needed(nodes.size(), false);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].dep >= 0 && nodes[i].mat_level > t)
          needed[static_cast<std::size_t>(nodes[i].dep)] = true;
      }
      // Candidate sets of levels >= t (including t itself: the split range
      // iterates it); the mat_level filter below keeps only those that are
      // already materialized at the split point.
      for (std::size_t l = std::max<std::size_t>(t, 1); l < k_; ++l)
        needed[static_cast<std::size_t>(plan_.candidate_node(l))] = true;
      for (std::size_t i = 0; i < nodes.size(); ++i)
        if (needed[i] && nodes[i].mat_level <= t)
          carry_[t].push_back(static_cast<std::int16_t>(i));
    }
  }

  void charge(WarpState& w, std::uint64_t cycles) {
    w.clock += cycles;
    w.busy += cycles;
  }

  const std::vector<VertexId>& cand_at(WarpState& w, std::size_t l) {
    if (l == 0) return w.c0;
    const auto node = static_cast<std::size_t>(plan_.candidate_node(l));
    // A candidate set shared across levels (code motion, e.g. star leaves)
    // lives in the unroll column of the level that materialized it.
    const auto col = static_cast<std::size_t>(
        w.ucol[plan_.nodes()[node].mat_level]);
    return w.values[node][col];
  }

  LabelFilter filter_for(std::uint64_t mask) const {
    if (!g_.is_labeled() || mask == ~0ULL) return LabelFilter{};
    return LabelFilter{g_.labels_data(), mask};
  }

  /// Injectivity + symmetry-order filters for choosing v_l (labels are
  /// already enforced by the candidate set's mask).
  bool choice_ok(const WarpState& w, std::size_t l, VertexId v) const {
    for (std::size_t j = 0; j < l; ++j)
      if (w.matched[j] == v) return false;
    for (std::uint8_t smaller : plan_.constraints_at(l))
      if (w.matched[smaller] >= v) return false;
    return true;
  }

  // --- descend: materialize entry sets for the next level -----------------
  /// Expands choices iter[l]..iter[l]+U-1 of level l and materializes all
  /// set nodes of entry level l+1, one fused multi-set op per node
  /// (paper Fig. 7 line 9 + Fig. 8). Returns the number of choice slots
  /// consumed.
  std::int32_t materialize_entry(WarpState& w, std::size_t l) {
    const auto& cand = cand_at(w, l);
    const std::size_t entry = l + 1;
    const auto ncols = static_cast<std::int32_t>(
        std::min<std::int64_t>(cfg_.unroll, w.limit[l] - w.iter[l]));
    auto& choices = w.col_choice[entry];
    auto& valid = w.col_valid[entry];
    choices.assign(static_cast<std::size_t>(ncols), 0);
    valid.assign(static_cast<std::size_t>(ncols), false);
    for (std::int32_t m = 0; m < ncols; ++m) {
      const VertexId v = cand[static_cast<std::size_t>(w.iter[l] + m)];
      choices[static_cast<std::size_t>(m)] = v;
      valid[static_cast<std::size_t>(m)] = choice_ok(w, l, v);
    }

    const auto& nodes = plan_.nodes();
    for (std::int16_t id : plan_.nodes_at_entry(entry)) {
      const SetNode& node = nodes[static_cast<std::size_t>(id)];
      ++w.sets_built;
      auto& cols = w.values[static_cast<std::size_t>(id)];
      const LabelFilter filter = filter_for(node.label_mask);
      // Operand vertex per column: the fresh choice if the op references
      // v_l, otherwise an already-matched ancestor (same for all columns).
      auto operand = [&](std::int32_t m) -> VertexId {
        return node.op.vertex == l ? choices[static_cast<std::size_t>(m)]
                                   : w.matched[node.op.vertex];
      };
      if (node.dep < 0) {
        // Fused filtered copies of U neighbor lists.
        WarpOpCost copy_cost;
        for (std::int32_t m = 0; m < ncols; ++m) {
          auto& out = cols[static_cast<std::size_t>(m)];
          if (!valid[static_cast<std::size_t>(m)]) {
            out.clear();
            continue;
          }
          filtered_copy(g_.neighbors(operand(m)), filter, out, &copy_cost);
        }
        // Re-fuse wave accounting: back-to-back copies share warp waves.
        WarpOpCost fused;
        fused.busy_lane_slots = copy_cost.busy_lane_slots;
        fused.elements_written = copy_cost.elements_written;
        fused.waves = (copy_cost.busy_lane_slots + kWarpWidth - 1) / kWarpWidth;
        fused.probe_cycles = fused.waves;
        w.ops += fused;
        charge(w, cfg_.cost.set_op_cycles(fused));
      } else {
        const SetNode& dep = nodes[static_cast<std::size_t>(node.dep)];
        std::vector<SetOpTask> tasks;
        tasks.reserve(static_cast<std::size_t>(ncols));
        for (std::int32_t m = 0; m < ncols; ++m) {
          auto& out = cols[static_cast<std::size_t>(m)];
          if (!valid[static_cast<std::size_t>(m)]) {
            out.clear();
            continue;
          }
          // The dep's column: same unrolled column when materialized at this
          // entry, else the active column of its own level.
          const auto dep_col =
              (dep.mat_level == entry)
                  ? m
                  : w.ucol[dep.mat_level];
          const auto& source = w.values[static_cast<std::size_t>(node.dep)]
                                        [static_cast<std::size_t>(dep_col)];
          tasks.push_back(SetOpTask{source, g_.neighbors(operand(m)),
                                    node.op.kind, filter, &out});
        }
        WarpOpCost op_cost;
        combined_set_op(simd_, tasks, &op_cost);
        w.ops += op_cost;
        charge(w, cfg_.cost.set_op_cycles(op_cost));
      }
    }
    return ncols;
  }

  /// Descend into an interior level.
  void descend(WarpState& w, std::size_t l) {
    const std::size_t entry = l + 1;
    w.num_cols[entry] = materialize_entry(w, l);
    w.ucol[entry] = -1;
    w.level = static_cast<int>(entry);
    if (!next_column(w, entry)) {
      // All choices invalid: bounce straight back.
      w.iter[l] += w.num_cols[entry];
      w.level = static_cast<int>(l);
    }
  }

  /// Advance to the next valid column of `l`; updates matched[l-1] and the
  /// iteration window. Returns false when all columns are consumed.
  bool next_column(WarpState& w, std::size_t l) {
    while (++w.ucol[l] < w.num_cols[l]) {
      const auto m = static_cast<std::size_t>(w.ucol[l]);
      if (!w.col_valid[l][m]) continue;
      w.matched[l - 1] = w.col_choice[l][m];
      w.iter[l] = 0;
      w.limit[l] = static_cast<std::int64_t>(cand_at(w, l).size());
      return true;
    }
    return false;
  }

  /// Expand level k-2 and count matches in the fused last-level candidate
  /// sets (paper Fig. 3 line 15: subgraphs are output at the last level).
  void descend_and_count(WarpState& w, std::size_t l) {
    const std::size_t entry = l + 1;  // == k_ - 1
    const auto ncols = materialize_entry(w, l);
    const auto cand_node =
        static_cast<std::size_t>(plan_.candidate_node(entry));
    const auto cand_mat_level = plan_.nodes()[cand_node].mat_level;
    WarpOpCost scan;
    for (std::int32_t m = 0; m < ncols; ++m) {
      if (!w.col_valid[entry][static_cast<std::size_t>(m)]) continue;
      w.matched[l] = w.col_choice[entry][static_cast<std::size_t>(m)];
      const auto col = (cand_mat_level == entry)
                           ? static_cast<std::size_t>(m)
                           : static_cast<std::size_t>(w.ucol[cand_mat_level]);
      const auto& set = w.values[cand_node][col];
      for (VertexId v : set) {
        if (!choice_ok(w, entry, v)) continue;
        ++w.count;
        if (emit_active_) stage_embedding(w, v);
      }
      scan.busy_lane_slots += set.size();
    }
    scan.waves = (scan.busy_lane_slots + kWarpWidth - 1) / kWarpWidth;
    scan.probe_cycles = scan.waves;
    w.ops += scan;
    charge(w, cfg_.cost.set_op_cycles(scan));
    w.iter[l] += ncols;
    w.num_cols[entry] = 0;
  }

  // --- embedding emission --------------------------------------------------
  std::uint64_t idx_of(VertexId v) const {
    return (v - range_.begin) / range_.stride;
  }

  /// Stages a matched embedding into its outer-index bucket. `w.matched[0..
  /// k-2]` holds the prefix; `v` is the last-level choice.
  void stage_embedding(const WarpState& w, VertexId v) {
    Embedding e(k_);
    for (std::size_t i = 0; i + 1 < k_; ++i) e[i] = w.matched[i];
    e[k_ - 1] = v;
    emit_buckets_[idx_of(w.matched[0])].push_back(std::move(e));
  }

  /// Smallest outer virtual index a live unit can still emit into, derived
  /// from the unit's frozen level-0 window: while any deeper work is in
  /// flight, iter[0] still points at the window start, so c0[iter[0]] lower-
  /// bounds every future matched[0] of the unit. Units carrying no level-0
  /// range (steal entry >= 1, anchored frames) are pinned to matched[0].
  template <typename Unit>
  std::uint64_t unit_min_index(const Unit& u) const {
    if (u.level < 0) return ~std::uint64_t{0};
    if (u.iter[0] < u.limit[0] && !u.c0.empty())
      return idx_of(u.c0[static_cast<std::size_t>(u.iter[0])]);
    if (u.level >= 1) return idx_of(u.matched[0]);
    return ~std::uint64_t{0};
  }

  std::uint64_t snapshot_min_index(const StackSnapshot& s) const {
    if (s.entry_level == 0)
      return idx_of(s.c0[static_cast<std::size_t>(s.iter)]);
    return idx_of(s.matched[0]);
  }

  /// Conservative low-watermark: every bucket below it is complete (no
  /// unclaimed range, running warp, parked snapshot, or recovery unit can
  /// still reach it), so it is safe to post.
  std::uint64_t emit_watermark() const {
    std::uint64_t wm = (v_cursor_ < v_end_) ? v_cursor_ : v_end_;
    for (const auto& w : warps_)
      if (!w.done) wm = std::min(wm, unit_min_index(w));
    for (const auto& slot : slots_)
      if (slot.has_value()) wm = std::min(wm, snapshot_min_index(*slot));
    for (const auto& unit : recovery_) {
      if (unit.frame.has_value())
        wm = std::min(wm, unit_min_index(*unit.frame));
      else
        wm = std::min(wm, snapshot_min_index(*unit.split));
    }
    return wm;
  }

  /// Posts every newly complete bucket, sorted into DFS order (lexicographic
  /// over plan-position tuples — within one outer vertex, staging order
  /// depends on steal interleaving, the sort canonicalizes it).
  void emit_flush() {
    if (!emit_active_) return;
    const std::uint64_t wm = emit_watermark();
    while (emit_next_flush_ < wm) {
      auto& bucket = emit_buckets_[emit_next_flush_];
      std::sort(bucket.begin(), bucket.end());
      if (!sink_->post(emit_next_flush_, std::move(bucket))) {
        emit_active_ = false;  // stream aborted; keep counting
        emit_buckets_.clear();
        emit_buckets_.shrink_to_fit();
        return;
      }
      bucket = {};
      ++emit_next_flush_;
    }
  }

  // --- work acquisition ----------------------------------------------------
  bool grab_chunk(WarpState& w) {
    if (v_cursor_ >= v_end_) return false;
    const VertexId begin = v_cursor_;
    const VertexId end = std::min<VertexId>(v_end_, begin + cfg_.chunk_size);
    v_cursor_ = end;
    w.c0.clear();
    const LabelFilter filter = filter_for(plan_.exact_mask(0));
    for (VertexId i = begin; i < end; ++i) {
      const VertexId v = range_.begin + i * range_.stride;
      if (filter.keep(v)) w.c0.push_back(v);
    }
    w.iter[0] = 0;
    w.limit[0] = static_cast<std::int64_t>(w.c0.size());
    w.level = 0;
    ++w.chunks;
    w.unit_attempts = 0;  // fresh work, fresh failure budget
    charge(w, cfg_.cost.global_copy_cycles(end - begin));
    return true;
  }

  /// Remaining (not in-flight) iterations of level t of a warp.
  std::int64_t stealable_at(const WarpState& w, std::size_t t) const {
    if (w.level < 0 || t > static_cast<std::size_t>(w.level)) return 0;
    const std::int64_t inflight =
        (t < static_cast<std::size_t>(w.level)) ? w.num_cols[t + 1] : 0;
    return std::max<std::int64_t>(0, w.limit[t] - (w.iter[t] + inflight));
  }

  /// Shallowest splittable level of a warp, or -1.
  int split_level(const WarpState& w) const {
    const auto max_t = std::min<std::size_t>(cfg_.stop_level, k_ - 1);
    for (std::size_t t = 0; t < max_t; ++t)
      if (stealable_at(w, t) >= 2) return static_cast<int>(t);
    return -1;
  }

  /// Splits `victim` at level t and builds the migrating snapshot.
  StackSnapshot split_stack(WarpState& victim, std::size_t t) {
    StackSnapshot snap;
    snap.entry_level = static_cast<std::uint32_t>(t);
    snap.matched = victim.matched;
    const std::int64_t inflight =
        (t < static_cast<std::size_t>(victim.level)) ? victim.num_cols[t + 1]
                                                     : 0;
    const std::int64_t start = victim.iter[t] + inflight;
    const std::int64_t rem = victim.limit[t] - start;
    STM_CHECK(rem >= 2);
    const std::int64_t mid = start + (rem + 1) / 2;
    snap.iter = mid;
    snap.limit = victim.limit[t];
    victim.limit[t] = mid;
    if (t == 0) {
      snap.c0 = victim.c0;
      snap.elements += snap.c0.size();
    }
    for (std::int16_t id : carry_[t]) {
      const auto& node = plan_.nodes()[static_cast<std::size_t>(id)];
      const auto col = static_cast<std::size_t>(victim.ucol[node.mat_level]);
      const auto& value = victim.values[static_cast<std::size_t>(id)][col];
      snap.elements += value.size();
      snap.node_values.emplace_back(id, value);
    }
    return snap;
  }

  /// Installs a snapshot into an idle warp's stack.
  void adopt(WarpState& w, const StackSnapshot& snap) {
    const auto t = static_cast<std::size_t>(snap.entry_level);
    w.matched = snap.matched;
    for (std::size_t l = 0; l < k_; ++l) {
      w.iter[l] = 0;
      w.limit[l] = 0;
      w.ucol[l] = 0;
      w.num_cols[l] = 1;
    }
    for (const auto& [id, value] : snap.node_values)
      w.values[static_cast<std::size_t>(id)][0] = value;
    if (t == 0) w.c0 = snap.c0;
    w.iter[t] = snap.iter;
    w.limit[t] = snap.limit;
    w.level = static_cast<int>(t);
    w.idle = false;
  }

  // --- fault injection and recovery ---------------------------------------
  FullFrame capture_frame(const WarpState& w) const {
    FullFrame f;
    f.level = w.level;
    f.c0 = w.c0;
    f.values = w.values;
    f.iter = w.iter;
    f.limit = w.limit;
    f.ucol = w.ucol;
    f.num_cols = w.num_cols;
    f.matched = w.matched;
    f.col_choice = w.col_choice;
    f.col_valid = w.col_valid;
    f.elements += f.c0.size();
    for (const auto& node : f.values)
      for (const auto& col : node) f.elements += col.size();
    return f;
  }

  void restore_frame(WarpState& w, const FullFrame& f) {
    w.level = f.level;
    w.c0 = f.c0;
    w.values = f.values;
    w.iter = f.iter;
    w.limit = f.limit;
    w.ucol = f.ucol;
    w.num_cols = f.num_cols;
    w.matched = f.matched;
    w.col_choice = f.col_choice;
    w.col_valid = f.col_valid;
    w.idle = false;
  }

  /// An injected fault killed this warp's current step: its frame (captured
  /// before the step mutated anything) is re-enqueued for another warp, and
  /// the warp itself restarts with a clean stack. The committed count stays
  /// with the warp, so nothing is double-counted or lost.
  void abort_warp(WarpState& w) {
    ++stats_.faults_injected;
    const std::uint32_t attempts = w.unit_attempts + 1;
    if (attempts >= cfg_.fault.max_unit_attempts) {
      recovery_exhausted_ = true;
      return;
    }
    RecoveryUnit unit;
    unit.attempts = attempts;
    unit.frame.emplace(capture_frame(w));
    recovery_.push_back(std::move(unit));
    w.level = -1;
    w.unit_attempts = 0;
    charge(w, cfg_.cost.idle_poll);  // warp-restart penalty
  }

  /// A migrating steal snapshot was lost in transit: park it in the recovery
  /// queue (the recovery path itself is modeled as reliable) instead of
  /// handing it to the thief. Exactness holds because the victim already
  /// relinquished the split range.
  void lose_snapshot(StackSnapshot snap) {
    ++stats_.faults_injected;
    RecoveryUnit unit;
    unit.attempts = 1;
    unit.split.emplace(std::move(snap));
    recovery_.push_back(std::move(unit));
  }

  bool try_adopt_recovery(WarpState& w) {
    if (recovery_.empty()) return false;
    RecoveryUnit unit = std::move(recovery_.front());
    recovery_.pop_front();
    std::uint64_t elements = 0;
    if (unit.frame.has_value()) {
      restore_frame(w, *unit.frame);
      elements = unit.frame->elements;
    } else {
      adopt(w, *unit.split);
      elements = unit.split->elements;
    }
    w.unit_attempts = unit.attempts;
    ++stats_.units_recovered;
    charge(w, cfg_.cost.global_copy_cycles(elements));
    return true;
  }

  /// Pull-based steal within the thread block (paper §V-A).
  bool try_local_steal(WarpState& thief) {
    charge(thief, cfg_.cost.steal_scan);
    WarpState* best = nullptr;
    std::int64_t best_score = 0;
    for (std::uint32_t lane = 0; lane < cfg_.device.warps_per_block; ++lane) {
      WarpState& other = warps_[thief.block * cfg_.device.warps_per_block +
                                lane];
      if (other.id == thief.id || other.done || other.idle) continue;
      const int t = split_level(other);
      if (t < 0) continue;
      // Most remaining work, weighted toward shallow levels.
      std::int64_t score = 0;
      for (std::size_t lvl = 0; lvl < cfg_.stop_level && lvl < k_ - 1; ++lvl)
        score = score * 1024 + stealable_at(other, lvl);
      if (best == nullptr || score > best_score ||
          (score == best_score && other.id < best->id)) {
        best = &other;
        best_score = score;
      }
    }
    if (best == nullptr) return false;
    const int t = split_level(*best);
    StackSnapshot snap = split_stack(*best, static_cast<std::size_t>(t));
    if (injector_.has_value() &&
        injector_->should_fail(FaultSite::kStealLoss, steal_seq_++)) {
      lose_snapshot(std::move(snap));
      charge(thief, cfg_.cost.steal_scan);
      return false;
    }
    adopt(thief, snap);
    thief.unit_attempts = 0;
    const auto copy = cfg_.cost.shared_copy_cycles(snap.elements);
    // The thief cannot start before the victim's stack reached this state.
    thief.clock = std::max(thief.clock, best->clock);
    charge(thief, copy + cfg_.cost.steal_scan);
    charge(*best, cfg_.cost.steal_scan / 2);  // victim-side interference
    ++thief.local_steals;
    ++stats_.local_steals;
    return true;
  }

  /// Push-based offer to a fully idle block (paper §V-B, Fig. 6).
  void maybe_push_global(WarpState& w) {
    if (!cfg_.global_steal) return;
    if (w.level < 0 ||
        static_cast<std::size_t>(w.level) >= cfg_.detect_level)
      return;
    if (++w.push_throttle % 4 != 0) return;  // periodic check
    const int t = split_level(w);
    if (t < 0) return;
    charge(w, cfg_.cost.idle_check);
    for (std::uint32_t b = 0; b < cfg_.device.num_blocks; ++b) {
      if (b == w.block || slots_[b].has_value()) continue;
      if (idle_count_[b] != cfg_.device.warps_per_block) continue;
      StackSnapshot snap = split_stack(w, static_cast<std::size_t>(t));
      charge(w, cfg_.cost.global_copy_cycles(snap.elements));
      if (injector_.has_value() &&
          injector_->should_fail(FaultSite::kStealLoss, steal_seq_++)) {
        lose_snapshot(std::move(snap));
        return;
      }
      slot_clock_[b] = w.clock;
      slots_[b] = std::move(snap);
      ++w.global_steals;
      ++stats_.global_steals;
      return;
    }
  }

  void acquire_work(WarpState& w) {
    // Lost work first: units in the recovery queue block global termination,
    // so draining them before grabbing fresh chunks bounds their latency.
    if (try_adopt_recovery(w)) return;
    if (grab_chunk(w)) return;
    if (cfg_.local_steal && try_local_steal(w)) return;
    // Go idle: mark the bitmap and spin (paper Fig. 6 steps 1-2).
    if (!w.idle) {
      w.idle = true;
      ++idle_count_[w.block];
    }
    w.clock += cfg_.cost.idle_poll;  // spinning is not useful work
  }

  void poll_idle(WarpState& w) {
    // Adopt a pushed stack if one landed on this block.
    if (slots_[w.block].has_value()) {
      StackSnapshot snap = std::move(*slots_[w.block]);
      slots_[w.block].reset();
      w.clock = std::max(w.clock, slot_clock_[w.block]);
      adopt(w, snap);
      --idle_count_[w.block];
      charge(w, cfg_.cost.global_copy_cycles(snap.elements));
      return;
    }
    if (try_adopt_recovery(w)) {
      --idle_count_[w.block];
      return;
    }
    // Retry a local steal: a sibling may have refilled.
    if (cfg_.local_steal && try_local_steal(w)) {
      --idle_count_[w.block];
      return;
    }
    if (v_cursor_ < v_end_ && grab_chunk(w)) {
      --idle_count_[w.block];
      return;
    }
    w.clock += cfg_.cost.idle_poll;
  }

  void step(WarpState& w) {
    if (w.idle) {
      poll_idle(w);
      return;
    }
    if (w.level < 0) {
      acquire_work(w);
      return;
    }
    if (injector_.has_value()) {
      // Decisions are keyed by (warp id, active-step ordinal): stable under
      // the deterministic virtual-time schedule, so the same seed aborts the
      // same steps every run. Checked before the step mutates anything, so
      // the captured frame resumes exactly here.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(w.id) << 40) | w.steps;
      ++w.steps;
      if (injector_->should_fail(FaultSite::kWarpAbort, key)) {
        abort_warp(w);
        return;
      }
      const auto lvl = static_cast<std::size_t>(w.level);
      const bool will_materialize = w.iter[lvl] < w.limit[lvl];
      if (will_materialize &&
          injector_->should_fail(FaultSite::kSlabAlloc, key)) {
        abort_warp(w);
        return;
      }
      // The step will execute: any earlier failure of this lineage was
      // transient, so its retry budget resets. The budget therefore bounds
      // consecutive no-progress failures (persistent faults still fail
      // closed), not total transient faults over a unit's lifetime.
      w.unit_attempts = 0;
    }
    maybe_push_global(w);
    charge(w, cfg_.cost.stack_step);
    const auto l = static_cast<std::size_t>(w.level);
    if (w.iter[l] >= w.limit[l]) {
      if (l == 0) {
        w.level = -1;  // chunk exhausted; acquire next step
        return;
      }
      if (next_column(w, l)) return;
      // All unrolled columns done: backtrack (paper Fig. 7 line 22).
      w.level = static_cast<int>(l) - 1;
      w.iter[l - 1] += w.num_cols[l];
      w.num_cols[l] = 0;
      return;
    }
    if (l + 2 >= k_) {
      descend_and_count(w, l);
      return;
    }
    descend(w, l);
  }

  const GraphView g_;
  const MatchingPlan& plan_;
  EngineConfig cfg_;
  const OuterRange range_;
  CancelPoller poller_;
  EmbeddingSink* sink_ = nullptr;
  std::size_t k_;
  const simd::Kernels& simd_;  // bound once per run
  std::uint64_t shared_per_warp_ = 0;

  VertexId v_cursor_ = 0;
  VertexId v_end_ = 0;
  bool interrupted_ = false;
  std::vector<WarpState> warps_;
  std::vector<std::optional<StackSnapshot>> slots_;
  std::vector<std::uint64_t> slot_clock_;
  std::vector<std::uint32_t> idle_count_;
  std::vector<std::vector<std::int16_t>> carry_;
  EngineStats stats_;
  std::optional<FaultInjector> injector_;
  std::deque<RecoveryUnit> recovery_;
  std::uint64_t steal_seq_ = 0;  // key basis for in-transit loss decisions
  bool recovery_exhausted_ = false;

  /// Emission state: per-outer-index staging buckets, the next bucket to
  /// flush, and whether the sink still accepts posts.
  bool emit_active_ = false;
  std::vector<std::vector<Embedding>> emit_buckets_;
  std::uint64_t emit_next_flush_ = 0;
  std::uint64_t sched_iters_ = 0;
};

MatchResult StackEngine::run() {
  const auto total_warps = cfg_.device.total_warps();
  warps_.assign(total_warps, WarpState{});
  for (std::uint32_t i = 0; i < total_warps; ++i) {
    WarpState& w = warps_[i];
    w.id = i;
    w.block = i / cfg_.device.warps_per_block;
    w.lane_in_block = i % cfg_.device.warps_per_block;
    w.values.assign(plan_.num_nodes(),
                    std::vector<std::vector<VertexId>>(cfg_.unroll));
  }
  slots_.assign(cfg_.device.num_blocks, std::nullopt);
  slot_clock_.assign(cfg_.device.num_blocks, 0);
  idle_count_.assign(cfg_.device.num_blocks, 0);

  if (sink_ != nullptr) {
    sink_->begin(v_end_);
    emit_buckets_.assign(v_end_, {});
    emit_active_ = true;
  }

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  for (auto& w : warps_) {
    // Stagger the initial work grab round-robin across blocks: consecutive
    // level-0 chunks land in different thread blocks, so local stealing can
    // fan each chunk out to the whole block (important when |V| is small
    // relative to the device).
    w.clock = w.lane_in_block * cfg_.device.num_blocks + w.block;
    heap.push({w.clock, w.id});
  }

  while (!heap.empty()) {
    // Cooperative interruption: deadlines are wall-clock even though engine
    // time is simulated — a size-7 query on a skewed graph can run long in
    // real time. Per-warp partial counts are still aggregated below.
    if (poller_.fired()) {
      interrupted_ = true;
      break;
    }
    // A recovery unit exceeded its retry budget: the run cannot guarantee an
    // exact count any more, so fail fast and let the service retry the whole
    // query or fall back to another engine.
    if (recovery_exhausted_) break;
    auto [clock, id] = heap.top();
    heap.pop();
    WarpState& w = warps_[id];
    if (w.done) continue;
    if (clock != w.clock) {  // stale entry (clock advanced by a steal)
      heap.push({w.clock, id});
      continue;
    }
    // Global termination: nothing running, nothing pending, nothing left.
    if (w.idle && v_cursor_ >= v_end_) {
      bool any_running = false;
      for (const auto& other : warps_)
        any_running |= (!other.done && !other.idle);
      bool any_pending = !recovery_.empty();
      for (const auto& slot : slots_) any_pending |= slot.has_value();
      if (!any_running && !any_pending) {
        w.done = true;
        continue;
      }
    }
    step(w);
    heap.push({w.clock, w.id});
    // Periodic bucket release: amortizes the O(warps) watermark scan.
    if (emit_active_ && (++sched_iters_ & 127) == 0) emit_flush();
  }
  // Final flush. On a clean run the watermark is v_end_ (nothing live); on
  // interruption or recovery exhaustion it stops at the first incomplete
  // bucket, so the stream ends at a well-defined complete-bucket prefix.
  emit_flush();

  MatchResult result;
  for (const auto& w : warps_) {
    result.count += w.count;
    stats_.busy_cycles += w.busy;
    stats_.makespan_cycles = std::max(stats_.makespan_cycles, w.clock);
    stats_.set_ops += w.ops;
    stats_.chunks_grabbed += w.chunks;
    stats_.sets_built += w.sets_built;
  }
  stats_.makespan_cycles += cfg_.cost.kernel_launch;  // one launch total
  stats_.sim_ms = cfg_.cost.to_ms(stats_.makespan_cycles);
  stats_.occupancy =
      stats_.makespan_cycles == 0
          ? 1.0
          : static_cast<double>(stats_.busy_cycles) /
                (static_cast<double>(stats_.makespan_cycles) * total_warps);
  stats_.shared_bytes_per_block =
      shared_per_warp_ * cfg_.device.warps_per_block;
  stats_.stack_bytes = static_cast<std::uint64_t>(total_warps) *
                       plan_.num_nodes() * cfg_.unroll *
                       std::max<EdgeId>(g_.max_degree(), 1) * sizeof(VertexId);
  stats_.recovery_exhausted = recovery_exhausted_;
  result.stats = stats_;
  result.query = stats_.to_query_stats();
  if (recovery_exhausted_) {
    result.query.status = QueryStatus::kInternalError;
  } else if (interrupted_) {
    result.query.status = poller_.token()->status();
  }
  return result;
}

}  // namespace

MatchResult stmatch_match(GraphView g, const MatchingPlan& plan,
                          const EngineConfig& cfg, const CancelToken* cancel,
                          EmbeddingSink* sink, OuterRange range) {
  if (cfg.fault.enabled()) {
    // Whole-engine-call failure: thrown (not returned) so the service layer's
    // exception boundary and fallback chain are exercised end to end.
    FaultInjector probe(cfg.fault);
    if (probe.should_fail(FaultSite::kEngineThrow, 0)) {
      throw FaultInjectedError("injected fault: SIMT engine call failed");
    }
  }
  StackEngine engine(g, plan, cfg, cancel, sink, range);
  return engine.run();
}

MatchResult stmatch_match_pattern(GraphView g, const Pattern& p,
                                  const PlanOptions& plan_opts,
                                  const EngineConfig& cfg) {
  MatchingPlan plan(reorder_for_matching(p), plan_opts);
  return stmatch_match(g, plan, cfg);
}

}  // namespace stm
