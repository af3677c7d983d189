#include "persist/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "persist/codec.hpp"
#include "util/check.hpp"

namespace stm::persist {

namespace {

namespace fs = std::filesystem;

constexpr char kCheckpointPrefix[] = "checkpoint-";
constexpr char kCheckpointSuffix[] = ".stmckpt";
constexpr std::size_t kKeepCheckpoints = 2;

// The graph section opens with a format byte; raw CSR is the only format.
constexpr std::uint8_t kGraphFormatRaw = 0;

void encode_graph(BinaryWriter& w, const Graph& g) {
  w.u8(kGraphFormatRaw);
  w.u32(g.num_vertices());
  w.u64(g.num_adjacency_entries());
  for (const EdgeId e : g.row_ptr()) w.u64(e);
  for (const VertexId v : g.col_idx()) w.u32(v);
  w.u8(g.is_labeled() ? 1 : 0);
  if (g.is_labeled())
    for (const Label l : g.labels()) w.u8(l);
}

Graph decode_graph(BinaryReader& r) {
  const std::uint8_t format = r.u8();
  STM_CHECK_MSG(format == kGraphFormatRaw,
                "corrupt checkpoint: unknown graph format "
                    << static_cast<int>(format));
  // Counts read off disk are bounded by the bytes left before anything
  // reserves for them: an overstated count fails as corrupt (and
  // load_newest falls back) instead of throwing length_error or bad_alloc.
  const std::uint32_t n = r.count(sizeof(EdgeId));
  const std::uint64_t m = r.u64();
  STM_CHECK_MSG(m <= r.remaining() / sizeof(VertexId),
                "corrupt checkpoint: " << m << " adjacency entries overrun "
                                       << r.remaining() << " payload bytes");
  std::vector<EdgeId> row_ptr;
  row_ptr.reserve(static_cast<std::size_t>(n) + 1);
  std::vector<VertexId> col_idx;
  col_idx.reserve(m);
  for (std::uint32_t i = 0; i <= n; ++i) row_ptr.push_back(r.u64());
  for (std::uint64_t i = 0; i < m; ++i) col_idx.push_back(r.u32());
  std::vector<Label> labels;
  if (r.u8() != 0) {
    labels.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
      labels.push_back(static_cast<Label>(r.u8()));
  }
  // The Graph constructor re-validates the CSR invariants, so a corrupt
  // payload that slipped past the crc still cannot build a broken graph.
  return Graph(std::move(row_ptr), std::move(col_idx), std::move(labels));
}

void fsync_fd(int fd, const std::string& what) {
  STM_CHECK_MSG(::fsync(fd) == 0,
                "fsync of " << what << " failed: " << std::strerror(errno));
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  STM_CHECK_MSG(fd >= 0, "cannot open directory " << dir << " for fsync: "
                                                  << std::strerror(errno));
  fsync_fd(fd, dir);
  ::close(fd);
}

/// seq from "checkpoint-<decimal>.stmckpt", or nullopt for foreign names.
std::optional<std::uint64_t> parse_seq(const std::string& name) {
  const std::size_t prefix = sizeof(kCheckpointPrefix) - 1;
  const std::size_t suffix = sizeof(kCheckpointSuffix) - 1;
  if (name.size() <= prefix + suffix) return std::nullopt;
  if (name.compare(0, prefix, kCheckpointPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix, suffix, kCheckpointSuffix) != 0)
    return std::nullopt;
  std::uint64_t seq = 0;
  for (std::size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return seq;
}

}  // namespace

std::string encode_checkpoint(const CheckpointData& data) {
  BinaryWriter payload;
  payload.u64(data.seq);
  payload.u64(data.epoch);
  payload.u64(data.last_lsn);
  payload.u64(data.next_standing_id);
  encode_graph(payload, data.graph);
  payload.u32(static_cast<std::uint32_t>(data.standing.size()));
  for (const StandingEntry& e : data.standing) encode_standing(payload, e);
  const std::string body = payload.take();

  BinaryWriter out;
  std::string bytes(kCheckpointMagic, kCheckpointMagicSize);
  out.u32(static_cast<std::uint32_t>(body.size()));
  out.u32(crc32(body));
  bytes += out.take();
  bytes += body;
  return bytes;
}

CheckpointData decode_checkpoint(std::string_view bytes) {
  STM_CHECK_MSG(bytes.size() >= kCheckpointMagicSize + 8 &&
                    bytes.compare(0, kCheckpointMagicSize, kCheckpointMagic,
                                  kCheckpointMagicSize) == 0,
                "not a checkpoint file (bad magic)");
  BinaryReader hdr(bytes.substr(kCheckpointMagicSize, 8));
  const std::uint32_t len = hdr.u32();
  const std::uint32_t crc = hdr.u32();
  STM_CHECK_MSG(bytes.size() == kCheckpointMagicSize + 8 + len,
                "checkpoint truncated: payload claims "
                    << len << " bytes, file has "
                    << bytes.size() - kCheckpointMagicSize - 8);
  const std::string_view body = bytes.substr(kCheckpointMagicSize + 8, len);
  STM_CHECK_MSG(crc32(body) == crc, "checkpoint payload fails its crc");

  BinaryReader r(body);
  CheckpointData data;
  data.seq = r.u64();
  data.epoch = r.u64();
  data.last_lsn = r.u64();
  data.next_standing_id = r.u64();
  data.graph = decode_graph(r);
  const std::uint32_t num_standing = r.count(sizeof(std::uint64_t));
  data.standing.reserve(num_standing);
  for (std::uint32_t i = 0; i < num_standing; ++i)
    data.standing.push_back(decode_standing(r));
  STM_CHECK_MSG(r.done(),
                "corrupt checkpoint: " << r.remaining() << " trailing bytes");
  return data;
}

CheckpointStore::CheckpointStore(std::string dir, bool fsync,
                                 FaultInjector* injector,
                                 std::uint32_t max_attempts)
    : dir_(std::move(dir)),
      fsync_(fsync),
      injector_(injector),
      max_attempts_(max_attempts) {
  STM_CHECK_MSG(max_attempts_ >= 1, "checkpoint write budget must be >= 1");
  fs::create_directories(dir_);
}

std::string CheckpointStore::path_for(std::uint64_t seq) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%016llu%s", kCheckpointPrefix,
                static_cast<unsigned long long>(seq), kCheckpointSuffix);
  return (fs::path(dir_) / name).string();
}

std::vector<std::uint64_t> CheckpointStore::list() const {
  std::vector<std::uint64_t> seqs;
  if (!fs::exists(dir_)) return seqs;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    if (const auto seq = parse_seq(entry.path().filename().string()))
      seqs.push_back(*seq);
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

void CheckpointStore::write(const CheckpointData& data) {
  const std::string bytes = encode_checkpoint(data);
  const std::string final_path = path_for(data.seq);
  const std::string tmp_path = final_path + ".tmp";

  for (std::uint32_t attempt = 0; attempt < max_attempts_; ++attempt) {
    const std::uint64_t key = (data.seq << 8) ^ attempt;
    const bool fail =
        injector_ != nullptr &&
        injector_->should_fail(FaultSite::kCheckpointWrite, key);

    std::string written = bytes;
    if (fail) {
      // The corruption actually lands in the temp file: garble one payload
      // byte keyed by the attempt so distinct retries tear differently.
      const std::size_t victim =
          kCheckpointMagicSize + 8 + (key % std::max<std::size_t>(1, bytes.size() - kCheckpointMagicSize - 8));
      written[victim] = static_cast<char>(written[victim] ^ 0xA5);
    }

    const int fd =
        ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    STM_CHECK_MSG(fd >= 0, "cannot create checkpoint temp " << tmp_path << ": "
                                                            << std::strerror(errno));
    const char* p = written.data();
    std::size_t left = written.size();
    while (left > 0) {
      const ssize_t w = ::write(fd, p, left);
      STM_CHECK_MSG(w > 0, "checkpoint write to " << tmp_path << " failed: "
                                                  << std::strerror(errno));
      p += w;
      left -= static_cast<std::size_t>(w);
    }
    if (fsync_) fsync_fd(fd, tmp_path);
    ::close(fd);

    // Validate-before-install: re-read and decode the temp file, so a torn
    // write (injected or real) is caught while the previous checkpoint set
    // is still authoritative.
    bool valid = false;
    try {
      decode_checkpoint(read_file(tmp_path).value_or(""));
      valid = true;
    } catch (const check_error&) {
      valid = false;
    }
    if (!valid) {
      ++faults_injected_;
      fs::remove(tmp_path);
      continue;
    }

    fs::rename(tmp_path, final_path);
    if (fsync_) fsync_dir(dir_);

    // Retention: newest two survive; older files (and stray temps) go.
    std::vector<std::uint64_t> seqs = list();
    if (seqs.size() > kKeepCheckpoints) {
      for (std::size_t i = 0; i + kKeepCheckpoints < seqs.size(); ++i)
        fs::remove(path_for(seqs[i]));
      if (fsync_) fsync_dir(dir_);
    }
    return;
  }
  fs::remove(tmp_path);
  throw FaultInjectedError(
      "injected fault: checkpoint " + std::to_string(data.seq) + " torn " +
      std::to_string(max_attempts_) +
      " time(s); previous checkpoint set left authoritative");
}

CheckpointLoadResult CheckpointStore::load_newest() const {
  CheckpointLoadResult out;
  std::vector<std::uint64_t> seqs = list();
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    try {
      const std::optional<std::string> bytes = read_file(path_for(*it));
      STM_CHECK(bytes.has_value());
      out.data = decode_checkpoint(*bytes);
      return out;
    } catch (const check_error&) {
      // Fall back to the previous checkpoint; the WAL still covers the gap
      // because it is only reset after a successful install.
      ++out.skipped_corrupt;
    }
  }
  return out;
}

}  // namespace stm::persist
