#include "storage/pagefile.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "persist/codec.hpp"
#include "util/check.hpp"

namespace stm::storage {

namespace {

/// 64-bit-clean absolute seek: std::fseek takes a long, which is 32-bit on
/// LLP64 platforms and would truncate offsets past 2 GiB in large spill
/// files.
bool seek_to(std::FILE* f, std::uint64_t offset) {
#if defined(_WIN32)
  return ::_fseeki64(f, static_cast<long long>(offset), SEEK_SET) == 0;
#else
  return ::fseeko(f, static_cast<off_t>(offset), SEEK_SET) == 0;
#endif
}

}  // namespace

std::uint64_t write_page_file(const std::string& path, const Graph& g,
                              std::uint32_t page_size,
                              std::uint32_t block_size) {
  STM_CHECK(page_size > 0 && block_size > 0);
  const VertexId n = g.num_vertices();

  // Pack encoded vertices into pages. A vertex never spans pages; one whose
  // encoding exceeds page_size gets a private oversized page.
  std::vector<std::string> pages;
  std::vector<VertexLocation> vloc(n);
  std::vector<std::uint8_t> scratch;
  std::string current;
  auto flush = [&] {
    if (!current.empty()) {
      pages.push_back(std::move(current));
      current.clear();
    }
  };
  for (VertexId v = 0; v < n; ++v) {
    scratch.clear();
    const auto nbrs = g.neighbors(v);
    encode_adjacency(nbrs.data(), nbrs.size(), block_size, scratch);
    if (!current.empty() && current.size() + scratch.size() > page_size) flush();
    vloc[v] = {static_cast<std::uint32_t>(pages.size()),
               static_cast<std::uint32_t>(current.size())};
    current.append(reinterpret_cast<const char*>(scratch.data()),
                   scratch.size());
    if (current.size() >= page_size) flush();
  }
  flush();

  // The index has a fixed width given (n, labeled, num_pages), so the page
  // base offset is known before the page-table file offsets are filled in.
  const bool labeled = g.is_labeled();
  const std::uint64_t index_len =
      4 + 4 + 4 + 4 + 8 + 1 + (labeled ? n : 0) +
      static_cast<std::uint64_t>(n) * 4 + static_cast<std::uint64_t>(n) * 8 +
      4 + static_cast<std::uint64_t>(pages.size()) * 16;
  std::uint64_t offset = 8 + 4 + 4 + index_len;

  persist::BinaryWriter w;
  w.u32(kPageFileVersion);
  w.u32(page_size);
  w.u32(block_size);
  w.u32(n);
  w.u64(g.num_adjacency_entries());
  w.u8(labeled ? 1 : 0);
  if (labeled)
    for (VertexId v = 0; v < n; ++v) w.u8(g.label(v));
  for (VertexId v = 0; v < n; ++v)
    w.u32(static_cast<std::uint32_t>(g.degree(v)));
  for (VertexId v = 0; v < n; ++v) {
    w.u32(vloc[v].page);
    w.u32(vloc[v].offset);
  }
  w.u32(static_cast<std::uint32_t>(pages.size()));
  for (const auto& p : pages) {
    w.u64(offset);
    w.u32(static_cast<std::uint32_t>(p.size()));
    w.u32(persist::crc32(p));
    offset += p.size();
  }
  const std::string index = w.take();
  STM_CHECK_MSG(index.size() == index_len,
                "storage: page-file index size mismatch");

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  STM_CHECK_MSG(out.good(), "storage: cannot create page file " << path);
  out.write(kPageFileMagic, sizeof kPageFileMagic);
  persist::BinaryWriter frame;
  frame.u32(static_cast<std::uint32_t>(index.size()));
  frame.u32(persist::crc32(index));
  out.write(frame.bytes().data(),
            static_cast<std::streamsize>(frame.bytes().size()));
  out.write(index.data(), static_cast<std::streamsize>(index.size()));
  for (const auto& p : pages)
    out.write(p.data(), static_cast<std::streamsize>(p.size()));
  out.flush();
  STM_CHECK_MSG(out.good(), "storage: short write building page file " + path);
  return offset;
}

PageFile::~PageFile() {
  if (file_ != nullptr) std::fclose(file_);
}

PageFile::PageFile(PageFile&& o) noexcept { *this = std::move(o); }

PageFile& PageFile::operator=(PageFile&& o) noexcept {
  if (this == &o) return *this;
  if (file_ != nullptr) std::fclose(file_);
  file_ = o.file_;
  o.file_ = nullptr;
  n_ = o.n_;
  m2_ = o.m2_;
  page_size_ = o.page_size_;
  block_size_ = o.block_size_;
  file_bytes_ = o.file_bytes_;
  labels_ = std::move(o.labels_);
  degrees_ = std::move(o.degrees_);
  vloc_ = std::move(o.vloc_);
  pages_ = std::move(o.pages_);
  return *this;
}

PageFile PageFile::open(const std::string& path) {
  PageFile pf;
  pf.file_ = std::fopen(path.c_str(), "rb");
  STM_CHECK_MSG(pf.file_ != nullptr, "storage: cannot open page file " << path);

  char magic[sizeof kPageFileMagic];
  STM_CHECK_MSG(std::fread(magic, 1, sizeof magic, pf.file_) == sizeof magic &&
                    std::memcmp(magic, kPageFileMagic, sizeof magic) == 0,
                "storage: bad page-file magic in " + path);
  char frame[8];
  STM_CHECK_MSG(std::fread(frame, 1, sizeof frame, pf.file_) == sizeof frame,
                "storage: truncated page-file header in " + path);
  std::uint32_t index_len = 0, index_crc = 0;
  std::memcpy(&index_len, frame, 4);
  std::memcpy(&index_crc, frame + 4, 4);
  std::string index(index_len, '\0');
  STM_CHECK_MSG(
      std::fread(index.data(), 1, index_len, pf.file_) == index_len,
      "storage: truncated page-file index in " + path);
  STM_CHECK_MSG(persist::crc32(index) == index_crc,
                "storage: page-file index CRC mismatch in " + path);

  persist::BinaryReader r(index);
  STM_CHECK_MSG(r.u32() == kPageFileVersion,
                "storage: unsupported page-file version in " + path);
  pf.page_size_ = r.u32();
  pf.block_size_ = r.u32();
  pf.n_ = r.count(3 * sizeof(std::uint32_t));  // degree, page, offset
  pf.m2_ = r.u64();
  const bool labeled = r.u8() != 0;
  if (labeled) {
    pf.labels_.resize(pf.n_);
    for (VertexId v = 0; v < pf.n_; ++v) pf.labels_[v] = r.u8();
  }
  pf.degrees_.resize(pf.n_);
  for (VertexId v = 0; v < pf.n_; ++v) pf.degrees_[v] = r.u32();
  pf.vloc_.resize(pf.n_);
  for (VertexId v = 0; v < pf.n_; ++v) {
    pf.vloc_[v].page = r.u32();
    pf.vloc_[v].offset = r.u32();
  }
  // Each entry: u64 file offset, u32 payload length, u32 crc.
  const std::uint32_t num_pages = r.count(2 * sizeof(std::uint64_t));
  pf.pages_.resize(num_pages);
  for (auto& p : pf.pages_) {
    p.file_offset = r.u64();
    p.payload_len = r.u32();
    p.crc = r.u32();
  }
  STM_CHECK_MSG(r.done(), "storage: trailing bytes in page-file index");
  // A served page holds exactly payload_len bytes (the pager checks), so
  // a location inside its page's payload stays inside every read of it.
  for (VertexId v = 0; v < pf.n_; ++v)
    STM_CHECK_MSG(pf.vloc_[v].page < num_pages &&
                      pf.vloc_[v].offset <=
                          pf.pages_[pf.vloc_[v].page].payload_len,
                  "storage: vertex location out of page range");
  pf.file_bytes_ = 8 + 4 + 4 + index_len;
  for (const auto& p : pf.pages_) pf.file_bytes_ += p.payload_len;
  return pf;
}

std::uint64_t PageFile::payload_bytes() const {
  std::uint64_t total = 0;
  for (const auto& p : pages_) total += p.payload_len;
  return total;
}

std::uint64_t PageFile::index_bytes() const {
  return labels_.capacity() * sizeof(Label) +
         degrees_.capacity() * sizeof(std::uint32_t) +
         vloc_.capacity() * sizeof(VertexLocation) +
         pages_.capacity() * sizeof(PageEntry);
}

bool PageFile::read_page(std::uint32_t page, std::string& out) const {
  STM_CHECK(page < pages_.size());
  const PageEntry& e = pages_[page];
  out.resize(e.payload_len);
  if (!seek_to(file_, e.file_offset)) return false;
  return std::fread(out.data(), 1, e.payload_len, file_) == e.payload_len;
}

}  // namespace stm::storage
