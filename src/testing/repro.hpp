// Self-contained failure reproductions.
//
// A .repro file is the complete, human-readable serialization of one
// TestCase: graph (edge list + labels), pattern, plan options and both
// engine configs, plus the originating seed for triage. The minimizer
// writes one per failure and `fuzz_match --replay file.repro` re-runs the
// oracle on it, so a CI artifact reproduces a disagreement with no access
// to the original fuzzing session.
//
// Format: a line-oriented `key value...` text file opened by the magic
// line `stmatch-repro 1`: seed, family, graph, pattern, plan, simt and host
// lines, then one optional section per lane whose knobs are off their
// defaults (`mqo`, `shards`, `storage`, `isa`; see lanes.cpp), then `end`.
// Parsing is strict — any missing line, unknown or repeated section, stray
// token, out-of-range id or malformed number throws check_error with the
// offending line, so a truncated artifact fails loudly instead of
// replaying the wrong case.
#pragma once

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "testing/workload.hpp"
#include "util/check.hpp"

namespace stm::harness {

/// Serializes every field of `c` (version 1 format).
std::string to_repro(const TestCase& c);

/// Inverse of to_repro. Throws check_error on any malformed input.
TestCase from_repro(const std::string& text);

/// Writes to_repro(c) to `path`; throws check_error if the file cannot be
/// written.
void save_repro(const TestCase& c, const std::string& path);

/// Reads and parses `path`; throws check_error if unreadable or malformed.
TestCase load_repro(const std::string& path);

/// Tokenizing line reader of the format, shared with the lanes' section
/// readers: skips blank lines and `#` comments, splits each remaining line
/// into whitespace-separated tokens, and remembers the raw line for error
/// messages. Every check throws check_error naming the offending line.
class ReproReader {
 public:
  explicit ReproReader(const std::string& text) : in_(text) {}

  /// Advances to the next non-empty line. Returns false at end of input.
  bool next() {
    if (pending_) {
      pending_ = false;
      return true;
    }
    std::string line;
    while (std::getline(in_, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      raw_ = line;
      tokens_.clear();
      std::istringstream ls(line);
      std::string tok;
      while (ls >> tok) tokens_.push_back(std::move(tok));
      if (!tokens_.empty()) return true;
    }
    return false;
  }
  /// Makes the next next() return the current line again (one-line
  /// lookahead for optional lines).
  void unread() { pending_ = true; }
  /// next() that throws instead of returning false.
  void require_next(const char* what) {
    STM_CHECK_MSG(next(), "repro ended early: expected '" << what << "'");
  }
  /// require_next() for a line that must be `key` with `args` values.
  void expect_next(const char* key, std::size_t args) {
    require_next(key);
    STM_CHECK_MSG(key_is(key), "repro: expected '" << key << "' but got \""
                                                   << raw_ << "\"");
    expect_arity(args);
  }

  const std::string& raw() const { return raw_; }
  const std::vector<std::string>& tokens() const { return tokens_; }
  bool key_is(const char* key) const { return tokens_.front() == key; }
  void expect_arity(std::size_t args) const {
    STM_CHECK_MSG(tokens_.size() == args + 1,
                  "repro: '" << tokens_.front() << "' takes " << args
                             << " value(s) but got \"" << raw_ << "\"");
  }
  std::uint64_t u64(std::size_t i) const {
    STM_CHECK_MSG(i < tokens_.size(),
                  "repro: missing value in \"" << raw_ << "\"");
    const std::string& tok = tokens_[i];
    std::uint64_t value = 0;
    std::size_t used = 0;
    try {
      value = std::stoull(tok, &used, 0);
    } catch (const std::exception&) {
      used = 0;
    }
    STM_CHECK_MSG(used == tok.size() && tok[0] != '-',
                  "repro: \"" << tok << "\" is not a number in \"" << raw_
                              << "\"");
    return value;
  }
  bool boolean(std::size_t i) const {
    const std::uint64_t value = u64(i);
    STM_CHECK_MSG(value <= 1, "repro: \"" << tokens_[i]
                                          << "\" is not 0/1 in \"" << raw_
                                          << "\"");
    return value == 1;
  }

 private:
  std::istringstream in_;
  std::string raw_;
  std::vector<std::string> tokens_;
  bool pending_ = false;
};

/// Line keys of one serialized pattern: `<size> n m`, then m `<edge> u v`
/// lines, then an optional `<labels> l...` line.
struct PatternKeys {
  const char* size;
  const char* edge;
  const char* labels;
};
void write_pattern(std::ostream& os, const PatternKeys& keys, const Pattern& p);
/// Reads the pattern starting at the next line; sizes below `min_size`
/// throw.
Pattern read_pattern(ReproReader& reader, const PatternKeys& keys,
                     std::size_t min_size);

}  // namespace stm::harness
