// Tests of the conformance harness itself: generator determinism, oracle
// agreement on known-good engines, metamorphic relations, sabotage-mode
// detection, minimizer behavior, and .repro round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "pattern/canonical.hpp"
#include "pattern/matching_order.hpp"
#include "testing/lanes.hpp"
#include "testing/metamorphic.hpp"
#include "testing/minimize.hpp"
#include "testing/oracle.hpp"
#include "testing/repro.hpp"
#include "testing/seed.hpp"
#include "testing/workload.hpp"
#include "util/check.hpp"

namespace stm {
namespace {

using harness::check_metamorphic;
using harness::derive_seed;
using harness::from_repro;
using harness::MetamorphicReport;
using harness::minimize;
using harness::OracleReport;
using harness::random_case;
using harness::run_oracle;
using harness::TestCase;
using harness::to_repro;
using harness::WorkloadOptions;

/// RAII guard for the sabotage / seed environment hooks.
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~EnvVarGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

// ---------------------------------------------------------------------------
// Seeds and generators
// ---------------------------------------------------------------------------

TEST(HarnessSeed, EnvOverridesFallback) {
  {
    EnvVarGuard guard("STMATCH_FUZZ_SEED", "12345");
    EXPECT_EQ(harness::base_seed(7), 12345u);
  }
  {
    EnvVarGuard guard("STMATCH_FUZZ_SEED", "0xff");
    EXPECT_EQ(harness::base_seed(7), 255u);
  }
  EXPECT_EQ(harness::base_seed(7), 7u);  // unset: fallback
  {
    EnvVarGuard guard("STMATCH_FUZZ_SEED", "not-a-number");
    EXPECT_THROW(harness::base_seed(7), check_error);
  }
}

TEST(HarnessSeed, DerivedStreamsAreDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t stream = 0; stream < 256; ++stream)
    seen.insert(derive_seed(42, stream));
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
}

TEST(HarnessWorkload, SameSeedSameCaseBitForBit) {
  for (std::uint64_t seed : {1ull, 99ull, 0xdeadbeefull}) {
    const TestCase a = random_case(seed);
    const TestCase b = random_case(seed);
    // to_repro writes every field (HarnessRepro.RoundTripsEveryField and
    // HarnessLanes check that), so equal text == equal case.
    EXPECT_EQ(to_repro(a), to_repro(b)) << "seed " << seed;
  }
}

TEST(HarnessWorkload, GeneratedCasesAreWellFormed) {
  WorkloadOptions opts;
  std::set<harness::GraphFamily> families;
  for (std::uint64_t seed = 0; seed < 80; ++seed) {
    const TestCase c = random_case(derive_seed(5, seed), opts);
    families.insert(c.family);
    EXPECT_TRUE(c.pattern.is_connected()) << harness::describe(c);
    EXPECT_GE(c.pattern.size(), 2u);
    EXPECT_LE(c.pattern.size(), opts.max_pattern_size);
    EXPECT_LE(c.graph.num_vertices(), opts.max_vertices);
    if (c.pattern.is_labeled()) {
      EXPECT_TRUE(c.graph.is_labeled())
          << "labeled pattern requires a labeled graph: "
          << harness::describe(c);
    }
    // Plans must compile for every generated pattern (connectivity holds).
    EXPECT_NO_THROW(MatchingPlan(reorder_for_matching(c.pattern), c.plan));
  }
  // 80 draws cover every family with overwhelming probability.
  EXPECT_EQ(families.size(), harness::kNumGraphFamilies);
}

TEST(HarnessWorkload, IsaLaneSamplesEveryChoice) {
  // The ISA knob rides its own derived stream, so a modest seed sweep must
  // hit all four choices — including levels this machine may not support
  // (generation is machine-independent; the oracle does the degrading).
  std::set<harness::IsaPin> seen;
  for (std::uint64_t seed = 0; seed < 64; ++seed)
    seen.insert(random_case(derive_seed(11, seed)).forced_isa);
  EXPECT_EQ(seen.size(), 4u);
}

TEST(HarnessWorkload, MqoLaneSamplesDuplicatesAndNearColliders) {
  // The mqo knob rides its own derived stream; a seed sweep must produce
  // empty and non-empty pattern sets, canonical-isomorphic duplicates of
  // the case pattern, and the prism / K_{3,3} near-collider pair.
  const std::string prism =
      canonical_form(Pattern::parse("0-1,1-2,2-0,3-4,4-5,5-3,0-3,1-4,2-5"));
  const std::string k33 =
      canonical_form(Pattern::parse("0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5"));
  bool saw_empty = false, saw_duplicate = false;
  bool saw_prism = false, saw_k33 = false;
  for (std::uint64_t seed = 0; seed < 96; ++seed) {
    const TestCase c = random_case(derive_seed(0x301, seed));
    if (c.mqo_patterns.empty()) saw_empty = true;
    const std::string own = canonical_form(c.pattern);
    for (const Pattern& p : c.mqo_patterns) {
      EXPECT_TRUE(p.is_connected());
      EXPECT_GE(p.size(), 2u);
      if (!c.graph.is_labeled()) {
        EXPECT_FALSE(p.is_labeled());
      }
      const std::string canon = canonical_form(p);
      if (canon == own) saw_duplicate = true;
      if (canon == prism) saw_prism = true;
      if (canon == k33) saw_k33 = true;
    }
  }
  EXPECT_TRUE(saw_empty);
  EXPECT_TRUE(saw_duplicate);
  EXPECT_TRUE(saw_prism);
  EXPECT_TRUE(saw_k33);
}

TEST(HarnessWorkload, FamilyNamesRoundTrip) {
  for (std::size_t f = 0; f < harness::kNumGraphFamilies; ++f) {
    const auto family = static_cast<harness::GraphFamily>(f);
    EXPECT_EQ(harness::graph_family_from_string(harness::to_string(family)),
              family);
  }
  EXPECT_THROW(harness::graph_family_from_string("nonsense"), check_error);
}

// ---------------------------------------------------------------------------
// Differential oracle
// ---------------------------------------------------------------------------

TEST(HarnessOracle, EnginesAgreeAcrossSeeds) {
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    const TestCase c = random_case(derive_seed(0xacc, trial));
    const OracleReport report = run_oracle(c);
    EXPECT_TRUE(report.agreed)
        << harness::describe(c) << "\n" << report.describe();
  }
}

TEST(HarnessOracle, SkipsIncrementalWhenInapplicable) {
  TestCase c = random_case(3);
  c.plan.induced = Induced::kVertex;  // incremental rejects vertex-induced
  const OracleReport report = run_oracle(c);
  bool incremental_ran = false;
  for (const auto& e : report.counts)
    if (e.engine == harness::EngineKind::kIncremental) incremental_ran = true;
  EXPECT_FALSE(incremental_ran);
  EXPECT_TRUE(report.agreed) << report.describe();
}

TEST(HarnessOracle, MqoLaneVotesAcrossSeeds) {
  // The multi-query lane must actually run (not be perpetually skipped) and
  // agree over a seed sweep, including cases whose sampled pattern sets are
  // duplicate-heavy.
  int voted = 0, with_extras = 0;
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    const TestCase c = random_case(derive_seed(0x3901, trial));
    const OracleReport report = run_oracle(c);
    EXPECT_TRUE(report.agreed)
        << harness::describe(c) << "\n" << report.describe();
    for (const auto& e : report.counts) {
      if (e.engine != harness::EngineKind::kMqo) continue;
      ++voted;
      EXPECT_EQ(e.count, report.expected) << harness::describe(c);
      if (!c.mqo_patterns.empty()) ++with_extras;
    }
  }
  EXPECT_GT(voted, 0) << "mqo lane never ran in 30 trials";
  EXPECT_GT(with_extras, 0) << "mqo lane never saw a non-trivial pattern set";
}

TEST(HarnessOracle, DetectsSabotagedHostEngine) {
  EnvVarGuard guard("STMATCH_FUZZ_SABOTAGE", "host_off_by_one");
  // Find a case with a nonzero count (the sabotage only fires then).
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    const TestCase c = random_case(derive_seed(0x5ab0, trial));
    const OracleReport report = run_oracle(c);
    if (report.expected == 0) continue;
    EXPECT_FALSE(report.agreed)
        << "off-by-one host engine must disagree:\n" << report.describe();
    return;
  }
  FAIL() << "no case with a nonzero count in 50 trials";
}

// ---------------------------------------------------------------------------
// Metamorphic relations
// ---------------------------------------------------------------------------

TEST(HarnessMetamorphic, RelationsHoldOnHealthyEngines) {
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    const std::uint64_t seed = derive_seed(0x3e7a, trial);
    const TestCase c = random_case(seed);
    const MetamorphicReport report = check_metamorphic(c, seed);
    EXPECT_TRUE(report.ok())
        << harness::describe(c) << "\n" << report.describe();
    EXPECT_GE(report.checked, 5u);  // at least the unconditional relations
  }
}

TEST(HarnessMetamorphic, ReportIsReproducible) {
  const TestCase c = random_case(11);
  const MetamorphicReport a = check_metamorphic(c, 77);
  const MetamorphicReport b = check_metamorphic(c, 77);
  EXPECT_EQ(a.checked, b.checked);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(HarnessMetamorphic, AdditivityCatchesOffByOneCounter) {
  EnvVarGuard guard("STMATCH_FUZZ_SABOTAGE", "metamorphic_off_by_one");
  // Both sides of relabel invariance get the same +1, so only the
  // disjoint-union relation ((a+1)+(b+1) != ab_union+1) can catch it —
  // exactly why the suite needs structurally different relations.
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    const std::uint64_t seed = derive_seed(0x0ff1, trial);
    const TestCase c = random_case(seed);
    if (run_oracle(c).expected == 0) continue;
    const MetamorphicReport report = check_metamorphic(c, seed);
    EXPECT_FALSE(report.ok()) << harness::describe(c);
    return;
  }
  FAIL() << "no case with a nonzero count in 30 trials";
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

TEST(HarnessMinimize, ShrinksSabotagedCaseToMinimalRepro) {
  EnvVarGuard guard("STMATCH_FUZZ_SABOTAGE", "host_off_by_one");
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    const TestCase c = random_case(derive_seed(0x31337, trial));
    if (run_oracle(c).agreed) continue;  // needs a nonzero count to fire

    const auto result = minimize(c, harness::oracle_disagrees);
    EXPECT_TRUE(result.still_failing);
    EXPECT_FALSE(run_oracle(result.reduced).agreed)
        << "minimized case must still reproduce the failure";
    // ...and so must the .repro written for it: every knob the failure
    // needs has to survive serialization.
    EXPECT_FALSE(run_oracle(from_repro(to_repro(result.reduced))).agreed)
        << "minimized case must reproduce after a .repro round trip:\n"
        << to_repro(result.reduced);
    // ISSUE acceptance bar: the off-by-one shrinks to <= 8 vertices. In
    // practice it lands on one data edge matching a single-edge pattern.
    EXPECT_LE(result.reduced.graph.num_vertices(), 8u)
        << run_oracle(result.reduced).describe();
    EXPECT_LE(result.reduced.pattern.size(), c.pattern.size());
    EXPECT_GT(result.probes, 0u);
    return;
  }
  FAIL() << "no disagreeing case in 50 trials";
}

TEST(HarnessMinimize, ShrinksMqoPatternAxis) {
  // A failure that depends on one registered pattern: the minimizer must
  // drop every other extra while keeping that one.
  TestCase c = random_case(derive_seed(0x3902, 4));
  const Pattern needle = Pattern::parse("0-1,1-2,2-0,3-4,4-5,5-3,0-3,1-4,2-5");
  c.mqo_patterns = {Pattern::parse("0-1,1-2,2-0"), needle,
                    Pattern::parse("0-1,1-2,2-3")};
  const std::string canon = canonical_form(needle);
  const auto result = minimize(c, [&canon](const TestCase& t) {
    for (const Pattern& p : t.mqo_patterns)
      if (canonical_form(p) == canon) return true;
    return false;
  });
  EXPECT_TRUE(result.still_failing);
  ASSERT_EQ(result.reduced.mqo_patterns.size(), 1u);
  EXPECT_EQ(canonical_form(result.reduced.mqo_patterns[0]), canon);
}

TEST(HarnessMinimize, NonFailingInputReturnsImmediately) {
  const TestCase c = random_case(21);
  const auto result = minimize(c, [](const TestCase&) { return false; });
  EXPECT_FALSE(result.still_failing);
  EXPECT_EQ(result.probes, 1u);  // just the initial confirmation probe
}

TEST(HarnessMinimize, ThrowingPredicateIsUnresolvedNotFatal) {
  // A probe that throws counts as "candidate invalid": minimization keeps
  // going instead of crashing (regression: label-stripping shrinks used to
  // abort the run when engines rejected the candidate).
  const TestCase c = random_case(23);
  int calls = 0;
  const auto result = minimize(c, [&calls](const TestCase&) -> bool {
    if (++calls == 1) return true;  // original case "fails"
    throw check_error("synthetic probe failure");
  });
  EXPECT_TRUE(result.still_failing);
  // Nothing could shrink (every probe threw), so the case is unchanged.
  EXPECT_EQ(to_repro(result.reduced), to_repro(c));
}

TEST(HarnessMinimize, RespectsProbeBudget) {
  const TestCase c = random_case(29);
  harness::MinimizeOptions opts;
  opts.max_probes = 10;
  std::uint64_t calls = 0;
  const auto result = minimize(
      c,
      [&calls](const TestCase&) {
        ++calls;
        return true;  // everything "fails": shrinks forever without a cap
      },
      opts);
  EXPECT_LE(result.probes, opts.max_probes);
  EXPECT_EQ(result.probes, calls);
}

// ---------------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------------

TEST(HarnessRepro, RoundTripsEveryField) {
  for (std::uint64_t seed : {2ull, 12ull, 0xfeedull, 31ull}) {
    const TestCase c = random_case(seed);
    const std::string text = to_repro(c);
    const TestCase back = from_repro(text);
    EXPECT_EQ(to_repro(back), text) << "seed " << seed;
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.family, c.family);
    EXPECT_EQ(back.pattern, c.pattern);
    EXPECT_EQ(back.graph.num_vertices(), c.graph.num_vertices());
    EXPECT_EQ(back.graph.num_edges(), c.graph.num_edges());
    EXPECT_EQ(back.plan.induced, c.plan.induced);
    EXPECT_EQ(back.plan.count_mode, c.plan.count_mode);
    EXPECT_EQ(back.simt.unroll, c.simt.unroll);
    EXPECT_EQ(back.host.num_threads, c.host.num_threads);
    EXPECT_EQ(back.num_shards, c.num_shards);
    EXPECT_EQ(back.shard_strategy, c.shard_strategy);
    EXPECT_EQ(back.storage_backend, c.storage_backend);
    EXPECT_EQ(back.storage_budget_bytes, c.storage_budget_bytes);
    EXPECT_EQ(back.forced_isa, c.forced_isa);
    EXPECT_EQ(back.mqo_patterns, c.mqo_patterns);
  }
}

TEST(HarnessRepro, FixturesReserializeByteForByte) {
  // Files written by the format's writer from before the lane table (shard
  // knobs at their defaults, so no `shards` line): a labeled graph, labeled
  // and unlabeled mqo patterns, spill and compressed backends, ISA pins.
  for (const std::uint64_t seed : {94ull, 109ull, 145ull, 160ull, 165ull}) {
    const std::string path = std::string(STMATCH_TEST_DATA_DIR) +
                             "/harness/seed-" + std::to_string(seed) +
                             ".repro";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(to_repro(harness::load_repro(path)), text.str()) << path;
    EXPECT_EQ(to_repro(random_case(seed)), text.str()) << path;
  }
}

TEST(HarnessRepro, LaneSectionsRejectUnknownAndRepeatedKeys) {
  TestCase c = random_case(7);
  c.num_shards = 4;
  c.shard_strategy = dist::PartitionStrategy::kHash;
  const std::string text = to_repro(c);
  ASSERT_NE(text.find("shards 4 hash\n"), std::string::npos) << text;
  const std::size_t end = text.rfind("end\n");
  EXPECT_THROW(from_repro(text.substr(0, end) + "shards 2 hash\nend\n"),
               check_error);
  EXPECT_THROW(from_repro(text.substr(0, end) + "bogus 1\nend\n"),
               check_error);
  for (const char* line : {"shards 4 zigzag", "shards 0 hash",
                           "shards 4294967297 hash"}) {
    std::string bad = text;
    bad.replace(bad.find("shards 4 hash"), 13, line);
    EXPECT_THROW(from_repro(bad), check_error) << line;
  }
}

TEST(HarnessRepro, MqoPatternsRoundTrip) {
  TestCase c = random_case(7);
  c.mqo_patterns.clear();
  EXPECT_EQ(to_repro(c).find("mqo "), std::string::npos)
      << "empty pattern set must not be serialized";

  c.mqo_patterns = {
      Pattern::parse("0-1,1-2,2-0"),
      Pattern::parse("0-1,1-2").with_labels({0, 2, 1}),
  };
  const std::string text = to_repro(c);
  EXPECT_NE(text.find("mqo 2\n"), std::string::npos) << text;
  const TestCase back = from_repro(text);
  EXPECT_EQ(to_repro(back), text);
  ASSERT_EQ(back.mqo_patterns.size(), 2u);
  EXPECT_EQ(back.mqo_patterns[0], c.mqo_patterns[0]);
  EXPECT_EQ(back.mqo_patterns[1], c.mqo_patterns[1]);

  // Malformed mqo sections must throw, never half-parse.
  std::string bad = text;
  bad.replace(bad.find("mqo 2"), 5, "mqo 9");
  EXPECT_THROW(from_repro(bad), check_error);
  bad = text;
  bad.replace(bad.find("mqe 0 1"), 7, "mqe 0 7");
  EXPECT_THROW(from_repro(bad), check_error);
}

TEST(HarnessRepro, IsaLineRoundTripsAndRejectsUnknownNames) {
  TestCase c = random_case(7);
  c.forced_isa = harness::IsaPin::kAuto;
  EXPECT_EQ(to_repro(c).find("isa "), std::string::npos)
      << "default choice must not be serialized";
  c.forced_isa = harness::IsaPin::kAvx2;
  const std::string text = to_repro(c);
  EXPECT_NE(text.find("isa avx2\n"), std::string::npos) << text;
  EXPECT_EQ(from_repro(text).forced_isa, harness::IsaPin::kAvx2);

  std::string bad = text;
  bad.replace(bad.find("isa avx2"), 8, "isa mmx!");
  EXPECT_THROW(from_repro(bad), check_error);
}

TEST(HarnessRepro, ReplayedCaseProducesSameOracleVerdict) {
  const TestCase c = random_case(17);
  const TestCase back = from_repro(to_repro(c));
  EXPECT_EQ(run_oracle(back).expected, run_oracle(c).expected);
}

TEST(HarnessRepro, MalformedInputsThrow) {
  const std::string good = to_repro(random_case(3));
  EXPECT_THROW(from_repro(""), check_error);
  EXPECT_THROW(from_repro("bogus-magic 1\n"), check_error);
  EXPECT_THROW(from_repro("stmatch-repro 99\n"), check_error);
  // Truncation anywhere must throw, never half-parse.
  for (std::size_t cut : {good.size() / 4, good.size() / 2}) {
    EXPECT_THROW(from_repro(good.substr(0, cut)), check_error);
  }
  // Out-of-range edge endpoint.
  EXPECT_THROW(from_repro("stmatch-repro 1\nseed 1\nfamily corner\n"
                          "graph 2 1\ne 0 5\n"),
               check_error);
  // Trailing garbage after end.
  EXPECT_THROW(from_repro(good + "unexpected\n"), check_error);
}

TEST(HarnessRepro, FileSaveLoadRoundTrip) {
  const TestCase c = random_case(41);
  const std::string path =
      ::testing::TempDir() + "/stmatch_harness_roundtrip.repro";
  harness::save_repro(c, path);
  const TestCase back = harness::load_repro(path);
  EXPECT_EQ(to_repro(back), to_repro(c));
  std::remove(path.c_str());
  EXPECT_THROW(harness::load_repro(path), check_error);
}

// ---------------------------------------------------------------------------
// Lane table
// ---------------------------------------------------------------------------

/// The knobs of every lane that has any, printed, with their simplest
/// values; listed in the order the minimizer must reset them (ISA last).
struct LaneKnobs {
  const char* lane;
  std::string (*knobs)(const TestCase&);
  const char* simplest;
};

const LaneKnobs kLaneKnobs[] = {
    {"mqo",
     [](const TestCase& c) {
       std::string s;
       for (const Pattern& p : c.mqo_patterns) s += p.to_string() + ";";
       return s;
     },
     ""},
    {"sharded",
     [](const TestCase& c) {
       return std::to_string(c.num_shards) + "/" +
              dist::to_string(c.shard_strategy);
     },
     "1/contiguous"},
    {"storage",
     [](const TestCase& c) {
       return std::string(storage::to_string(c.storage_backend)) + "/" +
              std::to_string(c.storage_budget_bytes);
     },
     "uncompressed/0"},
    {"isa",
     [](const TestCase& c) {
       return std::string(harness::to_string(c.forced_isa));
     },
     "auto"},
};

TEST(HarnessLanes, KnobsRoundTripAndMinimizeToSimplestValues) {
  // Every lane that writes a .repro section is listed above.
  for (const harness::Lane& lane : harness::lanes()) {
    if (lane.section == nullptr) continue;
    EXPECT_TRUE(std::any_of(std::begin(kLaneKnobs), std::end(kLaneKnobs),
                            [&lane](const LaneKnobs& k) {
                              return std::string(k.lane) == lane.name;
                            }))
        << lane.name << " has a .repro section but no kLaneKnobs row";
  }

  const auto always = [](const TestCase&) { return true; };
  std::set<std::string> exercised;
  const TestCase* every_lane_off = nullptr;
  std::vector<TestCase> cases;
  for (std::uint64_t i = 0; i < 64; ++i)
    cases.push_back(random_case(derive_seed(0x1a9e, i)));
  for (const TestCase& c : cases) {
    const TestCase back = from_repro(to_repro(c));
    const TestCase reduced = minimize(c, always).reduced;
    bool all_off = true;
    for (const LaneKnobs& k : kLaneKnobs) {
      EXPECT_EQ(k.knobs(back), k.knobs(c))
          << k.lane << " knobs lost in a .repro round trip, seed " << c.seed;
      EXPECT_EQ(k.knobs(reduced), k.simplest)
          << k.lane << " knobs not minimized, seed " << c.seed;
      if (k.knobs(c) != k.simplest) {
        exercised.insert(k.lane);
      } else {
        all_off = false;
      }
    }
    if (all_off && every_lane_off == nullptr) every_lane_off = &c;
  }
  EXPECT_EQ(exercised.size(), std::size(kLaneKnobs));

  // Reset order: each lane's knobs first reach their simplest values in
  // table order, and the ISA reset is the minimizer's very last probe.
  ASSERT_NE(every_lane_off, nullptr) << "no seed sets every lane's knobs";
  std::vector<TestCase> probes;
  minimize(*every_lane_off, [&probes](const TestCase& t) {
    probes.push_back(t);
    return true;
  });
  std::size_t previous = 0;
  for (const LaneKnobs& k : kLaneKnobs) {
    const auto at = std::find_if(probes.begin(), probes.end(),
                                 [&k](const TestCase& t) {
                                   return k.knobs(t) == k.simplest;
                                 });
    ASSERT_NE(at, probes.end()) << k.lane;
    const auto index = static_cast<std::size_t>(at - probes.begin());
    EXPECT_GT(index, previous) << k.lane << " reset out of order";
    previous = index;
  }
  EXPECT_EQ(previous, probes.size() - 1) << "the ISA reset must run last";
}

}  // namespace
}  // namespace stm
