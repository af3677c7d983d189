// Differential / metamorphic fuzzing driver.
//
// Samples seeded (graph, pattern, config) cases, runs every engine through
// the differential oracle, periodically applies the metamorphic relation
// suite, and on any disagreement delta-debugs the case down to a minimal
// reproduction written as a .repro file that `--replay` re-runs:
//
//   fuzz_match --trials 500 --seed 42
//   fuzz_match --trials 2000 --seed $(date -u +%Y%m%d) --time-budget-s 300
//   fuzz_match --replay failure.min.repro
//
// Exit code 0 = all trials agreed, 1 = at least one failure (repros
// written), 2 = bad usage.

#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "testing/metamorphic.hpp"
#include "testing/minimize.hpp"
#include "testing/oracle.hpp"
#include "testing/repro.hpp"
#include "testing/seed.hpp"
#include "testing/workload.hpp"
#include "util/check.hpp"
#include "util/options.hpp"

namespace {

using namespace stm;
using namespace stm::harness;

void print_usage() {
  std::cout <<
      "usage: fuzz_match [options]\n"
      "  --trials=N             cases to sample (default 200)\n"
      "  --seed=S               base seed; STMATCH_FUZZ_SEED overrides\n"
      "                         (default 42)\n"
      "  --max-vertices=N       graph size cap, >= " << kMinGraphVertices
            << " (default 64)\n"
      "  --max-pattern=N        pattern size cap, in [" << kMinPatternCap
            << ", " << kMaxPatternSize << "] (default 6)\n"
      "  --metamorphic-every=N  run relation suite every Nth case, 0 = off\n"
      "                         (default 10)\n"
      "  --no-incremental       skip the incremental-replay oracle engine\n"
      "  --time-budget-s=N      stop sampling after N seconds, 0 = off\n"
      "  --out=DIR              directory for .repro artifacts (default .)\n"
      "  --replay=FILE          re-run the oracle on one .repro and exit\n"
      "  --quiet                only report failures and the final summary\n"
      "Options accept both --name=value and --name value forms.\n";
}

/// The repo's Options parser takes only `--name=value`; fold the two-token
/// `--name value` form into it so CI one-liners read naturally.
std::vector<std::string> join_spaced_args(int argc, char** argv) {
  const std::vector<std::string> value_flags = {
      "--trials",  "--seed", "--max-vertices",   "--max-pattern",
      "--out",     "--replay", "--metamorphic-every", "--time-budget-s"};
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool takes_value = false;
    for (const std::string& flag : value_flags)
      if (arg == flag) takes_value = true;
    if (takes_value && i + 1 < argc) {
      arg += "=";
      arg += argv[++i];
    }
    args.push_back(std::move(arg));
  }
  return args;
}

int replay(const std::string& path, const OracleOptions& opts) {
  const TestCase c = load_repro(path);
  std::cout << "replaying " << path << "\n  " << describe(c) << "\n";
  const OracleReport report = run_oracle(c, opts);
  std::cout << report.describe();
  const MetamorphicReport meta = check_metamorphic(c, c.seed);
  std::cout << "metamorphic: " << meta.describe();
  return report.agreed && meta.ok() ? 0 : 1;
}

struct FailureArtifact {
  std::string path;
  std::uint64_t seed = 0;
};

/// Minimizes `c` under `fails` and writes the reduced case next to --out.
FailureArtifact emit_repro(const TestCase& c, const FailurePredicate& fails,
                           const std::string& out_dir, const char* tag) {
  MinimizeOptions min_opts;
  const MinimizeResult result = minimize(c, fails, min_opts);
  const TestCase& reduced = result.still_failing ? result.reduced : c;
  std::ostringstream name;
  name << out_dir << "/fuzz-" << tag << "-seed" << c.seed << ".min.repro";
  save_repro(reduced, name.str());
  std::cout << "  minimized in " << result.probes << " probes over "
            << result.rounds << " round(s): "
            << reduced.graph.num_vertices() << " vertices, "
            << reduced.graph.num_edges() << " edges, pattern size "
            << reduced.pattern.size() << "\n"
            << "  wrote " << name.str() << "\n"
            << "  replay: fuzz_match --replay " << name.str() << "\n";
  return {name.str(), c.seed};
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> joined = join_spaced_args(argc, argv);
  std::vector<const char*> argp = {argv[0]};
  for (const std::string& a : joined) argp.push_back(a.c_str());

  try {
    const Options options(static_cast<int>(argp.size()), argp.data());
    options.allow_only({"trials", "seed", "max-vertices", "max-pattern",
                        "metamorphic-every", "no-incremental", "time-budget-s",
                        "out", "replay", "quiet", "help"});
    if (options.get_bool("help", false)) {
      print_usage();
      return 0;
    }

    const bool run_incremental = !options.get_bool("no-incremental", false);
    OracleOptions oracle_opts;
    if (!run_incremental) oracle_opts.skip.insert(EngineKind::kIncremental);
    if (options.has("replay"))
      return replay(options.get("replay", ""), oracle_opts);

    const std::uint64_t trials =
        static_cast<std::uint64_t>(options.get_int("trials", 200));
    const std::uint64_t seed = base_seed(
        static_cast<std::uint64_t>(options.get_int("seed", 42)));
    const std::uint64_t metamorphic_every =
        static_cast<std::uint64_t>(options.get_int("metamorphic-every", 10));
    const std::int64_t budget_s = options.get_int("time-budget-s", 0);
    const std::string out_dir = options.get("out", ".");
    const bool quiet = options.get_bool("quiet", false);

    // Checked against the generator's bounds here, before any trial runs.
    WorkloadOptions workload;
    const std::int64_t max_vertices =
        options.get_int("max-vertices", workload.max_vertices);
    STM_CHECK_MSG(max_vertices >= kMinGraphVertices &&
                      max_vertices <= std::numeric_limits<VertexId>::max(),
                  "--max-vertices must be in [" << kMinGraphVertices << ", "
                      << std::numeric_limits<VertexId>::max() << "]");
    workload.max_vertices = static_cast<VertexId>(max_vertices);
    const std::int64_t max_pattern = options.get_int(
        "max-pattern", static_cast<std::int64_t>(workload.max_pattern_size));
    STM_CHECK_MSG(max_pattern >= static_cast<std::int64_t>(kMinPatternCap) &&
                      max_pattern <= static_cast<std::int64_t>(kMaxPatternSize),
                  "--max-pattern must be in [" << kMinPatternCap << ", "
                                               << kMaxPatternSize << "]");
    workload.max_pattern_size = static_cast<std::size_t>(max_pattern);

    std::cout << "fuzz_match: " << trials << " trials, base seed " << seed
              << (run_incremental ? "" : ", incremental oracle off") << "\n";

    const auto start = std::chrono::steady_clock::now();
    std::vector<FailureArtifact> failures;
    std::uint64_t ran = 0, metamorphic_runs = 0;
    std::uint64_t family_counts[kNumGraphFamilies] = {};

    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      if (budget_s > 0) {
        const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - start);
        if (elapsed.count() >= budget_s) {
          std::cout << "time budget of " << budget_s << "s reached after "
                    << ran << " trials\n";
          break;
        }
      }
      const std::uint64_t case_seed = derive_seed(seed, trial);
      const TestCase c = random_case(case_seed, workload);
      ++ran;
      ++family_counts[static_cast<std::size_t>(c.family)];

      const OracleReport report = run_oracle(c, oracle_opts);
      if (!report.agreed) {
        std::cout << "FAIL (differential) case seed " << case_seed << "\n  "
                  << describe(c) << "\n" << report.describe();
        failures.push_back(emit_repro(
            c,
            [&oracle_opts](const TestCase& t) {
              return !run_oracle(t, oracle_opts).agreed;
            },
            out_dir, "diff"));
        continue;
      }

      if (metamorphic_every > 0 && trial % metamorphic_every == 0) {
        ++metamorphic_runs;
        const MetamorphicReport meta = check_metamorphic(c, case_seed);
        if (!meta.ok()) {
          std::cout << "FAIL (metamorphic) case seed " << case_seed << "\n  "
                    << describe(c) << "\n" << meta.describe();
          failures.push_back(emit_repro(
              c,
              [case_seed](const TestCase& t) {
                return metamorphic_violated(t, case_seed);
              },
              out_dir, "meta"));
          continue;
        }
      }

      if (!quiet && ran % 100 == 0)
        std::cout << "  " << ran << "/" << trials << " trials OK\n";
    }

    std::cout << "ran " << ran << " trials (" << metamorphic_runs
              << " with metamorphic relations); families:";
    for (std::size_t f = 0; f < kNumGraphFamilies; ++f)
      std::cout << " " << to_string(static_cast<GraphFamily>(f)) << "="
                << family_counts[f];
    std::cout << "\n";

    if (!failures.empty()) {
      std::cout << failures.size() << " failure(s); minimized repros:\n";
      for (const FailureArtifact& f : failures)
        std::cout << "  " << f.path << "  (seed " << f.seed << ")\n";
      return 1;
    }
    std::cout << "all engines agreed on every case\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fuzz_match: " << e.what() << "\n";
    print_usage();
    return 2;
  }
}
