// Durability walkthrough: write-ahead logging, checkpoints, and crash
// recovery on a GraphSession (DESIGN.md §13).
//
//   ./example_persist_demo                     guided tour in a temp dir
//   ./example_persist_demo --serve --dir=D     apply batches forever (kill me)
//   ./example_persist_demo --verify --dir=D    recover D and check invariants
//
// The --serve / --verify pair is the CI kill-restart gate: CI SIGKILLs the
// serving process mid-update-stream and then asserts that a reopened
// session recovers a consistent prefix — the recovered standing-query count
// must equal a from-scratch enumeration of the recovered graph, and the
// epoch must equal the number of acknowledged batches. Recovery must also
// re-walk at most one batch: every batch logs its standing counts, and the
// server does not fsync, so the gate covers counts records that never were.
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "persist/wal.hpp"
#include "service/service.hpp"
#include "util/check.hpp"
#include "util/options.hpp"

namespace {

using namespace stm;

constexpr VertexId kVertices = 200;

Graph seed_graph() { return make_barabasi_albert(kVertices, 4, 9); }

Pattern triangle() { return Pattern::parse("0-1,1-2,2-0"); }

/// Deterministic batch stream shared by every mode: batch k is always the
/// same, so a recovered prefix is a prefix of the same history.
UpdateBatch make_batch(std::uint64_t k) {
  UpdateBatch b;
  const auto v = [](std::uint64_t x) {
    return static_cast<VertexId>((x * 2654435761ull + 3) % kVertices);
  };
  for (std::uint64_t i = 0; i < 6; ++i) {
    VertexId a = v(k * 17 + i), c = v(k * 17 + i + 311);
    if (a == c) c = (c + 1) % kVertices;
    b.insertions.emplace_back(a, c);
  }
  if (k > 0) {
    VertexId a = v((k - 1) * 17), c = v((k - 1) * 17 + 311);
    if (a == c) c = (c + 1) % kVertices;
    b.deletions.emplace_back(a, c);
  }
  return b;
}

std::uint64_t full_triangle_count(GraphSession& s) {
  QueryRequest req;
  req.pattern = triangle();
  req.plan.count_mode = CountMode::kEmbeddings;
  const QueryResult r = s.run(req);
  STM_CHECK_MSG(r.ok(), "triangle enumeration failed: " << r.error);
  return r.count;
}

SessionConfig session_cfg(const std::string& dir, bool fsync,
                          std::uint32_t checkpoint_every) {
  SessionConfig cfg;
  cfg.persistence.dir = dir;
  cfg.persistence.fsync = fsync;
  cfg.persistence.checkpoint_every_batches = checkpoint_every;
  return cfg;
}

/// Applies the deterministic batch stream until killed. Every acknowledged
/// batch is WAL-logged before the ack prints, so the printed high-water
/// mark is a lower bound on what --verify must recover.
int serve(const std::string& dir, std::uint64_t max_batches) {
  GraphSession session(seed_graph(),
                       session_cfg(dir, /*fsync=*/false,
                                   /*checkpoint_every=*/16));
  StandingQueryConfig sq;
  sq.pattern = triangle();
  sq.plan.count_mode = CountMode::kEmbeddings;
  const std::uint64_t id = session.register_standing_query(sq);
  std::printf("serving: dir=%s standing=%llu epoch=%llu\n", dir.c_str(),
              static_cast<unsigned long long>(id),
              static_cast<unsigned long long>(session.epoch()));
  std::fflush(stdout);
  for (std::uint64_t k = session.epoch(); max_batches == 0 || k < max_batches;
       ++k) {
    const UpdateOutcome out = session.apply_updates(make_batch(k));
    STM_CHECK_MSG(out.ok(), "batch " << k << " failed: " << out.error);
    if (out.epoch % 8 == 0) {
      std::printf("acked batch %llu: triangles=%llu\n",
                  static_cast<unsigned long long>(out.epoch),
                  static_cast<unsigned long long>(
                      session.standing_query(id)->count));
      std::fflush(stdout);
    }
  }
  return 0;
}

/// Recovers the directory and checks the durability invariants. Exit 0 iff
/// the recovered state is a consistent acknowledged prefix.
int verify(const std::string& dir) {
  auto session = GraphSession::restore(session_cfg(dir, false, 0));
  const persist::RecoveryReport& rep = session->recovery_report();
  std::printf("recovered: epoch=%llu checkpoint_seq=%llu replayed=%llu "
              "walked_batches=%llu torn_tail=%s discarded=%llu "
              "recovery_ms=%.2f\n",
              static_cast<unsigned long long>(session->epoch()),
              static_cast<unsigned long long>(rep.checkpoint_seq),
              static_cast<unsigned long long>(rep.replayed_batches),
              static_cast<unsigned long long>(rep.walked_batches),
              rep.wal_torn_tail ? "yes" : "no",
              static_cast<unsigned long long>(rep.wal_discarded_bytes),
              rep.recovery_ms);

  // Invariant 1: the standing query survived with its count intact, and
  // that count equals a from-scratch enumeration of the recovered graph.
  const auto info = session->standing_query(1);
  STM_CHECK_MSG(info.has_value(), "standing query lost in recovery");
  const std::uint64_t fresh = full_triangle_count(*session);
  STM_CHECK_MSG(info->count == fresh,
                "recovered standing count " << info->count
                                            << " != fresh enumeration "
                                            << fresh);
  // Invariant 2: the count is stamped with the recovered epoch.
  STM_CHECK_MSG(info->epoch == session->epoch(),
                "standing epoch " << info->epoch << " != session epoch "
                                  << session->epoch());
  // Invariant 3: the counts came from the log, not from re-walking it: only
  // a batch whose counts record the kill cut off is walked again.
  STM_CHECK_MSG(rep.walked_batches <= 1,
                "recovery walked " << rep.walked_batches
                                   << " batches; at most 1 expected");
  // Invariant 4: the session is live — the deterministic history continues
  // exactly from the recovered prefix.
  const UpdateOutcome out =
      session->apply_updates(make_batch(session->epoch()));
  STM_CHECK_MSG(out.ok(), "post-recovery batch failed: " << out.error);
  STM_CHECK(session->standing_query(1)->count == full_triangle_count(*session));
  std::printf("verify ok: standing count %llu matches fresh enumeration, "
              "session live at epoch %llu\n",
              static_cast<unsigned long long>(info->count),
              static_cast<unsigned long long>(out.epoch));
  return 0;
}

int tour() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "stmatch-persist-demo";
  fs::remove_all(dir);

  std::printf("== 1. a persistent session logs every batch ==\n");
  std::uint64_t count = 0, epoch = 0;
  {
    GraphSession session(seed_graph(), session_cfg(dir.string(), true, 0));
    StandingQueryConfig sq;
    sq.pattern = triangle();
    sq.plan.count_mode = CountMode::kEmbeddings;
    const std::uint64_t id = session.register_standing_query(sq);
    for (std::uint64_t k = 0; k < 5; ++k) {
      const UpdateOutcome out = session.apply_updates(make_batch(k));
      STM_CHECK(out.ok());
      std::printf("  batch %llu: +%llu/-%llu edges, triangles=%llu\n",
                  static_cast<unsigned long long>(out.epoch),
                  static_cast<unsigned long long>(out.stats.inserted),
                  static_cast<unsigned long long>(out.stats.deleted),
                  static_cast<unsigned long long>(
                      session.standing_query(id)->count));
    }
    count = session.standing_query(id)->count;
    epoch = session.epoch();
    // No clean shutdown handshake exists or is needed: the WAL already
    // holds everything acknowledged above.
  }

  std::printf("\n== 2. reopening replays the log (a 'crash' recovery) ==\n");
  {
    auto session = GraphSession::restore(session_cfg(dir.string(), true, 0));
    std::printf("  recovered epoch=%llu replayed=%llu standing count=%llu\n",
                static_cast<unsigned long long>(session->epoch()),
                static_cast<unsigned long long>(
                    session->recovery_report().replayed_batches),
                static_cast<unsigned long long>(
                    session->standing_query(1)->count));
    STM_CHECK(session->epoch() == epoch);
    STM_CHECK(session->standing_query(1)->count == count);

    std::printf("\n== 3. a checkpoint folds the log into a snapshot ==\n");
    STM_CHECK(session->checkpoint());
    const auto wal = persist::read_wal((dir / "wal.stmwal").string());
    std::printf("  after checkpoint: wal holds %zu records\n",
                wal.records.size());
    std::printf("  metrics: %s\n",
                session->metrics()
                    .counter("checkpoints_written")
                    .value() > 0
                        ? "checkpoints_written > 0"
                        : "?");
  }

  std::printf("\n== 4. recovery now starts from the checkpoint ==\n");
  {
    auto session = GraphSession::restore(session_cfg(dir.string(), true, 0));
    std::printf("  checkpoint epoch=%llu, replayed=%llu batches\n",
                static_cast<unsigned long long>(
                    session->recovery_report().checkpoint_epoch),
                static_cast<unsigned long long>(
                    session->recovery_report().replayed_batches));
    STM_CHECK(session->recovery_report().replayed_batches == 0);
    STM_CHECK(session->standing_query(1)->count == count);
  }
  fs::remove_all(dir);
  std::printf("\ndemo ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  opts.allow_only({"serve", "verify", "dir", "max-batches"});
  const std::string dir = opts.get("dir", "");
  if (opts.get_bool("serve", false)) {
    STM_CHECK_MSG(!dir.empty(), "--serve requires --dir");
    return serve(dir,
                 static_cast<std::uint64_t>(opts.get_int("max-batches", 0)));
  }
  if (opts.get_bool("verify", false)) {
    STM_CHECK_MSG(!dir.empty(), "--verify requires --dir");
    return verify(dir);
  }
  return tour();
} catch (const std::exception& e) {
  std::fprintf(stderr, "persist_demo: %s\n", e.what());
  return 1;
}
