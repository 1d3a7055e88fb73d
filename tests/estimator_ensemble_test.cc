// The estimator ensemble: ONCE / dne / byte run concurrently off the same
// live counters, an online selector scores them against realized progress,
// and the published T̂ follows the winner. The skewed grace-join scenario is
// the paper's Figures 4–6 setup — the join phase re-reads the probe side
// partition-clustered, so dne/byte fluctuate while ONCE stays exact — and
// the selector must converge to ONCE there. The feedback cache persists
// audited accuracy across queries and seeds the next selector's prior.

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/table_builder.h"
#include "estimators/baselines.h"
#include "estimators/feedback_cache.h"
#include "exec/compiler.h"
#include "exec/grace_hash_join.h"
#include "progress/accuracy_audit.h"
#include "progress/ensemble.h"
#include "progress/gnm.h"
#include "progress/query_run.h"
#include "progress/trace_ring.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TablePtr MakeSkewed(const std::string& name, uint64_t rows, double z,
                    uint32_t domain, uint64_t peak_seed, uint64_t seed) {
  TableBuilder b(name);
  b.AddColumn("k", std::make_unique<ZipfSpec>(z, domain, peak_seed))
      .AddColumn("id", std::make_unique<SequentialSpec>(0));
  return b.Build(rows, seed);
}

/// Everything one ensemble-instrumented execution produces. `query` owns
/// the tree, accountant and ensemble; the raw pointers view into it.
struct RunResult {
  std::unique_ptr<QueryRun> query;
  Operator* root = nullptr;
  EstimatorEnsemble* ensemble = nullptr;
  std::vector<std::string> labels;
  std::vector<TraceSample> samples;
  AccuracyReport report;
  uint64_t rows = 0;
};

/// Compile `plan` and run it through the production lifecycle
/// (QueryRun::Execute): TracePublisher on the tick path with the ensemble
/// attached, published T̂ routed through the selector, terminal sample
/// carrying the candidate columns, audit computed from the retained curve.
/// `tweak` (optional) edits the compiled tree before the run is wired
/// (e.g. to fake a wrong optimizer estimate).
void RunWithEnsemble(std::unique_ptr<ExecContext> ctx, PlanNodePtr plan,
                     FeedbackCache* cache, uint64_t publish_interval,
                     RunResult* out, void (*tweak)(Operator*) = nullptr) {
  ASSERT_TRUE(ctx->Validate().ok());
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), ctx.get(), &root).ok());
  if (tweak != nullptr) tweak(root.get());
  out->query = std::make_unique<QueryRun>(std::move(root), std::move(ctx),
                                          /*trace_capacity=*/256,
                                          /*with_ensemble=*/true, cache);
  QueryRun& query = *out->query;
  query.Execute(nullptr, publish_interval,
                [out](QueryRun::Terminal terminal,
                      const AccuracyReport& report) {
                  EXPECT_EQ(terminal, QueryRun::Terminal::kFinished);
                  out->report = report;
                });
  ASSERT_TRUE(query.status.ok()) << query.status.ToString();
  out->root = query.root.get();
  out->ensemble = query.ensemble.get();
  out->labels = query.op_labels;
  out->samples = query.trace->Samples();
  out->rows = query.rows_emitted.load();
}

/// |log R| — distance of an accuracy ratio from perfect; +inf when the
/// ratio itself is unusable.
double LogDistance(double r) {
  if (!std::isfinite(r) || r <= 0) return kInf;
  return std::fabs(std::log(r));
}

class EnsembleFixture : public ::testing::Test {
 protected:
  void AddSkewedPair(uint64_t build_rows, uint64_t probe_rows, double z,
                     uint32_t domain) {
    // Same peak_seed on both sides: the hot keys line up, the join output
    // is dominated by a few dense partitions, and the join phase's
    // partition-clustered re-read makes dne/byte swing (Figures 4–6).
    TablePtr b = MakeSkewed("b", build_rows, z, domain, 1, 5);
    TablePtr p = MakeSkewed("p", probe_rows, z, domain, 1, 6);
    ASSERT_TRUE(catalog.Register(b).ok());
    ASSERT_TRUE(catalog.Analyze("b").ok());
    ASSERT_TRUE(catalog.Register(p).ok());
    ASSERT_TRUE(catalog.Analyze("p").ok());
    ctx->catalog = &catalog;
  }

  Catalog catalog;
  std::unique_ptr<ExecContext> ctx = std::make_unique<ExecContext>();
};

// --- the acceptance scenario -----------------------------------------------

TEST_F(EnsembleFixture, SkewedGraceJoinSelectorConvergesToOnce) {
  AddSkewedPair(2000, 3000, 1.2, 40);
  ctx->mode = EstimationMode::kOnce;
  RunResult run;
  RunWithEnsemble(std::move(ctx),
                  HashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k", "p.k"),
                  nullptr, 64, &run);
  ASSERT_TRUE(run.report.valid);
  ASSERT_GT(run.rows, 0u);

  // The selector converged to ONCE at the join (pre-order op 0 is the
  // root join), despite dne/byte running concurrently the whole time.
  auto* join = dynamic_cast<GraceHashJoinOp*>(run.root);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(run.ensemble->SelectedFor(join), EstimationMode::kOnce);

  // Acceptance: at the 50% checkpoint the published T̂'s accuracy ratio is
  // strictly closer to 1 than the worst standalone candidate's.
  const CheckpointAccuracy& cp = run.report.checkpoints[1];
  ASSERT_DOUBLE_EQ(cp.fraction, 0.5);
  ASSERT_FALSE(cp.degenerate)
      << "join must be long enough for a live 50% sample";
  ASSERT_EQ(cp.candidate_r.size(), kNumEstimatorCandidates);
  double published = LogDistance(cp.r);
  ASSERT_TRUE(std::isfinite(published));
  double worst = 0;
  for (double r : cp.candidate_r) worst = std::max(worst, LogDistance(r));
  EXPECT_LT(published, worst)
      << "published r=" << cp.r << " once=" << cp.candidate_r[0]
      << " dne=" << cp.candidate_r[1] << " byte=" << cp.candidate_r[2];

  // And the winner is genuinely the paper's estimator: the published curve
  // tracks the ONCE candidate's curve at that checkpoint.
  EXPECT_NEAR(published, LogDistance(cp.candidate_r[0]), 1e-9);

  // Terminal invariant: every candidate's total collapses to C.
  const TraceSample& terminal = run.samples.back();
  ASSERT_TRUE(terminal.terminal);
  ASSERT_EQ(terminal.total_candidate.size(), kNumEstimatorCandidates);
  for (double total : terminal.total_candidate) {
    EXPECT_DOUBLE_EQ(total, terminal.calls);
  }
}

TEST_F(EnsembleFixture, WrongLowOptimizerMakesByteLose) {
  AddSkewedPair(1500, 2000, 1.5, 30);
  ctx->mode = EstimationMode::kOnce;
  RunResult run;
  // The wrong-optimizer case from Figure 4: the join's cost-model estimate
  // is ~100x low, so byte's (1−f)·opt term drags its estimate below the
  // output the join has already produced — a violation the selector's loss
  // punishes — while ONCE stays exact off the live hash tables.
  RunWithEnsemble(
      std::move(ctx), HashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k", "p.k"),
      nullptr, 64, &run,
      +[](Operator* root) { root->set_optimizer_estimate(50.0); });
  ASSERT_TRUE(run.report.valid);
  ASSERT_GT(run.rows, 5000u) << "join output must dwarf the faked estimate";

  auto* join = dynamic_cast<GraceHashJoinOp*>(run.root);
  ASSERT_NE(join, nullptr);
  EXPECT_NE(run.ensemble->SelectedFor(join), EstimationMode::kByte);
  double once_score = run.ensemble->Score(join, EstimationMode::kOnce);
  double byte_score = run.ensemble->Score(join, EstimationMode::kByte);
  ASSERT_TRUE(std::isfinite(once_score));
  ASSERT_TRUE(std::isfinite(byte_score));
  EXPECT_GT(byte_score, once_score);

  // The audit agrees: at the 50% checkpoint byte's own curve is farther
  // from the truth than the curve the selector published.
  const CheckpointAccuracy& cp = run.report.checkpoints[1];
  if (!cp.degenerate) {
    ASSERT_EQ(cp.candidate_r.size(), kNumEstimatorCandidates);
    EXPECT_GT(LogDistance(cp.candidate_r[2]), LogDistance(cp.r));
  }
}

// An ORDER BY emits exactly its input, so while it and the join below it
// run, the sort's estimate under each candidate must be the join's under
// that same candidate — not the context mode's estimate for all three.
TEST_F(EnsembleFixture, SortForwardsEveryCandidateToItsInput) {
  AddSkewedPair(600, 800, 1.0, 30);
  ctx->mode = EstimationMode::kOnce;
  ctx->batch_size = 16;
  PlanNodePtr plan = SortPlan(
      HashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k", "p.k"), {"b.id"});
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), ctx.get(), &root).ok());
  auto* join = dynamic_cast<GraceHashJoinOp*>(root->child(0));
  ASSERT_NE(join, nullptr);

  size_t ticks_checked = 0;
  size_t mismatches = 0;
  bool dne_differs = false;
  FunctionTickObserver observer([&](uint64_t) {
    if (root->state() != OpState::kRunning ||
        join->state() != OpState::kRunning) {
      return;
    }
    ++ticks_checked;
    for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
      auto mode = static_cast<EstimationMode>(c);
      if (root->CardinalityEstimate(mode) != join->CardinalityEstimate(mode)) {
        ++mismatches;
      }
    }
    if (join->CardinalityEstimate(EstimationMode::kDne) !=
        join->CardinalityEstimate(EstimationMode::kOnce)) {
      dne_differs = true;
    }
  });
  ASSERT_TRUE(root->Open(ctx.get()).ok());
  ctx->AddTickObserver(&observer);
  ctx->BeginExecution();
  RowBatch batch(ctx->batch_size);
  uint64_t rows = 0;
  while (root->NextBatch(&batch)) rows += batch.size();
  root->Close();
  ctx->EndExecution();
  ctx->RemoveTickObserver(&observer);

  ASSERT_GT(rows, 0u);
  EXPECT_GT(ticks_checked, 0u);
  EXPECT_EQ(mismatches, 0u) << "of " << ticks_checked << " ticks";
  EXPECT_TRUE(dne_differs) << "the join's candidates never diverged";
}

// --- candidate curves across execution configurations ----------------------

class EnsembleSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(EnsembleSweep, CandidateColumnsWellFormedInEveryConfig) {
  auto [workers, batch_size] = GetParam();
  Catalog catalog;
  auto ctx = std::make_unique<ExecContext>();
  ctx->catalog = &catalog;
  ctx->exec_workers = workers;
  ctx->batch_size = batch_size;
  ctx->mode = EstimationMode::kOnce;
  TablePtr b = MakeSkewed("b", 600, 1.0, 30, 1, 11);
  TablePtr p = MakeSkewed("p", 800, 1.0, 30, 1, 12);
  ASSERT_TRUE(catalog.Register(b).ok());
  ASSERT_TRUE(catalog.Analyze("b").ok());
  ASSERT_TRUE(catalog.Register(p).ok());
  ASSERT_TRUE(catalog.Analyze("p").ok());

  RunResult run;
  RunWithEnsemble(std::move(ctx),
                  HashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k", "p.k"),
                  nullptr, 32, &run);
  ASSERT_TRUE(run.report.valid);
  ASSERT_GT(run.rows, 0u);

  size_t num_ops = run.labels.size();
  bool saw_candidates = false;
  for (const TraceSample& s : run.samples) {
    if (s.total_candidate.empty()) continue;  // pre-first-observation
    saw_candidates = true;
    ASSERT_EQ(s.total_candidate.size(), kNumEstimatorCandidates);
    ASSERT_EQ(s.op_candidate.size(), num_ops * kNumEstimatorCandidates);
    ASSERT_EQ(s.op_selected.size(), num_ops);
    for (double total : s.total_candidate) {
      EXPECT_TRUE(std::isfinite(total));
      EXPECT_GE(total, 0.0);
      // Every candidate's T̂ respects realized progress at the sample.
      EXPECT_GE(total, s.calls * 0.0);
    }
    for (uint8_t pick : s.op_selected) {
      EXPECT_LT(pick, kNumEstimatorCandidates);
    }
  }
  EXPECT_TRUE(saw_candidates);

  const TraceSample& terminal = run.samples.back();
  ASSERT_TRUE(terminal.terminal);
  for (double total : terminal.total_candidate) {
    EXPECT_DOUBLE_EQ(total, terminal.calls);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkersAndBatches, EnsembleSweep,
                         ::testing::Combine(::testing::Values(1u, 4u),
                                            ::testing::Values(1u, 1024u)));

// --- degenerate checkpoints -------------------------------------------------

TEST(DegenerateCheckpoints, TerminalOnlyTraceFlagsAllCheckpoints) {
  TraceSample terminal;
  terminal.tick = 100;
  terminal.calls = 100;
  terminal.total_estimate = 100;
  terminal.terminal = true;
  AccuracyReport report = ComputeAccuracyReport({terminal}, {});
  ASSERT_TRUE(report.valid);
  ASSERT_EQ(report.checkpoints.size(), 3u);
  for (const CheckpointAccuracy& cp : report.checkpoints) {
    EXPECT_TRUE(cp.degenerate);
    EXPECT_DOUBLE_EQ(cp.r, 1.0);  // R = 1 by construction, no information
  }
  std::string json = AccuracyReportJson(report);
  EXPECT_NE(json.find("\"degenerate\":true"), std::string::npos);
  EXPECT_EQ(json.find("\"degenerate\":false"), std::string::npos);
}

TEST(DegenerateCheckpoints, LiveSamplesStayUnflagged) {
  std::vector<TraceSample> samples;
  TraceSample early;
  early.tick = 10;
  early.calls = 30;  // covers the 25% checkpoint of T = 100
  early.total_estimate = 60;
  samples.push_back(early);
  TraceSample terminal;
  terminal.tick = 100;
  terminal.calls = 100;
  terminal.total_estimate = 100;
  terminal.terminal = true;
  samples.push_back(terminal);
  AccuracyReport report = ComputeAccuracyReport(samples, {});
  ASSERT_EQ(report.checkpoints.size(), 3u);
  EXPECT_FALSE(report.checkpoints[0].degenerate);
  EXPECT_NEAR(report.checkpoints[0].r, 100.0 / 60.0, 1e-12);
  EXPECT_TRUE(report.checkpoints[1].degenerate);
  EXPECT_TRUE(report.checkpoints[2].degenerate);
}

TEST_F(EnsembleFixture, FinalizeIgnoresDegenerateOnlyAudits) {
  AddSkewedPair(200, 200, 0.0, 50);
  ctx->mode = EstimationMode::kOnce;
  FeedbackCache cache;
  RunResult run;
  // A publish interval far past the query's length: the only retained
  // sample is the terminal one, every checkpoint is degenerate, and the
  // feedback deposit must be empty — R = 1 there would otherwise flatter
  // every candidate equally and poison the prior.
  RunWithEnsemble(std::move(ctx),
                  HashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k", "p.k"),
                  &cache, 1u << 30, &run);
  ASSERT_TRUE(run.report.valid);
  run.ensemble->Finalize(run.report);
  EXPECT_EQ(cache.size(), 0u);
}

// --- feedback cache ---------------------------------------------------------

TEST_F(EnsembleFixture, FeedbackCacheSeedsSelectorPrior) {
  AddSkewedPair(300, 400, 1.0, 30);
  ctx->mode = EstimationMode::kOnce;
  PlanNodePtr plan = HashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k", "p.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), ctx.get(), &root).ok());
  GnmAccountant accountant(root.get());
  uint64_t fp = PlanFingerprint(accountant);
  ASSERT_NE(fp, 0u);

  const Operator* join = accountant.operators()[0];
  std::string kind = OperatorKindFromLabel(join->label());
  EXPECT_EQ(kind, "HashJoin");

  FeedbackCache cache;
  cache.Update(fp, kind, 0, 0.01);  // once: near-perfect history
  cache.Update(fp, kind, 1, 4.0);   // dne: burned us before
  cache.Update(fp, kind, 2, 3.0);   // byte

  EstimatorEnsemble ensemble(&accountant, ctx.get(), &cache);
  // Priors arrive scaled by kPriorScale.
  double scale = EstimatorEnsemble::kPriorScale;
  EXPECT_DOUBLE_EQ(ensemble.Score(join, EstimationMode::kOnce),
                   scale * 0.01);
  EXPECT_DOUBLE_EQ(ensemble.Score(join, EstimationMode::kDne),
                   scale * 4.0);
  EXPECT_DOUBLE_EQ(ensemble.Score(join, EstimationMode::kByte),
                   scale * 3.0);
  EXPECT_EQ(ensemble.SelectedFor(join), EstimationMode::kOnce);

  // Kind-level fallback: a plan with a different fingerprint still finds
  // the HashJoin prior through the fingerprint-0 namespace.
  FeedbackCache::Entry entry;
  ASSERT_TRUE(cache.Lookup(fp ^ 0x1234, kind, &entry));
  EXPECT_GT(entry.count[1], 0u);
}

TEST(FeedbackCache, JsonAndFileRoundTrip) {
  FeedbackCache cache(0.3);
  cache.Update(0xdeadbeefULL, "HashJoin", 0, 0.125);
  cache.Update(0xdeadbeefULL, "HashJoin", 1, 2.5);
  cache.Update(0xfeedULL, "SeqScan", 2, 0.75);

  std::string json = cache.ToJson();
  FeedbackCache decoded;
  ASSERT_TRUE(decoded.FromJson(json).ok());
  FeedbackCache::Entry a, b;
  ASSERT_TRUE(cache.Lookup(0xdeadbeefULL, "HashJoin", &a));
  ASSERT_TRUE(decoded.Lookup(0xdeadbeefULL, "HashJoin", &b));
  for (size_t c = 0; c < kFeedbackCandidates; ++c) {
    EXPECT_EQ(a.count[c], b.count[c]);
    if (a.count[c] > 0) {
      EXPECT_DOUBLE_EQ(a.score[c], b.score[c]);
    }
  }

  std::string path = ::testing::TempDir() + "qpi_feedback_cache_test.json";
  ASSERT_TRUE(cache.SaveToFile(path).ok());
  FeedbackCache loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(loaded.size(), cache.size());
  ASSERT_TRUE(loaded.Lookup(0xfeedULL, "SeqScan", &b));
  EXPECT_GT(b.count[2], 0u);
  std::remove(path.c_str());

  // Garbage degrades to an error, never UB; the cache stays usable.
  FeedbackCache sturdy;
  EXPECT_FALSE(sturdy.FromJson("{not json").ok());
  EXPECT_FALSE(sturdy.LoadFromFile("/nonexistent/qpi/cache.json").ok());
}

// --- baseline clamps (satellite: driver_total below consumed) ---------------

#ifdef NDEBUG
// The clamp is the release-build behavior; a debug build intentionally
// trips QPI_DCHECK on the same inputs, so these run only under NDEBUG.
TEST(BaselineClamp, DneClampsDriverTotalToConsumed) {
  DneEstimator dne(100.0);
  dne.Update(/*driver_seen=*/10, /*emitted=*/4);
  // A live child estimate can transiently lag the consumed count (the
  // index-NL outer total is itself an estimate); the clamp keeps the
  // extrapolation at the observed rate instead of deflating it.
  EXPECT_DOUBLE_EQ(dne.Estimate(6.0), 4.0);
  EXPECT_DOUBLE_EQ(dne.Estimate(20.0), 8.0);  // sane totals still scale
}

TEST(BaselineClamp, ByteClampsDriverTotalToConsumed) {
  ByteEstimator byte(100.0);
  byte.Update(/*driver_seen=*/10, /*emitted=*/4);
  // Clamped total ⇒ f = 1 ⇒ pure observed rate, no optimizer pull.
  EXPECT_DOUBLE_EQ(byte.Estimate(6.0), 4.0);
  EXPECT_DOUBLE_EQ(byte.Estimate(0.0), 100.0);  // no driver yet ⇒ optimizer
  double blended = byte.Estimate(20.0);
  EXPECT_GT(blended, 4.0);
  EXPECT_LT(blended, 100.0);
}
#endif  // NDEBUG

}  // namespace
}  // namespace qpi
