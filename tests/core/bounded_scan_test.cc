// Differential test of the bounded document scan: ScanTopK with top_k > 0
// visits only the clusters that can reach the top k, and must return
// exactly what the full ranking (ScanTopK with top_k == 0) truncated to
// top_k returns — the same ids and the same score bits.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/lsi_index.h"
#include "model/separable_model.h"
#include "obs/metrics.h"
#include "par/par.h"
#include "text/term_weighting.h"
#include "test_util.h"

namespace lsi::core {
namespace {

using linalg::DenseMatrix;
using linalg::DenseVector;
using Rows = LsiIndex::Rows;

constexpr std::size_t kNoRow = LsiIndex::kNoRow;

std::uint64_t Bits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

std::uint64_t RowsScored() {
  return obs::MetricsRegistry::Global()
      .GetCounter("lsi.index.rows_scored")
      .value();
}

// The full ranking, cut to top_k: the reference every bounded scan must
// reproduce.
std::vector<SearchResult> Oracle(const LsiIndex& index, const double* probe,
                                 std::size_t top_k,
                                 std::size_t exclude = kNoRow) {
  std::vector<SearchResult> all =
      index.ScanTopK(Rows::kDocuments, probe, 0, exclude);
  if (all.size() > top_k) all.resize(top_k);
  return all;
}

void ExpectSameRanking(const std::vector<SearchResult>& actual,
                       const std::vector<SearchResult>& expected,
                       const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].document, expected[i].document)
        << context << " rank " << i;
    EXPECT_EQ(Bits(actual[i].score), Bits(expected[i].score))
        << context << " rank " << i;
  }
}

void ExpectExact(const LsiIndex& index, const double* probe,
                 std::size_t top_k, std::size_t exclude,
                 const std::string& context) {
  ExpectSameRanking(
      index.ScanTopK(Rows::kDocuments, probe, top_k, exclude),
      Oracle(index, probe, top_k, exclude),
      context + " top_k=" + std::to_string(top_k) +
          " exclude=" + std::to_string(exclude));
}

// An index whose document rows are exactly `rows`: U_k is the identity
// on the first k terms (two spare terms stay unused) and D_k = I, so a
// fold-in of weights on terms 0..k-1 lands on exactly those weights.
LsiIndex Crafted(const DenseMatrix& rows) {
  const std::size_t k = rows.cols();
  linalg::SvdResult svd;
  svd.u = DenseMatrix(k + 2, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) svd.u(i, i) = 1.0;
  svd.singular_values = DenseVector(k, 1.0);
  svd.v = rows;
  return LsiIndex::FromSvd(std::move(svd)).value();
}

TermWeights AsTerms(const DenseVector& latent) {
  TermWeights terms;
  for (std::size_t i = 0; i < latent.size(); ++i) {
    if (latent[i] != 0.0) terms.emplace_back(i, latent[i]);
  }
  return terms;
}

// `m` rows around `topics` random directions in k dimensions, with
// random lengths: the paper's picture of a rank-k space.
DenseMatrix TopicRows(std::size_t m, std::size_t k, std::size_t topics,
                      double noise, Rng& rng) {
  std::vector<DenseVector> directions;
  for (std::size_t t = 0; t < topics; ++t) {
    directions.push_back(testing::RandomUnitVector(k, rng));
  }
  DenseMatrix rows(m, k);
  for (std::size_t j = 0; j < m; ++j) {
    const DenseVector& d = directions[rng.NextUint64Below(topics)];
    const double length = rng.Uniform(0.2, 3.0);
    for (std::size_t i = 0; i < k; ++i) {
      rows(j, i) = length * (d[i] + noise * rng.NextGaussian());
    }
  }
  return rows;
}

// Random probes, and probes taken from rows (the MoreLikeThis shape,
// excluding the source row), at several depths.
void CheckProbes(const LsiIndex& index, Rng& rng, std::size_t num_probes,
                 const std::string& context) {
  const std::size_t k = index.rank();
  for (std::size_t p = 0; p < num_probes; ++p) {
    const DenseVector random = testing::RandomUnitVector(k, rng);
    const std::size_t row = rng.NextUint64Below(index.NumDocuments());
    const DenseVector from_row = index.DocumentVector(row);
    for (std::size_t top_k : {1, 3, 10, 37}) {
      ExpectExact(index, random.data(), top_k, kNoRow, context + " random");
      if (from_row.Norm() > 0.0 && !index.IsDeleted(row)) {
        ExpectExact(index, from_row.data(), top_k, row, context + " row");
      }
    }
  }
}

TEST(BoundedScanTest, RandomProbesMatchFullScan) {
  Rng rng(2101);
  const LsiIndex index = Crafted(TopicRows(3000, 24, 40, 0.03, rng));
  CheckProbes(index, rng, 40, "topics");

  // On topic data the bound skips most rows.
  const std::uint64_t before = RowsScored();
  const DenseVector probe = index.DocumentVector(17);
  (void)index.ScanTopK(Rows::kDocuments, probe.data(), 10);
  EXPECT_LT(RowsScored() - before, index.NumDocuments() / 4);
}

TEST(BoundedScanTest, SectionFourCorpusMatchesFullScan) {
  model::SeparableModelParams params;
  params.num_topics = 12;
  params.terms_per_topic = 60;
  params.min_document_length = 40;
  params.max_document_length = 80;
  Rng rng(2102);
  const text::Corpus corpus = model::BuildSeparableModel(params)
                                  .value()
                                  .GenerateCorpus(1500, rng)
                                  .value()
                                  .corpus;
  LsiOptions options;
  options.rank = 24;
  const LsiIndex index =
      LsiIndex::Build(text::BuildTermDocumentMatrix(corpus).value(), options)
          .value();
  CheckProbes(index, rng, 30, "section4");
}

// Rows (3, 4, 0, ...) and (3, 0, 4, ...) sit in different topics yet
// score exactly 0.6 against e1: the k-th score ties across clusters, and
// only the lower id may enter.
TEST(BoundedScanTest, TiesAtKthScoreAcrossClusters) {
  const std::size_t k = 8;
  for (bool low_in_first_topic : {true, false}) {
    Rng rng(2103);
    DenseMatrix rows(600, k, 0.0);
    for (std::size_t j = 0; j < rows.rows(); ++j) {
      // Topic A lives in (e1, e2), topic B in (e1, e3); the e1 weight
      // spreads the scores around 0.6.
      const std::size_t axis = (j % 2 == 0) ? 1 : 2;
      rows(j, 0) = rng.Uniform(0.4, 0.8);
      rows(j, axis) = rng.Uniform(0.6, 1.0);
      rows(j, 3 + j % 5) = 0.05 * rng.NextGaussian();
    }
    const std::size_t low = 200;
    const std::size_t high = 401;
    const std::size_t low_axis = low_in_first_topic ? 1 : 2;
    for (std::size_t j : {low, high}) {
      for (std::size_t i = 0; i < k; ++i) rows(j, i) = 0.0;
      rows(j, 0) = 3.0;
      rows(j, j == low ? low_axis : 3 - low_axis) = 4.0;
    }
    const LsiIndex index = Crafted(rows);
    DenseVector e1(k, 0.0);
    e1[0] = 1.0;
    const std::vector<SearchResult> all =
        index.ScanTopK(Rows::kDocuments, e1.data(), 0);
    std::size_t tie = all.size();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].document == low) tie = i;
    }
    ASSERT_LT(tie + 1, all.size());
    ASSERT_EQ(all[tie + 1].document, high);
    ASSERT_EQ(Bits(all[tie].score), Bits(all[tie + 1].score));
    for (std::size_t top_k : {tie, tie + 1, tie + 2, tie + 3}) {
      ExpectExact(index, e1.data(), top_k, kNoRow, "tie");
    }
    // Excluding the lower id lets the higher one take its place.
    ExpectExact(index, e1.data(), tie + 1, low, "tie");
  }
}

// Floor rows score exactly 0 and stay candidates, so with a k-th score
// of 0 a floor row with a lower id must still be found, even in a
// cluster whose bound is clamped to 0. Deleting the largest row lowers
// the floor reference, and a fold-in raises it.
TEST(BoundedScanTest, FloorRowsZeroScoresAndNegativeKth) {
  const std::size_t k = 6;
  Rng rng(2104);
  DenseMatrix rows(300, k, 0.0);
  for (std::size_t j = 0; j < rows.rows(); ++j) {
    switch (j % 3) {
      case 0:  // Toward e1: positive scores.
        rows(j, 0) = rng.Uniform(0.5, 1.5);
        rows(j, 1) = 0.2 * rng.NextGaussian();
        break;
      case 1:  // Orthogonal to e1: scores of exactly 0.
        rows(j, 2) = rng.Uniform(0.5, 1.5);
        rows(j, 3) = 0.2 * rng.NextGaussian();
        break;
      default:  // Away from e1: negative scores.
        rows(j, 0) = -rng.Uniform(0.5, 1.5);
        rows(j, 4) = 0.2 * rng.NextGaussian();
        break;
    }
  }
  // Row 5 sets the floor reference; rows 1 and 2 point away from e1 and
  // are floor (1e-10 / 1e3 < 1e-12); row 4 is exactly zero.
  rows(5, 0) = 1e3;
  for (std::size_t j : {1, 2}) {
    for (std::size_t i = 0; i < k; ++i) rows(j, i) = 0.0;
    rows(j, 0) = -1e-10;
    rows(j, 4) = 1e-11;
  }
  for (std::size_t i = 0; i < k; ++i) rows(4, i) = 0.0;
  // Row 7 is just above the floor until a larger fold-in arrives.
  for (std::size_t i = 0; i < k; ++i) rows(7, i) = 0.0;
  rows(7, 2) = 1e-8;

  LsiIndex index = Crafted(rows);
  ASSERT_TRUE(index.IsFloorRow(Rows::kDocuments, 1));
  ASSERT_TRUE(index.IsFloorRow(Rows::kDocuments, 4));
  ASSERT_FALSE(index.IsFloorRow(Rows::kDocuments, 7));
  DenseVector e1(k, 0.0);
  e1[0] = 1.0;
  const DenseVector random = testing::RandomUnitVector(k, rng);

  auto check_all_depths = [&](const std::string& context) {
    const std::size_t n = index.NumDocuments();
    for (std::size_t top_k = 1; top_k <= n + 2; ++top_k) {
      ExpectExact(index, e1.data(), top_k, kNoRow, context + " e1");
      ExpectExact(index, random.data(), top_k, kNoRow, context + " random");
    }
  };
  check_all_depths("floor");

  // Without row 5 the reference drops to ~1.5: rows 1 and 2 leave the
  // floor and score about -0.995 against e1.
  ASSERT_TRUE(index.MarkDeleted(5).ok());
  ASSERT_FALSE(index.IsFloorRow(Rows::kDocuments, 1));
  check_all_depths("after delete");

  // A fold-in of length 1e5 puts row 7 (1e-8) on the floor.
  DenseVector big(k, 0.0);
  big[3] = 1e5;
  ASSERT_TRUE(index.FoldInDocument(AsTerms(big)).ok());
  ASSERT_TRUE(index.IsFloorRow(Rows::kDocuments, 7));
  check_all_depths("after fold-in");
}

TEST(BoundedScanTest, TombstonesExcludeDepthAndNullProbe) {
  Rng rng(2105);
  LsiIndex index = Crafted(TopicRows(800, 12, 16, 0.1, rng));
  const DenseVector probe = index.DocumentVector(3);
  // Tombstone the probe's own best hits and a random 30%.
  for (const SearchResult& r : Oracle(index, probe.data(), 5)) {
    ASSERT_TRUE(index.MarkDeleted(r.document).ok());
  }
  for (std::size_t j = 0; j < index.NumDocuments(); ++j) {
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(index.MarkDeleted(j).ok());
    }
  }
  const std::size_t candidates = index.NumDocuments() - index.NumDeleted();
  const std::size_t exclude = Oracle(index, probe.data(), 1)[0].document;
  for (std::size_t top_k :
       {std::size_t{1}, std::size_t{10}, candidates - 40, candidates - 1,
        candidates, candidates + 7}) {
    ExpectExact(index, probe.data(), top_k, kNoRow, "tombstones");
    ExpectExact(index, probe.data(), top_k, exclude, "tombstones");
  }
  // The deepest cuts reach negative k-th scores.
  EXPECT_LT(Oracle(index, probe.data(), candidates - 40).back().score, 0.0);
  // A null probe scores every candidate 0: the lowest ids win.
  ExpectExact(index, nullptr, 10, kNoRow, "null probe");
  ExpectExact(index, nullptr, candidates + 1, 0, "null probe");
  CheckProbes(index, rng, 10, "tombstones");
}

TEST(BoundedScanTest, FewerRowsThanClusters) {
  Rng rng(2106);
  const LsiIndex index = Crafted(TopicRows(20, 8, 3, 0.2, rng));
  CheckProbes(index, rng, 20, "tiny");
  for (std::size_t top_k = 1; top_k <= 22; ++top_k) {
    const DenseVector probe = testing::RandomUnitVector(8, rng);
    ExpectExact(index, probe.data(), top_k, kNoRow, "tiny");
  }
}

// Fold-ins far from every centroid widen a radius. A copy takes them
// while its source stays as it was; both stay exact.
TEST(BoundedScanTest, FoldInsWidenRadiiOnCopyAndSource) {
  Rng rng(2107);
  const std::size_t k = 16;
  const LsiIndex source = Crafted(TopicRows(1200, k, 10, 0.05, rng));
  std::vector<std::vector<SearchResult>> before;
  std::vector<DenseVector> probes;
  for (std::size_t p = 0; p < 20; ++p) {
    probes.push_back(testing::RandomUnitVector(k, rng));
    before.push_back(source.ScanTopK(Rows::kDocuments, probes[p].data(), 10));
  }

  LsiIndex copy = source;
  LsiIndex assigned = Crafted(TopicRows(10, k, 2, 0.1, rng));
  assigned = source;
  for (LsiIndex* index : {&copy, &assigned}) {
    for (std::size_t p = 0; p < probes.size(); ++p) {
      // Each probe's direction, scaled up, becomes a new best hit that
      // no cluster covered before; a negated copy lands opposite.
      DenseVector outlier = probes[p];
      outlier.Scale(2.0);
      ASSERT_TRUE(index->FoldInDocument(AsTerms(outlier)).ok());
      outlier.Scale(-1.0);
      ASSERT_TRUE(index->FoldInDocument(AsTerms(outlier)).ok());
    }
    ASSERT_TRUE(index->FoldInDocument(TermWeights{}).ok());  // A zero row.
    for (std::size_t p = 0; p < probes.size(); ++p) {
      const std::vector<SearchResult> top =
          index->ScanTopK(Rows::kDocuments, probes[p].data(), 10);
      ExpectExact(*index, probes[p].data(), 10, kNoRow, "fold-in");
      ASSERT_FALSE(top.empty());
      EXPECT_GE(top[0].document, source.NumDocuments());
    }
    CheckProbes(*index, rng, 10, "fold-in");
  }
  for (std::size_t p = 0; p < probes.size(); ++p) {
    ExpectSameRanking(
        source.ScanTopK(Rows::kDocuments, probes[p].data(), 10), before[p],
        "source after copy fold-ins");
  }
}

TEST(BoundedScanTest, EngineCopyFoldInsStayExact) {
  model::SeparableModelParams params;
  params.num_topics = 8;
  params.terms_per_topic = 50;
  params.min_document_length = 30;
  params.max_document_length = 60;
  Rng rng(2108);
  const text::Corpus corpus = model::BuildSeparableModel(params)
                                  .value()
                                  .GenerateCorpus(600, rng)
                                  .value()
                                  .corpus;
  LsiEngineOptions options;
  options.rank = 16;
  const LsiEngine source = LsiEngine::Build(corpus, options).value();
  LsiEngine copy = source;
  // Documents mixing two topics' terms fall between clusters.
  const auto& terms = corpus.vocabulary().terms();
  for (std::size_t d = 0; d < 20; ++d) {
    std::string text;
    for (std::size_t w = 0; w < 12; ++w) {
      text += terms[((d % 8) * 50 + w) % terms.size()] + " " +
              terms[(((d + 3) % 8) * 50 + w) % terms.size()] + " ";
    }
    ASSERT_TRUE(copy.FoldInDocument("mixed" + std::to_string(d), text).ok());
  }
  ASSERT_TRUE(copy.RemoveDocument(4).ok());
  CheckProbes(source.index(), rng, 20, "engine source");
  CheckProbes(copy.index(), rng, 20, "engine copy");
}

// A slice keeps its source's clusters: every bound still holds, and its
// ranking is the source's ranking restricted to its rows.
TEST(BoundedScanTest, SliceOfClusteredIndex) {
  Rng rng(2109);
  const LsiIndex source = Crafted(TopicRows(1500, 16, 20, 0.1, rng));
  std::vector<std::size_t> rows;
  for (std::size_t j = 1; j < source.NumDocuments(); j += 3) rows.push_back(j);
  LsiIndex slice = source.Slice(rows).value();
  CheckProbes(slice, rng, 20, "slice");
  for (std::size_t p = 0; p < 20; ++p) {
    const DenseVector probe = testing::RandomUnitVector(16, rng);
    std::vector<SearchResult> expected;
    for (const SearchResult& r :
         source.ScanTopK(Rows::kDocuments, probe.data(), 0)) {
      const auto it = std::lower_bound(rows.begin(), rows.end(), r.document);
      if (it != rows.end() && *it == r.document && expected.size() < 10) {
        expected.push_back({static_cast<std::size_t>(it - rows.begin()),
                            r.score});
      }
    }
    ExpectSameRanking(slice.ScanTopK(Rows::kDocuments, probe.data(), 10),
                      expected, "slice vs source");
  }
  DenseVector outlier = testing::RandomUnitVector(16, rng);
  ASSERT_TRUE(slice.FoldInDocument(AsTerms(outlier)).ok());
  CheckProbes(slice, rng, 10, "slice fold-in");
}

TEST(BoundedScanTest, SaveLoadRoundTrip) {
  Rng rng(2110);
  LsiIndex index = Crafted(TopicRows(900, 12, 12, 0.1, rng));
  for (std::size_t d = 0; d < 5; ++d) {
    ASSERT_TRUE(
        index.FoldInDocument(AsTerms(testing::RandomUnitVector(12, rng)))
            .ok());
  }
  const std::string path = ::testing::TempDir() + "/bounded_scan_index.bin";
  ASSERT_TRUE(index.Save(path).ok());
  const LsiIndex loaded = LsiIndex::Load(path).value();
  std::remove(path.c_str());
  for (std::size_t p = 0; p < 30; ++p) {
    const DenseVector probe = testing::RandomUnitVector(12, rng);
    ExpectSameRanking(loaded.ScanTopK(Rows::kDocuments, probe.data(), 10),
                      index.ScanTopK(Rows::kDocuments, probe.data(), 10),
                      "loaded vs running");
  }
  CheckProbes(loaded, rng, 10, "loaded");
}

TEST(BoundedScanTest, SameResultsAtAnyThreadCount) {
  Rng data_rng(2111);
  const DenseMatrix rows = TopicRows(5000, 16, 30, 0.1, data_rng);
  par::SetThreads(1);
  const LsiIndex serial = Crafted(rows);
  par::SetThreads(4);
  const LsiIndex threaded = Crafted(rows);
  par::SetThreads(0);
  Rng rng(2112);
  for (std::size_t p = 0; p < 30; ++p) {
    const DenseVector probe = testing::RandomUnitVector(16, rng);
    ExpectSameRanking(threaded.ScanTopK(Rows::kDocuments, probe.data(), 10),
                      serial.ScanTopK(Rows::kDocuments, probe.data(), 10),
                      "threads");
  }
}

}  // namespace
}  // namespace lsi::core
