#include "core/lsi_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "linalg/norms.h"
#include "linalg/simd/simd.h"
#include "model/separable_model.h"
#include "par/par.h"
#include "test_util.h"

namespace lsi::core {
namespace {

using linalg::DenseMatrix;
using linalg::DenseVector;
using linalg::SparseMatrix;

/// A tiny corpus with two obvious topics: {0,1} use terms {0,1,2},
/// {2,3} use terms {3,4,5}.
SparseMatrix TwoTopicMatrix() {
  linalg::SparseMatrixBuilder builder(6, 4);
  builder.Add(0, 0, 3.0);
  builder.Add(1, 0, 2.0);
  builder.Add(2, 0, 1.0);
  builder.Add(0, 1, 1.0);
  builder.Add(1, 1, 3.0);
  builder.Add(2, 1, 2.0);
  builder.Add(3, 2, 2.0);
  builder.Add(4, 2, 3.0);
  builder.Add(5, 2, 1.0);
  builder.Add(3, 3, 3.0);
  builder.Add(4, 3, 1.0);
  builder.Add(5, 3, 2.0);
  return builder.Build();
}

TEST(LsiIndexTest, RejectsBadRank) {
  SparseMatrix a = TwoTopicMatrix();
  LsiOptions options;
  options.rank = 0;
  EXPECT_FALSE(LsiIndex::Build(a, options).ok());
  options.rank = 5;  // > min(6, 4).
  EXPECT_FALSE(LsiIndex::Build(a, options).ok());
}

TEST(LsiIndexTest, BasicShapes) {
  SparseMatrix a = TwoTopicMatrix();
  LsiOptions options;
  options.rank = 2;
  auto index = LsiIndex::Build(a, options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->rank(), 2u);
  EXPECT_EQ(index->NumTerms(), 6u);
  EXPECT_EQ(index->NumDocuments(), 4u);
  EXPECT_EQ(index->document_vectors().rows(), 4u);
  EXPECT_EQ(index->document_vectors().cols(), 2u);
  EXPECT_GE(index->SingularValue(0), index->SingularValue(1));
}

TEST(LsiIndexTest, SolversAgree) {
  SparseMatrix a = TwoTopicMatrix();
  for (SvdSolver solver : {SvdSolver::kLanczos, SvdSolver::kRandomized,
                           SvdSolver::kJacobi, SvdSolver::kGkl}) {
    LsiOptions options;
    options.rank = 2;
    options.solver = solver;
    auto index = LsiIndex::Build(a, options);
    ASSERT_TRUE(index.ok()) << static_cast<int>(solver);
    auto jacobi_svd = linalg::JacobiSvd(a.ToDense());
    ASSERT_TRUE(jacobi_svd.ok());
    EXPECT_NEAR(index->SingularValue(0), jacobi_svd->singular_values[0],
                1e-4 * jacobi_svd->singular_values[0]);
  }
}

TEST(LsiIndexTest, DocumentVectorsAreVkDk) {
  SparseMatrix a = TwoTopicMatrix();
  LsiOptions options;
  options.rank = 2;
  options.solver = SvdSolver::kJacobi;
  auto index = LsiIndex::Build(a, options);
  ASSERT_TRUE(index.ok());
  const auto& svd = index->svd();
  for (std::size_t j = 0; j < 4; ++j) {
    DenseVector dv = index->DocumentVector(j);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(dv[i], svd.v(j, i) * svd.singular_values[i], 1e-12);
    }
  }
}

TEST(LsiIndexTest, DocumentVectorEqualsFoldedInColumn) {
  // Row j of V_k D_k must equal U_k^T a_j (the fold-in identity that
  // justifies processing queries in the latent space).
  SparseMatrix a = TwoTopicMatrix();
  LsiOptions options;
  options.rank = 2;
  options.solver = SvdSolver::kJacobi;
  auto index = LsiIndex::Build(a, options);
  ASSERT_TRUE(index.ok());
  DenseMatrix dense = a.ToDense();
  for (std::size_t j = 0; j < 4; ++j) {
    auto folded = index->FoldInQuery(dense.Column(j));
    ASSERT_TRUE(folded.ok());
    DenseVector dv = index->DocumentVector(j);
    // Equal up to SVD sign conventions; compare absolute cosines.
    EXPECT_NEAR(std::fabs(linalg::CosineSimilarity(folded.value(), dv)), 1.0,
                1e-9);
    EXPECT_NEAR(folded->Norm(), dv.Norm(), 1e-9);
  }
}

TEST(LsiIndexTest, FoldInQueryRejectsWrongDimension) {
  SparseMatrix a = TwoTopicMatrix();
  auto index = LsiIndex::Build(a, LsiOptions{.rank = 2});
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->FoldInQuery(DenseVector(5, 0.0)).ok());
}

TEST(LsiIndexTest, SearchRanksTopicMatesFirst) {
  SparseMatrix a = TwoTopicMatrix();
  LsiOptions options;
  options.rank = 2;
  options.solver = SvdSolver::kJacobi;
  auto index = LsiIndex::Build(a, options);
  ASSERT_TRUE(index.ok());
  // Query about topic 1 terms.
  DenseVector query(6, 0.0);
  query[3] = 1.0;
  query[4] = 1.0;
  auto results = index->Search(query);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 4u);
  // Top two hits are documents 2 and 3 (order between them unspecified).
  std::size_t first = (*results)[0].document;
  std::size_t second = (*results)[1].document;
  EXPECT_TRUE((first == 2 && second == 3) || (first == 3 && second == 2));
  EXPECT_GT((*results)[1].score, (*results)[2].score);
}

TEST(LsiIndexTest, SearchTopKLimits) {
  SparseMatrix a = TwoTopicMatrix();
  auto index = LsiIndex::Build(a, LsiOptions{.rank = 2});
  ASSERT_TRUE(index.ok());
  DenseVector query(6, 1.0);
  auto results = index->Search(query, 2);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);
}

TEST(LsiIndexTest, TermVectorsShape) {
  SparseMatrix a = TwoTopicMatrix();
  auto index = LsiIndex::Build(a, LsiOptions{.rank = 2});
  ASSERT_TRUE(index.ok());
  DenseMatrix tv = index->TermVectors();
  EXPECT_EQ(tv.rows(), 6u);
  EXPECT_EQ(tv.cols(), 2u);
}

TEST(LsiIndexTest, TermVectorsClusterByTopic) {
  SparseMatrix a = TwoTopicMatrix();
  LsiOptions options;
  options.rank = 2;
  options.solver = SvdSolver::kJacobi;
  auto index = LsiIndex::Build(a, options);
  ASSERT_TRUE(index.ok());
  DenseMatrix tv = index->TermVectors();
  // Terms 0-2 (topic A) should be closer to each other than to 3-5.
  double intra = linalg::CosineSimilarity(tv.Row(0), tv.Row(1));
  double inter = linalg::CosineSimilarity(tv.Row(0), tv.Row(4));
  EXPECT_GT(intra, inter);
}

TEST(LsiIndexTest, DenseBuildMatchesSparse) {
  SparseMatrix a = TwoTopicMatrix();
  LsiOptions options;
  options.rank = 2;
  auto sparse_index = LsiIndex::Build(a, options);
  auto dense_index = LsiIndex::Build(a.ToDense(), options);
  ASSERT_TRUE(sparse_index.ok());
  ASSERT_TRUE(dense_index.ok());
  EXPECT_NEAR(sparse_index->SingularValue(0), dense_index->SingularValue(0),
              1e-8);
  EXPECT_NEAR(sparse_index->SingularValue(1), dense_index->SingularValue(1),
              1e-8);
}

TEST(LsiIndexTest, RankKTruncationErrorMatchesTailEnergy) {
  Rng rng(401);
  linalg::DenseVector sigma = {8.0, 4.0, 2.0, 1.0};
  DenseMatrix dense = lsi::testing::MatrixWithSpectrum(20, 15, sigma, rng);
  SparseMatrix a = SparseMatrix::FromDense(dense);
  LsiOptions options;
  options.rank = 2;
  auto index = LsiIndex::Build(a, options);
  ASSERT_TRUE(index.ok());
  DenseMatrix ak = index->svd().Reconstruct(2);
  // ||A - A_2||_F = sqrt(4 + 1).
  EXPECT_NEAR(linalg::FrobeniusDistance(dense, ak), std::sqrt(5.0), 1e-6);
}

TEST(LsiIndexTest, DocumentsOutsideLatentSubspaceScoreZero) {
  // Two disjoint topic blocks where block 2 carries more weight: rank-2
  // LSI keeps only block-2 directions, so block-1 documents fold to
  // numerically-zero vectors. Their scores must be exactly 0, not
  // rounding noise masquerading as high cosines (regression test).
  linalg::SparseMatrixBuilder builder(6, 4);
  builder.Add(0, 0, 1.0);  // Block 1: docs 0, 1 on terms 0-2.
  builder.Add(1, 0, 1.0);
  builder.Add(0, 1, 1.0);
  builder.Add(2, 1, 1.0);
  builder.Add(3, 2, 3.0);  // Block 2 (heavier): docs 2, 3 on terms 3-5.
  builder.Add(4, 2, 3.0);
  builder.Add(5, 2, 3.0);
  builder.Add(3, 3, 3.0);
  builder.Add(4, 3, 3.0);
  LsiOptions options;
  options.rank = 2;
  options.solver = SvdSolver::kJacobi;
  auto index = LsiIndex::Build(builder.Build(), options);
  ASSERT_TRUE(index.ok());
  // Query in block 2 terms.
  DenseVector query(6, 0.0);
  query[3] = 1.0;
  auto results = index->Search(query);
  ASSERT_TRUE(results.ok());
  for (const SearchResult& r : results.value()) {
    if (r.document == 0 || r.document == 1) {
      EXPECT_DOUBLE_EQ(r.score, 0.0) << "doc " << r.document;
    }
  }
  // Query entirely in block 1 terms: folds to ~zero, everything scores 0.
  DenseVector dead_query(6, 0.0);
  dead_query[0] = 1.0;
  auto dead = index->Search(dead_query);
  ASSERT_TRUE(dead.ok());
  for (const SearchResult& r : dead.value()) {
    EXPECT_DOUBLE_EQ(r.score, 0.0);
  }
}

TEST(LsiIndexTest, FullRankLsiReproducesVectorSpaceScores) {
  // With k = min(n, m) the latent map is an isometry on the column
  // space, so latent cosines equal raw term-space cosines — LSI at full
  // rank IS the vector-space model (the paper's Eckart-Young framing).
  Rng rng(403);
  linalg::SparseMatrixBuilder builder(12, 8);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (rng.Bernoulli(0.4)) builder.Add(i, j, rng.Uniform(0.2, 2.0));
    }
  }
  SparseMatrix matrix = builder.Build();
  LsiOptions options;
  options.rank = 8;
  options.solver = SvdSolver::kJacobi;
  auto index = LsiIndex::Build(matrix, options);
  ASSERT_TRUE(index.ok());

  DenseMatrix dense = matrix.ToDense();
  DenseVector query(12, 0.0);
  query[1] = 1.0;
  query[5] = 2.0;
  // Project the query onto the column space of A first: fold-in only
  // sees that component.
  auto results = index->Search(query);
  ASSERT_TRUE(results.ok());
  for (const SearchResult& r : results.value()) {
    DenseVector column = dense.Column(r.document);
    // Compare latent score against cosine of (projected query, column).
    // Compute the projection of the query onto span(U) = column space.
    DenseVector coeffs = linalg::MultiplyTranspose(index->svd().u, query);
    DenseVector projected = linalg::Multiply(index->svd().u, coeffs);
    double expected = linalg::CosineSimilarity(projected, column);
    EXPECT_NEAR(r.score, expected, 1e-9) << r.document;
  }
}

TEST(RankScoresTest, OrdersDescending) {
  std::vector<double> scores = {0.1, 0.9, 0.5};
  auto ranked = RankScores(scores, 0);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].document, 1u);
  EXPECT_EQ(ranked[1].document, 2u);
  EXPECT_EQ(ranked[2].document, 0u);
}

TEST(RankScoresTest, StableOnTies) {
  std::vector<double> scores = {0.5, 0.5, 0.5};
  auto ranked = RankScores(scores, 0);
  EXPECT_EQ(ranked[0].document, 0u);
  EXPECT_EQ(ranked[1].document, 1u);
  EXPECT_EQ(ranked[2].document, 2u);
}

TEST(RankScoresTest, TopKClamped) {
  std::vector<double> scores = {0.1, 0.2};
  EXPECT_EQ(RankScores(scores, 10).size(), 2u);
  EXPECT_EQ(RankScores(scores, 1).size(), 1u);
}

// The full-sort ranking every latent-cosine search used before ScanTopK,
// kept as the reference the bounded selection must reproduce: a stable
// sort of all ids by descending score, truncated to top_k (all if 0).
std::vector<SearchResult> ReferenceRank(const std::vector<double>& scores,
                                        std::size_t top_k) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  const std::size_t keep =
      top_k == 0 ? scores.size() : std::min(top_k, scores.size());
  std::vector<SearchResult> ranked;
  for (std::size_t i = 0; i < keep; ++i) {
    ranked.push_back({order[i], scores[order[i]]});
  }
  return ranked;
}

std::vector<double> RowNorms(const DenseMatrix& rows) {
  std::vector<double> norms(rows.rows());
  for (std::size_t j = 0; j < rows.rows(); ++j) {
    norms[j] = std::sqrt(linalg::simd::SquaredNorm(rows.RowPtr(j), rows.cols()));
  }
  return norms;
}

// The full-sort Search: score every document (norms recomputed per
// call), rank them all, then drop tombstones and truncate.
std::vector<SearchResult> ReferenceSearch(const LsiIndex& index,
                                          const DenseVector& query,
                                          std::size_t top_k) {
  const DenseMatrix& docs = index.document_vectors();
  const DenseVector folded = index.FoldInQuery(query).value();
  const std::vector<double> norms = RowNorms(docs);
  const double floor = 1e-12 * *std::max_element(norms.begin(), norms.end());
  const double folded_norm = folded.Norm();
  std::vector<double> scores(docs.rows(), 0.0);
  for (std::size_t j = 0; j < docs.rows(); ++j) {
    if (folded_norm <= 1e-12 * query.Norm() || norms[j] <= floor) continue;
    scores[j] = linalg::simd::Dot(folded.data(), docs.RowPtr(j), docs.cols()) /
                (folded_norm * norms[j]);
  }
  std::vector<SearchResult> ranked;
  for (const SearchResult& r : ReferenceRank(scores, 0)) {
    if (!index.IsDeleted(r.document)) ranked.push_back(r);
  }
  if (top_k != 0 && ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

// The full-sort RelatedTerms over the n x k TermVectors() copy: the
// anchor and floor terms keep a -2 sentinel that is filtered out after
// ranking.
std::vector<SearchResult> ReferenceRelatedTerms(const LsiIndex& index,
                                                std::size_t anchor,
                                                std::size_t top_k) {
  const DenseMatrix terms = index.TermVectors();
  const std::vector<double> norms = RowNorms(terms);
  const double floor = 1e-12 * *std::max_element(norms.begin(), norms.end());
  std::vector<double> scores(terms.rows(), -2.0);
  for (std::size_t t = 0; t < terms.rows(); ++t) {
    if (norms[anchor] <= floor || t == anchor || norms[t] <= floor) continue;
    scores[t] = linalg::simd::Dot(terms.RowPtr(anchor), terms.RowPtr(t),
                                  terms.cols()) /
                (norms[anchor] * norms[t]);
  }
  std::vector<SearchResult> ranked;
  for (const SearchResult& r : ReferenceRank(scores, top_k)) {
    if (r.score > -2.0) ranked.push_back(r);
  }
  return ranked;
}

void ExpectSameRanking(const std::vector<SearchResult>& actual,
                       const std::vector<SearchResult>& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].document, expected[i].document) << label << " #" << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " #" << i;
  }
}

// On the dispatched SIMD path and on the scalar reference path, runs
// `make()` and then `check(made, label)` at LSI_THREADS 1, 2 and 4.
// Building under the path mirrors a process started with LSI_SIMD set:
// the index's cached norms come from the path under test.
template <typename Make, typename Check>
void ForEachSimdPathAndThreads(Make make, Check check) {
  for (bool scalar : {false, true}) {
    if (scalar) {
      ASSERT_TRUE(linalg::simd::SetPath(linalg::simd::Path::kScalar));
    }
    const auto made = make();
    for (std::size_t threads : {1, 2, 4}) {
      par::SetThreads(threads);
      check(made, std::string(scalar ? "scalar" : "dispatched") +
                      " threads=" + std::to_string(threads));
    }
  }
  par::SetThreads(0);
  linalg::simd::ResetPath();
}

// An engine over a §4 separable-model corpus, at a rank whose scan
// grain (64k / k rows) splits both the documents and the terms into
// several ParallelFor chunks. Besides the generated documents it holds
// exact duplicates (three build-time copies of document 0, three
// folded-in copies of document 1), two folded-in zero vectors, a
// vocabulary term no document uses, and — when `tombstones` — deleted
// documents in every chunk, including one of each duplicate group.
struct DifferentialFixture {
  text::Corpus corpus;
  LsiEngine engine;
  std::size_t live = 0;

  static DifferentialFixture Make(bool tombstones) {
    model::SeparableModelParams params;
    params.num_topics = 6;
    params.terms_per_topic = 100;
    params.min_document_length = 40;
    params.max_document_length = 80;
    Rng rng(1313);
    text::Corpus corpus = model::BuildSeparableModel(params)
                              .value()
                              .GenerateCorpus(1000, rng)
                              .value()
                              .corpus;
    std::vector<text::TermId> first;
    for (const auto& [term, count] : corpus.document(0).counts()) {
      first.insert(first.end(), count, term);
    }
    for (const char* name : {"dup0a", "dup0b", "dup0c"}) {
      EXPECT_TRUE(corpus.AddDocumentFromIds(name, first).ok());
    }
    corpus.AddTerm("term99999");
    LsiEngineOptions options;
    options.rank = 160;
    LsiEngine engine = LsiEngine::Build(corpus, options).value();
    std::string second;
    for (const auto& [term, count] : corpus.document(1).counts()) {
      for (std::size_t c = 0; c < count; ++c) {
        second += corpus.vocabulary().terms()[term] + " ";
      }
    }
    EXPECT_TRUE(engine.FoldInDocument("dup1a", second).ok());
    EXPECT_TRUE(engine.FoldInDocument("empty", "").ok());
    EXPECT_TRUE(engine.FoldInDocument("dup1b", second).ok());
    EXPECT_TRUE(engine.FoldInDocument("oov", "xyzzy plugh").ok());
    EXPECT_TRUE(engine.FoldInDocument("dup1c", second).ok());
    if (tombstones) {
      for (std::size_t d : {0, 5, 400, 401, 777, 1000, 1003}) {
        EXPECT_TRUE(engine.RemoveDocument(d).ok());
      }
    }
    const std::size_t live =
        engine.NumDocuments() - engine.index().NumDeleted();
    return {std::move(corpus), std::move(engine), live};
  }
};

TEST(RankScoresTest, MatchesStableSortReference) {
  Rng rng(77);
  const double levels[] = {0.75, 0.5, 0.0, -0.0, -0.25, 1.0};
  std::vector<double> scores(3000);
  for (double& score : scores) {
    score = rng.Bernoulli(0.5) ? levels[rng.UniformInt(0, 5)]
                               : rng.Uniform(-1.0, 1.0);
  }
  for (std::size_t top_k : {0, 1, 10, 3005}) {
    ExpectSameRanking(RankScores(scores, top_k), ReferenceRank(scores, top_k),
                      "top_k=" + std::to_string(top_k));
  }
}

// Term-space probes for Search: a two-term topic query, the term counts
// of documents 0 and 1 (exact ties among their copies), the zero query
// and a query orthogonal to span(U_k).
std::vector<DenseVector> DifferentialQueries(const DifferentialFixture& fx) {
  const LsiIndex& index = fx.engine.index();
  const std::size_t n = index.NumTerms();
  std::vector<DenseVector> queries(4, DenseVector(n, 0.0));
  queries[0][3] = 1.0;
  queries[0][17] = 2.0;
  for (std::size_t d : {0, 1}) {
    for (const auto& [term, count] : fx.corpus.document(d).counts()) {
      queries[d + 1][term] = static_cast<double>(count);
    }
  }
  Rng rng(5);
  DenseVector residual = testing::RandomUnitVector(n, rng);
  residual.Axpy(-1.0, linalg::Multiply(index.svd().u,
                                       index.FoldInQuery(residual).value()));
  queries.push_back(residual);
  return queries;
}

TEST(RankScoresTest, SearchMatchesFullSortReference) {
  for (bool tombstones : {false, true}) {
    ForEachSimdPathAndThreads(
        [&] { return DifferentialFixture::Make(tombstones); },
        [&](const DifferentialFixture& fx, const std::string& setting) {
          const LsiIndex& index = fx.engine.index();
          ASSERT_EQ(index.NumDeleted(), tombstones ? 7u : 0u);
          const std::vector<DenseVector> queries = DifferentialQueries(fx);
          // The zero query scores every live document 0, in id order.
          const auto all_zero = index.Search(queries[3], 0).value();
          ASSERT_EQ(all_zero.size(), fx.live);
          for (std::size_t i = 0; i < all_zero.size(); ++i) {
            EXPECT_EQ(all_zero[i].score, 0.0);
            if (i > 0) {
              EXPECT_LT(all_zero[i - 1].document, all_zero[i].document);
            }
          }
          // The folded copies of document 1 really tie.
          const auto ties = index.Search(queries[2], 0).value();
          EXPECT_TRUE(std::adjacent_find(ties.begin(), ties.end(),
                                         [](const SearchResult& a,
                                            const SearchResult& b) {
                                           return a.score == b.score &&
                                                  a.score != 0.0;
                                         }) != ties.end());
          for (std::size_t q = 0; q < queries.size(); ++q) {
            for (std::size_t top_k : {std::size_t{0}, std::size_t{1},
                                      std::size_t{10}, fx.live + 5}) {
              const std::string label =
                  setting + " tombstones=" + std::to_string(tombstones) +
                  " query=" + std::to_string(q) +
                  " top_k=" + std::to_string(top_k);
              ExpectSameRanking(index.Search(queries[q], top_k).value(),
                                ReferenceSearch(index, queries[q], top_k),
                                label);
              const std::vector<SearchResult> all =
                  index.Search(queries[q], 0).value();
              std::vector<double> scores(index.NumDocuments(), 0.0);
              for (const SearchResult& r : all) scores[r.document] = r.score;
              ExpectSameRanking(RankScores(scores, top_k),
                                ReferenceRank(scores, top_k),
                                label + " RankScores");
            }
          }
        });
  }
}

TEST(RankScoresTest, RelatedTermsMatchFullSortReference) {
  ForEachSimdPathAndThreads(
      [] { return DifferentialFixture::Make(true); },
      [](const DifferentialFixture& fx, const std::string& setting) {
    const LsiIndex& index = fx.engine.index();
    const std::vector<std::string>& terms = fx.corpus.vocabulary().terms();
    // Terms in the first and the last scan chunk, and the unused term,
    // which folds to nothing and so has no related terms.
    for (std::size_t anchor :
         {std::size_t{0}, std::size_t{417}, terms.size() - 1}) {
      for (std::size_t top_k : {std::size_t{0}, std::size_t{1},
                                std::size_t{10}, terms.size() + 5}) {
        const std::string label = setting + " anchor=" + terms[anchor] +
                                  " top_k=" + std::to_string(top_k);
        const auto related = fx.engine.RelatedTerms(terms[anchor], top_k);
        ASSERT_TRUE(related.ok()) << label << related.status().ToString();
        const auto expected = ReferenceRelatedTerms(index, anchor, top_k);
        ASSERT_EQ(related->size(), expected.size()) << label;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ((*related)[i].term, terms[expected[i].document]) << label;
          EXPECT_EQ((*related)[i].score, expected[i].score) << label;
        }
      }
    }
    EXPECT_TRUE(fx.engine.RelatedTerms("term99999", 0)->empty());
  });
}

}  // namespace
}  // namespace lsi::core
