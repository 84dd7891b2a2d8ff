#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/lsi_index.h"
#include "linalg/simd/simd.h"
#include "model/separable_model.h"
#include "par/par.h"
#include "test_util.h"
#include "text/term_weighting.h"

namespace lsi::core {
namespace {

using linalg::DenseVector;

// An engine over a §4 separable-model corpus with a 20,000-term
// vocabulary at rank 100: the shape where a dense fold-in walks every
// row of U_k for a query that touches four of them.
struct WideFixture {
  text::Corpus corpus;
  LsiEngine engine;

  static WideFixture Make() {
    model::SeparableModelParams params;
    params.num_topics = 20;
    params.terms_per_topic = 1000;
    params.min_document_length = 40;
    params.max_document_length = 80;
    Rng rng(1414);
    text::Corpus corpus = model::BuildSeparableModel(params)
                              .value()
                              .GenerateCorpus(400, rng)
                              .value()
                              .corpus;
    LsiEngineOptions options;
    options.rank = 100;
    LsiEngine engine = LsiEngine::Build(corpus, options).value();
    return {std::move(corpus), std::move(engine)};
  }
};

DenseVector ToDense(const TermWeights& terms, std::size_t n) {
  DenseVector dense(n, 0.0);
  for (const auto& [term, weight] : terms) dense[term] = weight;
  return dense;
}

// Sparse probes: a 4-term query spread over the vocabulary (first and
// last term included), a single term, the weighted counts of document
// 0, and a query whose every term is nonzero.
std::vector<TermWeights> Queries(const WideFixture& fx) {
  const std::size_t n = fx.engine.NumTerms();
  std::vector<TermWeights> queries = {
      {{0, 1.5}, {4321, 0.25}, {12000, 2.0}, {n - 1, 0.75}},
      {{7001, 3.0}},
      {},
      {}};
  const std::vector<double> global =
      text::ComputeGlobalWeights(fx.corpus, fx.engine.weighting());
  for (const auto& [term, count] : fx.corpus.document(0).counts()) {
    queries[2].emplace_back(
        term, text::LocalTermWeight(fx.engine.weighting(), count) *
                  global[term]);
  }
  Rng rng(9);
  for (std::size_t t = 0; t < n; ++t) {
    queries[3].emplace_back(t, rng.Uniform(-1.0, 1.0));
  }
  return queries;
}

void ExpectBitEqual(const DenseVector& actual, const DenseVector& expected,
                    const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << label << " entry " << i;
  }
}

void ExpectSameResults(const std::vector<SearchResult>& actual,
                       const std::vector<SearchResult>& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].document, expected[i].document) << label << " #" << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " #" << i;
  }
}

class FoldInKernelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    par::SetThreads(0);
    linalg::simd::ResetPath();
  }
};

TEST_F(FoldInKernelTest, ScalarFoldBitEqualsDenseMultiplyTranspose) {
  ASSERT_TRUE(linalg::simd::SetPath(linalg::simd::Path::kScalar));
  const WideFixture fx = WideFixture::Make();
  const LsiIndex& index = fx.engine.index();
  ASSERT_GE(index.NumTerms(), 20000u);
  ASSERT_EQ(index.rank(), 100u);
  const std::vector<TermWeights> queries = Queries(fx);
  for (std::size_t threads : {1, 2, 4}) {
    par::SetThreads(threads);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::string label =
          "threads=" + std::to_string(threads) + " query=" + std::to_string(q);
      const DenseVector dense = ToDense(queries[q], index.NumTerms());
      // The dense U_k^T q every fold-in computed before the sparse kernel.
      const DenseVector reference =
          linalg::MultiplyTranspose(index.svd().u, dense);
      const FoldedVector folded = index.Fold(queries[q]).value();
      ExpectBitEqual(folded.latent, reference, label);
      EXPECT_EQ(folded.term_norm, dense.Norm()) << label;
      ExpectBitEqual(index.FoldInQuery(dense).value(), reference, label);
    }
  }
}

TEST_F(FoldInKernelTest, SparseAndDenseEntryPointsAgree) {
  const WideFixture fx = WideFixture::Make();
  const LsiIndex& index = fx.engine.index();
  for (const TermWeights& query : Queries(fx)) {
    const DenseVector dense = ToDense(query, index.NumTerms());
    const FoldedVector sparse = index.Fold(query).value();
    const FoldedVector gathered = index.Fold(dense).value();
    ExpectBitEqual(gathered.latent, sparse.latent, "Fold(dense)");
    EXPECT_EQ(gathered.term_norm, sparse.term_norm);
    ExpectBitEqual(index.FoldInQuery(dense).value(), sparse.latent,
                   "FoldInQuery");
    for (std::size_t top_k : {0, 10}) {
      ExpectSameResults(index.Search(dense, top_k).value(),
                        index.Search(query, top_k).value(),
                        "Search top_k=" + std::to_string(top_k));
    }
    LsiIndex by_terms = index;
    LsiIndex by_vector = index;
    double angle_terms = -1.0;
    double angle_vector = -2.0;
    const std::size_t row = by_terms.FoldInDocument(query, &angle_terms).value();
    ASSERT_EQ(by_vector.FoldInDocument(dense, &angle_vector).value(), row);
    EXPECT_EQ(angle_terms, angle_vector);
    ExpectBitEqual(by_terms.DocumentVector(row), sparse.latent,
                   "FoldInDocument(terms)");
    ExpectBitEqual(by_vector.DocumentVector(row), sparse.latent,
                   "FoldInDocument(dense)");
  }
}

TEST_F(FoldInKernelTest, EngineQueryEqualsDenseSearchOfWeightedQuery) {
  const WideFixture fx = WideFixture::Make();
  const LsiIndex& index = fx.engine.index();
  const std::vector<double> global =
      text::ComputeGlobalWeights(fx.corpus, fx.engine.weighting());
  const std::vector<std::string>& terms = fx.corpus.vocabulary().terms();
  const std::string text =
      terms[5] + " " + terms[5] + " " + terms[4321] + " " + terms[19999];
  const auto counts = fx.engine.AnalyzeQueryCounts(text);
  ASSERT_EQ(counts.size(), 3u);
  DenseVector dense(index.NumTerms(), 0.0);
  for (const auto& [term, count] : counts) {
    dense[term] =
        text::LocalTermWeight(fx.engine.weighting(), count) * global[term];
  }
  const auto hits = fx.engine.Query(text, 10).value();
  const auto expected = index.Search(dense, 10).value();
  ASSERT_EQ(hits.size(), expected.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].document, expected[i].document) << i;
    EXPECT_EQ(hits[i].score, expected[i].score) << i;
  }
}

TEST_F(FoldInKernelTest, BitIdenticalAtEveryThreadCount) {
  for (bool scalar : {false, true}) {
    if (scalar) {
      ASSERT_TRUE(linalg::simd::SetPath(linalg::simd::Path::kScalar));
    }
    const WideFixture fx = WideFixture::Make();
    const LsiIndex& index = fx.engine.index();
    const std::vector<TermWeights> queries = Queries(fx);
    par::SetThreads(1);
    std::vector<FoldedVector> folded;
    std::vector<std::vector<SearchResult>> ranked;
    for (const TermWeights& query : queries) {
      folded.push_back(index.Fold(query).value());
      ranked.push_back(index.Search(query, 10).value());
    }
    for (std::size_t threads : {2, 4}) {
      par::SetThreads(threads);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const std::string label = std::string(scalar ? "scalar" : "dispatched") +
                                  " threads=" + std::to_string(threads) +
                                  " query=" + std::to_string(q);
        const FoldedVector again = index.Fold(queries[q]).value();
        ExpectBitEqual(again.latent, folded[q].latent, label);
        EXPECT_EQ(again.term_norm, folded[q].term_norm) << label;
        ExpectSameResults(index.Search(queries[q], 10).value(), ranked[q],
                          label);
      }
    }
  }
}

TEST_F(FoldInKernelTest, EmptyAndZeroWeightTermsFoldToNothing) {
  const WideFixture fx = WideFixture::Make();
  const LsiIndex& index = fx.engine.index();
  for (const TermWeights& nothing :
       {TermWeights{}, TermWeights{{3, 0.0}, {17, 0.0}}}) {
    const FoldedVector folded = index.Fold(nothing).value();
    ExpectBitEqual(folded.latent, DenseVector(index.rank(), 0.0), "latent");
    EXPECT_EQ(folded.term_norm, 0.0);
    EXPECT_EQ(folded.Probe(), nullptr);
    // Every document scores 0, in id order.
    const auto all = index.Search(nothing, 0).value();
    ASSERT_EQ(all.size(), index.NumDocuments());
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i].document, i);
      EXPECT_EQ(all[i].score, 0.0);
    }
  }
  // A zero weight among nonzero ones contributes nothing.
  const FoldedVector with_zero =
      index.Fold({{3, 1.0}, {17, 0.0}, {900, -2.0}}).value();
  const FoldedVector without = index.Fold({{3, 1.0}, {900, -2.0}}).value();
  ExpectBitEqual(with_zero.latent, without.latent, "zero weight");
  EXPECT_EQ(with_zero.term_norm, without.term_norm);
}

TEST_F(FoldInKernelTest, BadTermIdsAreErrorsNotCrashes) {
  const WideFixture fx = WideFixture::Make();
  LsiIndex index = fx.engine.index();
  const std::size_t n = index.NumTerms();
  const std::size_t documents = index.NumDocuments();
  for (const TermWeights& bad :
       {TermWeights{{n, 1.0}}, TermWeights{{2, 1.0}, {n + 7, 1.0}},
        TermWeights{{9, 1.0}, {4, 1.0}}, TermWeights{{4, 1.0}, {4, 2.0}}}) {
    EXPECT_EQ(index.Fold(bad).status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(index.Search(bad, 10).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(index.FoldInDocument(bad).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(index.NumDocuments(), documents);
  }
  // Dense vectors of the wrong dimension are refused the same way.
  const DenseVector short_vector(n - 1, 1.0);
  EXPECT_FALSE(index.Fold(short_vector).ok());
  EXPECT_FALSE(index.FoldInQuery(short_vector).ok());
  EXPECT_FALSE(index.Search(short_vector, 10).ok());
  EXPECT_FALSE(index.FoldInDocument(short_vector).ok());
  EXPECT_EQ(index.NumDocuments(), documents);
  EXPECT_TRUE(index.Search(TermWeights{{2, 1.0}}, 10).ok());
}

TEST_F(FoldInKernelTest, QueryOrthogonalToLatentSpaceScoresEveryDocumentZero) {
  const WideFixture fx = WideFixture::Make();
  const LsiIndex& index = fx.engine.index();
  Rng rng(5);
  DenseVector residual = testing::RandomUnitVector(index.NumTerms(), rng);
  residual.Axpy(-1.0, linalg::Multiply(index.svd().u,
                                       index.FoldInQuery(residual).value()));
  const FoldedVector folded = index.Fold(residual).value();
  EXPECT_GT(folded.term_norm, 0.5);
  EXPECT_EQ(folded.Probe(), nullptr);
  const auto all = index.Search(residual, 0).value();
  ASSERT_EQ(all.size(), index.NumDocuments());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].document, i);
    EXPECT_EQ(all[i].score, 0.0);
  }
}

TEST_F(FoldInKernelTest, FoldInDocumentResidualAngle) {
  const WideFixture fx = WideFixture::Make();
  LsiIndex index = fx.engine.index();
  double angle = -1.0;
  ASSERT_TRUE(index.FoldInDocument(TermWeights{}, &angle).ok());
  EXPECT_EQ(angle, 0.0);
  angle = -1.0;
  ASSERT_TRUE(
      index.FoldInDocument(DenseVector(index.NumTerms(), 0.0), &angle).ok());
  EXPECT_EQ(angle, 0.0);
  // d = U_k c lies inside span(U_k).
  Rng rng(11);
  const DenseVector in_span = linalg::Multiply(
      index.svd().u, testing::RandomUnitVector(index.rank(), rng));
  angle = -1.0;
  ASSERT_TRUE(index.FoldInDocument(in_span, &angle).ok());
  EXPECT_NEAR(angle, 0.0, 1e-6);
  // A four-term document sits mostly outside the rank-100 subspace.
  angle = -1.0;
  ASSERT_TRUE(index.FoldInDocument(Queries(fx)[0], &angle).ok());
  EXPECT_GT(angle, 0.0);
  EXPECT_LT(angle, M_PI / 2);
}

}  // namespace
}  // namespace lsi::core
