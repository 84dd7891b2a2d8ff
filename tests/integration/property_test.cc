// Parameterized property suites: invariants that must hold across seeds,
// shapes, and parameter sweeps rather than on one hand-picked input.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/lsi_index.h"
#include "core/skew.h"
#include "core/vector_space_index.h"
#include "linalg/norms.h"
#include "linalg/svd.h"
#include "model/separable_model.h"
#include "test_util.h"
#include "text/porter_stemmer.h"
#include "text/term_weighting.h"
#include "text/tokenizer.h"

namespace lsi {
namespace {

// --- Theorem 2 holds for every seed, not just a lucky one ---

class Theorem2SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem2SeedSweep, ZeroSeparableAlwaysPerfectlyRecovered) {
  model::SeparableModelParams params;
  params.num_topics = 5;
  params.terms_per_topic = 30;
  params.epsilon = 0.0;
  params.min_document_length = 40;
  params.max_document_length = 60;
  auto model = model::BuildSeparableModel(params);
  ASSERT_TRUE(model.ok());
  Rng rng(GetParam());
  auto corpus = model->GenerateCorpus(60, rng);
  ASSERT_TRUE(corpus.ok());
  auto matrix = text::BuildTermDocumentMatrix(corpus->corpus);
  ASSERT_TRUE(matrix.ok());
  core::LsiOptions options;
  options.rank = 5;
  auto index = core::LsiIndex::Build(matrix.value(), options);
  ASSERT_TRUE(index.ok());
  auto accuracy = core::NearestNeighborTopicAccuracy(
      index->document_vectors(), corpus->topic_of_document);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_DOUBLE_EQ(accuracy.value(), 1.0);
  auto skew = core::ComputeSkew(index->document_vectors(),
                                corpus->topic_of_document);
  ASSERT_TRUE(skew.ok());
  EXPECT_LT(skew.value(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem2SeedSweep,
                         ::testing::Values(1, 7, 42, 1234, 99991));

// --- SVD invariants across shapes ---

struct Shape {
  std::size_t rows;
  std::size_t cols;
};

class SvdInvariantSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(SvdInvariantSweep, TransposeHasSameSingularValues) {
  Rng rng(1000 + GetParam().rows + GetParam().cols);
  linalg::DenseMatrix a =
      testing::RandomMatrix(GetParam().rows, GetParam().cols, rng);
  auto direct = linalg::JacobiSvd(a);
  auto transposed = linalg::JacobiSvd(a.Transposed());
  ASSERT_TRUE(direct.ok() && transposed.ok());
  for (std::size_t i = 0; i < direct->rank(); ++i) {
    EXPECT_NEAR(direct->singular_values[i], transposed->singular_values[i],
                1e-9);
  }
}

TEST_P(SvdInvariantSweep, ScalingScalesSingularValues) {
  Rng rng(2000 + GetParam().rows);
  linalg::DenseMatrix a =
      testing::RandomMatrix(GetParam().rows, GetParam().cols, rng);
  auto before = linalg::JacobiSvd(a);
  a.Scale(2.5);
  auto after = linalg::JacobiSvd(a);
  ASSERT_TRUE(before.ok() && after.ok());
  for (std::size_t i = 0; i < before->rank(); ++i) {
    EXPECT_NEAR(after->singular_values[i], 2.5 * before->singular_values[i],
                1e-9);
  }
}

TEST_P(SvdInvariantSweep, TwoNormBetweenSigma1AndFrobenius) {
  Rng rng(3000 + GetParam().cols);
  linalg::DenseMatrix a =
      testing::RandomMatrix(GetParam().rows, GetParam().cols, rng);
  auto svd = linalg::JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  double two_norm = linalg::TwoNorm(a);
  EXPECT_NEAR(two_norm, svd->singular_values[0],
              1e-6 * svd->singular_values[0]);
  EXPECT_LE(two_norm, a.FrobeniusNorm() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdInvariantSweep,
                         ::testing::Values(Shape{6, 6}, Shape{12, 7},
                                           Shape{7, 12}, Shape{20, 20}));

// --- Porter stemmer invariants over generated words ---

TEST(PorterPropertyTest, NeverGrowsAndNeverEmptiesWords) {
  Rng rng(4242);
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz";
  const char* suffixes[] = {"ing",   "ed",    "s",     "es",   "ation",
                            "ness",  "ful",   "ity",   "ize",  "al",
                            "ement", "ously", "ative", "izer", "icate"};
  for (int trial = 0; trial < 500; ++trial) {
    std::size_t stem_len = 3 + rng.NextUint64Below(6);
    std::string word;
    for (std::size_t i = 0; i < stem_len; ++i) {
      word += alphabet[rng.NextUint64Below(26)];
    }
    word += suffixes[rng.NextUint64Below(15)];
    std::string stemmed = text::PorterStem(word);
    EXPECT_FALSE(stemmed.empty()) << word;
    EXPECT_LE(stemmed.size(), word.size()) << word;
    // Output is lowercase ASCII letters only.
    for (char c : stemmed) {
      EXPECT_TRUE(c >= 'a' && c <= 'z') << word << " -> " << stemmed;
    }
  }
}

TEST(TokenizerPropertyTest, ArbitraryBytesNeverCrashOrViolateLimits) {
  Rng rng(1717);
  text::TokenizerOptions options;
  options.min_token_length = 2;
  options.max_token_length = 12;
  text::Tokenizer tokenizer(options);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes;
    std::size_t len = rng.NextUint64Below(200);
    for (std::size_t i = 0; i < len; ++i) {
      bytes += static_cast<char>(rng.NextUint64Below(256));
    }
    auto tokens = tokenizer.Tokenize(bytes);
    for (const std::string& token : tokens) {
      EXPECT_GE(token.size(), 2u);
      EXPECT_LE(token.size(), 12u);
      for (char c : token) {
        unsigned char u = static_cast<unsigned char>(c);
        EXPECT_LT(u, 128u);
      }
    }
  }
}

// --- Retrieval invariants ---

TEST(RetrievalPropertyTest, QueryScalingDoesNotChangeRanking) {
  model::SeparableModelParams params;
  params.num_topics = 3;
  params.terms_per_topic = 20;
  params.epsilon = 0.05;
  auto model = model::BuildSeparableModel(params);
  Rng rng(555);
  auto corpus = model->GenerateCorpus(40, rng);
  auto matrix = text::BuildTermDocumentMatrix(corpus->corpus);
  ASSERT_TRUE(matrix.ok());
  core::LsiOptions options;
  options.rank = 3;
  auto index = core::LsiIndex::Build(matrix.value(), options);
  ASSERT_TRUE(index.ok());

  linalg::DenseVector query(matrix->rows(), 0.0);
  query[0] = 1.0;
  query[3] = 0.5;
  linalg::DenseVector scaled = linalg::Scaled(query, 17.0);
  auto base = index->Search(query);
  auto big = index->Search(scaled);
  ASSERT_TRUE(base.ok() && big.ok());
  ASSERT_EQ(base->size(), big->size());
  for (std::size_t i = 0; i < base->size(); ++i) {
    EXPECT_EQ((*base)[i].document, (*big)[i].document);
    EXPECT_NEAR((*base)[i].score, (*big)[i].score, 1e-12);
  }
}

TEST(RetrievalPropertyTest, EmptyDocumentNeverRetrievedAboveMatches) {
  // A document that lost every term (e.g. all stop-words) scores 0 in
  // both engines and cannot outrank any genuine match.
  text::Corpus corpus;
  corpus.AddDocument("real", {"alpha", "beta"});
  corpus.AddDocument("empty", std::vector<std::string>{});
  corpus.AddDocument("other", {"gamma"});
  auto matrix = text::BuildTermDocumentMatrix(corpus);
  ASSERT_TRUE(matrix.ok());
  auto vsm = core::VectorSpaceIndex::Build(matrix.value());
  ASSERT_TRUE(vsm.ok());
  linalg::DenseVector query(matrix->rows(), 0.0);
  query[corpus.vocabulary().Lookup("alpha").value()] = 1.0;
  auto hits = vsm->Search(query);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ((*hits)[0].document, 0u);
  for (const core::SearchResult& hit : hits.value()) {
    if (hit.document == 1) {
      EXPECT_DOUBLE_EQ(hit.score, 0.0);
    }
  }
}

// --- Weighting invariants ---

class WeightingSweep
    : public ::testing::TestWithParam<text::WeightingScheme> {};

TEST_P(WeightingSweep, MatrixEntriesNonnegativeAndFiniteOnCountData) {
  model::SeparableModelParams params;
  params.num_topics = 3;
  params.terms_per_topic = 15;
  auto model = model::BuildSeparableModel(params);
  Rng rng(808);
  auto corpus = model->GenerateCorpus(30, rng);
  text::TermDocumentMatrixOptions options;
  options.scheme = GetParam();
  auto matrix = text::BuildTermDocumentMatrix(corpus->corpus, options);
  ASSERT_TRUE(matrix.ok());
  for (double v : matrix->values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_P(WeightingSweep, QueryWeightsConsistentWithMatrixColumns) {
  // A "query" that repeats document j's counts must be weighted exactly
  // like column j (before any column normalization).
  text::Corpus corpus;
  corpus.AddDocument("d0", {"a", "a", "b"});
  corpus.AddDocument("d1", {"b", "c", "c", "c"});
  text::TermDocumentMatrixOptions options;
  options.scheme = GetParam();
  auto matrix = text::BuildTermDocumentMatrix(corpus, options);
  ASSERT_TRUE(matrix.ok());
  std::vector<std::pair<text::TermId, std::size_t>> counts;
  for (const auto& [term, count] : corpus.document(1).counts()) {
    counts.emplace_back(term, count);
  }
  linalg::DenseVector query =
      text::WeightQueryVector(corpus, counts, GetParam());
  for (std::size_t t = 0; t < matrix->rows(); ++t) {
    EXPECT_NEAR(query[t], matrix->At(t, 1), 1e-12) << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, WeightingSweep,
    ::testing::Values(text::WeightingScheme::kBinary,
                      text::WeightingScheme::kTermFrequency,
                      text::WeightingScheme::kLogTermFrequency,
                      text::WeightingScheme::kTfIdf,
                      text::WeightingScheme::kLogEntropy));

}  // namespace
}  // namespace lsi
