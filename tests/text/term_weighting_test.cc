#include "text/term_weighting.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace lsi::text {
namespace {

Corpus MakeCorpus() {
  Corpus corpus;
  // d0: a a a b; d1: a c; d2: c c c c.
  corpus.AddDocument("d0", {"a", "a", "a", "b"});
  corpus.AddDocument("d1", {"a", "c"});
  corpus.AddDocument("d2", {"c", "c", "c", "c"});
  return corpus;
}

TEST(TermWeightingTest, RejectsEmptyCorpus) {
  Corpus corpus;
  EXPECT_FALSE(BuildTermDocumentMatrix(corpus).ok());
}

TEST(TermWeightingTest, TermFrequencyEntries) {
  Corpus corpus = MakeCorpus();
  auto matrix = BuildTermDocumentMatrix(corpus);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->rows(), 3u);  // a, b, c.
  EXPECT_EQ(matrix->cols(), 3u);
  TermId a = corpus.vocabulary().Lookup("a").value();
  TermId b = corpus.vocabulary().Lookup("b").value();
  TermId c = corpus.vocabulary().Lookup("c").value();
  EXPECT_DOUBLE_EQ(matrix->At(a, 0), 3.0);
  EXPECT_DOUBLE_EQ(matrix->At(b, 0), 1.0);
  EXPECT_DOUBLE_EQ(matrix->At(c, 0), 0.0);
  EXPECT_DOUBLE_EQ(matrix->At(c, 2), 4.0);
}

TEST(TermWeightingTest, BinaryEntries) {
  Corpus corpus = MakeCorpus();
  TermDocumentMatrixOptions options;
  options.scheme = WeightingScheme::kBinary;
  auto matrix = BuildTermDocumentMatrix(corpus, options);
  ASSERT_TRUE(matrix.ok());
  TermId a = corpus.vocabulary().Lookup("a").value();
  TermId c = corpus.vocabulary().Lookup("c").value();
  EXPECT_DOUBLE_EQ(matrix->At(a, 0), 1.0);
  EXPECT_DOUBLE_EQ(matrix->At(c, 2), 1.0);
}

TEST(TermWeightingTest, LogTfEntries) {
  Corpus corpus = MakeCorpus();
  TermDocumentMatrixOptions options;
  options.scheme = WeightingScheme::kLogTermFrequency;
  auto matrix = BuildTermDocumentMatrix(corpus, options);
  ASSERT_TRUE(matrix.ok());
  TermId a = corpus.vocabulary().Lookup("a").value();
  EXPECT_NEAR(matrix->At(a, 0), 1.0 + std::log(3.0), 1e-12);
  EXPECT_NEAR(matrix->At(a, 1), 1.0, 1e-12);
}

TEST(TermWeightingTest, TfIdfDownweightsCommonTerms) {
  Corpus corpus = MakeCorpus();
  TermDocumentMatrixOptions options;
  options.scheme = WeightingScheme::kTfIdf;
  auto matrix = BuildTermDocumentMatrix(corpus, options);
  ASSERT_TRUE(matrix.ok());
  TermId a = corpus.vocabulary().Lookup("a").value();  // df=2.
  TermId b = corpus.vocabulary().Lookup("b").value();  // df=1.
  // idf(a) = ln(3/2); idf(b) = ln(3).
  EXPECT_NEAR(matrix->At(a, 0), 3.0 * std::log(1.5), 1e-12);
  EXPECT_NEAR(matrix->At(b, 0), 1.0 * std::log(3.0), 1e-12);
}

TEST(TermWeightingTest, TfIdfZeroForUbiquitousTerm) {
  Corpus corpus;
  corpus.AddDocument("d0", {"common", "rare"});
  corpus.AddDocument("d1", {"common"});
  TermDocumentMatrixOptions options;
  options.scheme = WeightingScheme::kTfIdf;
  auto matrix = BuildTermDocumentMatrix(corpus, options);
  ASSERT_TRUE(matrix.ok());
  TermId common = corpus.vocabulary().Lookup("common").value();
  EXPECT_NEAR(matrix->At(common, 0), 0.0, 1e-12);  // log(2/2) = 0.
}

TEST(TermWeightingTest, LogEntropyConcentratedTermGetsFullWeight) {
  Corpus corpus;
  corpus.AddDocument("d0", {"focused", "spread"});
  corpus.AddDocument("d1", {"spread"});
  corpus.AddDocument("d2", {"spread"});
  TermDocumentMatrixOptions options;
  options.scheme = WeightingScheme::kLogEntropy;
  auto matrix = BuildTermDocumentMatrix(corpus, options);
  ASSERT_TRUE(matrix.ok());
  TermId focused = corpus.vocabulary().Lookup("focused").value();
  TermId spread = corpus.vocabulary().Lookup("spread").value();
  // "focused" occurs in one document: entropy weight 1. "spread" is
  // uniform over all 3 documents: entropy weight 0.
  EXPECT_NEAR(matrix->At(focused, 0), 1.0, 1e-12);
  EXPECT_NEAR(matrix->At(spread, 0), 0.0, 1e-12);
}

TEST(TermWeightingTest, ColumnNormalization) {
  Corpus corpus = MakeCorpus();
  TermDocumentMatrixOptions options;
  options.normalize_columns = true;
  auto matrix = BuildTermDocumentMatrix(corpus, options);
  ASSERT_TRUE(matrix.ok());
  for (std::size_t j = 0; j < matrix->cols(); ++j) {
    double norm_sq = 0.0;
    for (std::size_t i = 0; i < matrix->rows(); ++i) {
      double v = matrix->At(i, j);
      norm_sq += v * v;
    }
    EXPECT_NEAR(norm_sq, 1.0, 1e-12) << "column " << j;
  }
}

/// The assembly BuildTermDocumentMatrix used before it filled CSR
/// directly: weight each document's column, then sort all triplets
/// through SparseMatrixBuilder.
linalg::SparseMatrix TripletReference(
    const Corpus& corpus, const TermDocumentMatrixOptions& options) {
  const std::vector<double> global =
      ComputeGlobalWeights(corpus, options.scheme);
  linalg::SparseMatrixBuilder builder(corpus.NumTerms(),
                                      corpus.NumDocuments());
  for (std::size_t d = 0; d < corpus.NumDocuments(); ++d) {
    std::vector<std::pair<TermId, double>> column;
    double norm_sq = 0.0;
    for (const auto& [term, count] : corpus.document(d).counts()) {
      double w = LocalTermWeight(options.scheme, count) * global[term];
      if (w == 0.0) continue;
      column.emplace_back(term, w);
      norm_sq += w * w;
    }
    double scale = 1.0;
    if (options.normalize_columns && norm_sq > 0.0) {
      scale = 1.0 / std::sqrt(norm_sq);
    }
    for (const auto& [term, w] : column) builder.Add(term, d, w * scale);
  }
  return builder.Build();
}

/// Forty random documents over a 30-word vocabulary, one empty document,
/// and a term ("every") that occurs in every nonempty document.
Corpus RandomCorpus() {
  Rng rng(41);
  Corpus corpus;
  for (int d = 0; d < 40; ++d) {
    std::vector<std::string> tokens = {"every"};
    const std::size_t length = 3 + rng.NextUint64Below(12);
    for (std::size_t i = 0; i < length; ++i) {
      tokens.push_back("w" + std::to_string(rng.NextUint64Below(30)));
    }
    corpus.AddDocument("d" + std::to_string(d), tokens);
    if (d == 17) corpus.AddDocument("empty", {});
  }
  return corpus;
}

TEST(TermWeightingTest, CsrAssemblyEqualsTripletPathBitForBit) {
  Corpus corpus = RandomCorpus();
  const TermId every = corpus.vocabulary().Lookup("every").value();
  for (WeightingScheme scheme :
       {WeightingScheme::kBinary, WeightingScheme::kTermFrequency,
        WeightingScheme::kLogTermFrequency, WeightingScheme::kTfIdf,
        WeightingScheme::kLogEntropy}) {
    for (bool normalize : {false, true}) {
      TermDocumentMatrixOptions options;
      options.scheme = scheme;
      options.normalize_columns = normalize;
      auto matrix = BuildTermDocumentMatrix(corpus, options);
      ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
      linalg::SparseMatrix expected = TripletReference(corpus, options);
      const std::string label = "scheme " +
                                std::to_string(static_cast<int>(scheme)) +
                                (normalize ? " normalized" : "");
      EXPECT_EQ(matrix->rows(), expected.rows()) << label;
      EXPECT_EQ(matrix->cols(), expected.cols()) << label;
      EXPECT_EQ(matrix->row_offsets(), expected.row_offsets()) << label;
      EXPECT_EQ(matrix->col_indices(), expected.col_indices()) << label;
      EXPECT_EQ(matrix->values(), expected.values()) << label;
      // "every" is in 40 of 41 documents, so only the empty one keeps
      // its idf above zero: tf-idf keeps every entry of the row, with a
      // small weight. The empty document's column is empty throughout.
      const std::size_t empty = 18;
      for (std::size_t p = 0; p < matrix->NumNonZeros(); ++p) {
        EXPECT_NE(matrix->col_indices()[p], empty) << label;
      }
      EXPECT_GT(matrix->row_offsets()[every + 1],
                matrix->row_offsets()[every])
          << label;
    }
  }
}

TEST(TermWeightingTest, CsrAssemblySkipsZeroGlobalWeightLikeTripletPath) {
  // Without an empty document "every" is in all 40 documents: its tf-idf
  // weight is log(1) = 0, so its row holds no entries at all.
  Rng rng(43);
  Corpus corpus;
  for (int d = 0; d < 40; ++d) {
    std::vector<std::string> tokens = {"every"};
    for (int i = 0; i < 6; ++i) {
      tokens.push_back("w" + std::to_string(rng.NextUint64Below(30)));
    }
    corpus.AddDocument("d" + std::to_string(d), tokens);
  }
  const TermId every = corpus.vocabulary().Lookup("every").value();
  for (bool normalize : {false, true}) {
    TermDocumentMatrixOptions options;
    options.scheme = WeightingScheme::kTfIdf;
    options.normalize_columns = normalize;
    auto matrix = BuildTermDocumentMatrix(corpus, options);
    ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
    linalg::SparseMatrix expected = TripletReference(corpus, options);
    EXPECT_EQ(matrix->row_offsets(), expected.row_offsets());
    EXPECT_EQ(matrix->col_indices(), expected.col_indices());
    EXPECT_EQ(matrix->values(), expected.values());
    EXPECT_EQ(matrix->row_offsets()[every + 1], matrix->row_offsets()[every]);
  }
}

TEST(TermWeightingTest, QueryVectorMatchesScheme) {
  Corpus corpus = MakeCorpus();
  TermId a = corpus.vocabulary().Lookup("a").value();
  TermId b = corpus.vocabulary().Lookup("b").value();
  linalg::DenseVector query =
      WeightQueryVector(corpus, {{a, 2}, {b, 1}}, WeightingScheme::kTfIdf);
  ASSERT_EQ(query.size(), 3u);
  EXPECT_NEAR(query[a], 2.0 * std::log(1.5), 1e-12);
  EXPECT_NEAR(query[b], 1.0 * std::log(3.0), 1e-12);
}

TEST(TermWeightingTest, QueryVectorIgnoresUnknownIds) {
  Corpus corpus = MakeCorpus();
  linalg::DenseVector query =
      WeightQueryVector(corpus, {{999, 4}}, WeightingScheme::kTermFrequency);
  EXPECT_DOUBLE_EQ(query.Sum(), 0.0);
}

}  // namespace
}  // namespace lsi::text
