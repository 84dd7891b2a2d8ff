#include "core/feedback.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/retrieval_metrics.h"
#include "model/separable_model.h"
#include "text/analyzer.h"
#include "text/corpus_io.h"
#include "text/term_weighting.h"

namespace lsi::core {
namespace {

using linalg::DenseVector;
using linalg::SparseMatrix;

struct FeedbackFixture {
  SparseMatrix matrix{0, 0};
  std::vector<std::size_t> topics;
  LsiIndex index;

  static FeedbackFixture Make() {
    model::SeparableModelParams params;
    params.num_topics = 4;
    params.terms_per_topic = 40;
    params.epsilon = 0.05;
    params.min_document_length = 30;
    params.max_document_length = 60;
    auto model = model::BuildSeparableModel(params);
    Rng rng(901);
    auto corpus = model->GenerateCorpus(80, rng);
    auto matrix = text::BuildTermDocumentMatrix(corpus->corpus).value();
    LsiOptions options;
    options.rank = 4;
    return FeedbackFixture{matrix, corpus->topic_of_document,
                           LsiIndex::Build(matrix, options).value()};
  }
};

TEST(RocchioTest, Validation) {
  FeedbackFixture fx = FeedbackFixture::Make();
  DenseVector query(fx.matrix.rows(), 0.0);
  query[0] = 1.0;
  RocchioOptions options;
  options.feedback_documents = 0;
  EXPECT_FALSE(RocchioExpandQuery(fx.index, query, options).ok());
  EXPECT_FALSE(
      RocchioExpandQuery(fx.index, DenseVector(3, 1.0)).ok());
}

TEST(RocchioTest, ExpandedQueryHasLatentDimension) {
  FeedbackFixture fx = FeedbackFixture::Make();
  DenseVector query(fx.matrix.rows(), 0.0);
  query[0] = 1.0;
  auto expanded = RocchioExpandQuery(fx.index, query);
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(expanded->size(), fx.index.rank());
  EXPECT_GT(expanded->Norm(), 0.0);
}

TEST(RocchioTest, AlphaOnlyReducesToPlainFoldIn) {
  FeedbackFixture fx = FeedbackFixture::Make();
  DenseVector query(fx.matrix.rows(), 0.0);
  query[5] = 1.0;
  RocchioOptions options;
  options.alpha = 1.0;
  options.beta = 0.0;
  auto expanded = RocchioExpandQuery(fx.index, query, options);
  auto folded = fx.index.FoldInQuery(query);
  ASSERT_TRUE(expanded.ok() && folded.ok());
  EXPECT_LT(Distance(expanded.value(), folded.value()), 1e-12);
}

TEST(RocchioTest, FeedbackPullsTowardTopicCentroid) {
  FeedbackFixture fx = FeedbackFixture::Make();
  // Single-term query from topic 0.
  DenseVector query(fx.matrix.rows(), 0.0);
  query[0] = 1.0;
  auto expanded = RocchioExpandQuery(fx.index, query);
  ASSERT_TRUE(expanded.ok());
  // Expanded query should be closer (in cosine) to topic-0 documents'
  // centroid than the raw folded query is.
  DenseVector centroid(fx.index.rank(), 0.0);
  std::size_t count = 0;
  for (std::size_t d = 0; d < fx.index.NumDocuments(); ++d) {
    if (fx.topics[d] == 0) {
      centroid.Axpy(1.0, fx.index.DocumentVector(d));
      ++count;
    }
  }
  ASSERT_GT(count, 0u);
  centroid.Scale(1.0 / static_cast<double>(count));
  auto folded = fx.index.FoldInQuery(query);
  ASSERT_TRUE(folded.ok());
  EXPECT_GE(CosineSimilarity(expanded.value(), centroid),
            CosineSimilarity(folded.value(), centroid) - 1e-12);
}

TEST(SearchWithFeedbackTest, RankingQualityNotWorse) {
  FeedbackFixture fx = FeedbackFixture::Make();
  double plain_map = 0.0, feedback_map = 0.0;
  for (std::size_t topic = 0; topic < 4; ++topic) {
    DenseVector query(fx.matrix.rows(), 0.0);
    query[topic * 40] = 1.0;  // Single-term query.
    RelevanceSet relevant;
    for (std::size_t d = 0; d < fx.index.NumDocuments(); ++d) {
      if (fx.topics[d] == topic) relevant.insert(d);
    }
    auto plain = fx.index.Search(query);
    auto feedback = SearchWithFeedback(fx.index, query);
    ASSERT_TRUE(plain.ok() && feedback.ok());
    plain_map += AveragePrecision(plain.value(), relevant);
    feedback_map += AveragePrecision(feedback.value(), relevant);
  }
  EXPECT_GE(feedback_map, plain_map - 0.05);
}

TEST(SearchWithFeedbackTest, SkipsTombstones) {
  // Regression test: the second pass used to rank tombstoned documents
  // (score 0) ahead of live documents with negative cosines.
  text::Analyzer analyzer;
  auto corpus = text::LoadCorpusFromFile(
      LSI_REPO_ROOT "/data/mini_corpus.tsv", analyzer);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_EQ(corpus->NumDocuments(), 45u);
  SparseMatrix matrix = text::BuildTermDocumentMatrix(corpus.value()).value();
  LsiOptions options;
  options.rank = 5;
  LsiIndex index = LsiIndex::Build(matrix, options).value();
  for (std::size_t d = 10; d < 45; ++d) {
    ASSERT_TRUE(index.MarkDeleted(d).ok());
  }
  const DenseVector query = matrix.ToDense().Column(0);
  auto plain = index.Search(query, 20);
  auto feedback = SearchWithFeedback(index, query, 20);
  ASSERT_TRUE(plain.ok() && feedback.ok());
  EXPECT_EQ(plain->size(), 10u);
  EXPECT_EQ(feedback->size(), 10u);  // Every live document, nothing more.
  for (const SearchResult& r : feedback.value()) {
    EXPECT_FALSE(index.IsDeleted(r.document)) << r.document;
  }
}

TEST(SearchWithFeedbackTest, TopKRespected) {
  FeedbackFixture fx = FeedbackFixture::Make();
  DenseVector query(fx.matrix.rows(), 0.0);
  query[0] = 1.0;
  auto hits = SearchWithFeedback(fx.index, query, 7);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 7u);
}

}  // namespace
}  // namespace lsi::core
