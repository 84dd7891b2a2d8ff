#include "core/mixture_analysis.h"

#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/lsi_index.h"
#include "model/corpus_model.h"
#include "model/separable_model.h"
#include "text/term_weighting.h"

namespace lsi::core {
namespace {

using linalg::DenseMatrix;
using linalg::DenseVector;

/// Default options at rank `rank`.
LsiOptions RankOptions(std::size_t rank) {
  LsiOptions options;
  options.rank = rank;
  return options;
}

/// Term-space prototype of a topic: its probability vector.
std::vector<DenseVector> Prototypes(const model::CorpusModel& model) {
  std::vector<DenseVector> out;
  for (std::size_t t = 0; t < model.NumTopics(); ++t) {
    DenseVector proto(model.UniverseSize());
    for (std::size_t term = 0; term < model.UniverseSize(); ++term) {
      proto[term] = model.topic(t).ProbabilityOf(
          static_cast<text::TermId>(term));
    }
    out.push_back(std::move(proto));
  }
  return out;
}

TEST(MixtureAnalysisTest, Validation) {
  linalg::SparseMatrixBuilder builder(4, 4);
  builder.Add(0, 0, 1.0);
  builder.Add(1, 1, 1.0);
  builder.Add(2, 2, 1.0);
  builder.Add(3, 3, 1.0);
  auto index = LsiIndex::Build(builder.Build(), RankOptions(2));
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(EstimateMixtureWeights(index.value(), {}).ok());
  // More prototypes than latent dims.
  std::vector<DenseVector> three(3, DenseVector(4, 0.25));
  EXPECT_FALSE(EstimateMixtureWeights(index.value(), three).ok());
}

TEST(MixtureAnalysisTest, PureDocumentsGetPureWeights) {
  model::SeparableModelParams params;
  params.num_topics = 3;
  params.terms_per_topic = 30;
  params.epsilon = 0.0;
  params.min_document_length = 60;
  params.max_document_length = 80;
  auto model = model::BuildSeparableModel(params);
  ASSERT_TRUE(model.ok());
  Rng rng(811);
  auto corpus = model->GenerateCorpus(60, rng);
  ASSERT_TRUE(corpus.ok());
  auto matrix = text::BuildTermDocumentMatrix(corpus->corpus);
  ASSERT_TRUE(matrix.ok());
  auto index = LsiIndex::Build(matrix.value(), RankOptions(3));
  ASSERT_TRUE(index.ok());

  auto weights =
      EstimateMixtureWeights(index.value(), Prototypes(model.value()));
  ASSERT_TRUE(weights.ok());
  ASSERT_EQ(weights->rows(), 60u);
  ASSERT_EQ(weights->cols(), 3u);
  for (std::size_t d = 0; d < 60; ++d) {
    std::size_t topic = corpus->topic_of_document[d];
    EXPECT_GT((*weights)(d, topic), 0.9) << "doc " << d;
  }
}

TEST(MixtureAnalysisTest, MixedDocumentsGetMixedWeights) {
  // Two-topic mixtures: the estimated weights should put nontrivial
  // mass on both generating topics.
  model::SeparableModelParams params;
  params.num_topics = 4;
  params.terms_per_topic = 40;
  params.epsilon = 0.0;
  auto base = model::BuildSeparableModel(params);
  ASSERT_TRUE(base.ok());
  // Rebuild with a mixed-document sampler.
  std::vector<model::Topic> topics;
  for (std::size_t t = 0; t < 4; ++t) topics.push_back(base->topic(t));
  auto sampler = std::make_shared<model::MixedDocumentSampler>(
      4, /*topics_per_doc=*/2, /*min_length=*/150, /*max_length=*/200);
  auto model = model::CorpusModel::Create(base->UniverseSize(),
                                          std::move(topics), {}, sampler);
  ASSERT_TRUE(model.ok());
  Rng rng(813);
  auto corpus = model->GenerateCorpus(80, rng);
  ASSERT_TRUE(corpus.ok());
  auto matrix = text::BuildTermDocumentMatrix(corpus->corpus);
  ASSERT_TRUE(matrix.ok());
  auto index = LsiIndex::Build(matrix.value(), RankOptions(4));
  ASSERT_TRUE(index.ok());

  auto weights =
      EstimateMixtureWeights(index.value(), Prototypes(model.value()));
  ASSERT_TRUE(weights.ok());

  // Build the truth matrix from the specs and compare.
  DenseMatrix truth(80, 4, 0.0);
  for (std::size_t d = 0; d < 80; ++d) {
    for (const auto& [topic, weight] : corpus->specs[d].topics.components) {
      truth(d, topic) = weight;
    }
  }
  auto report = CompareMixtures(weights.value(), truth);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->mean_cosine, 0.9);
  EXPECT_LT(report->mean_absolute_error, 0.12);
  EXPECT_GT(report->dominant_topic_accuracy, 0.85);
}

TEST(CompareMixturesTest, Validation) {
  EXPECT_FALSE(CompareMixtures(DenseMatrix(2, 3), DenseMatrix(2, 2)).ok());
  EXPECT_FALSE(CompareMixtures(DenseMatrix(), DenseMatrix()).ok());
}

TEST(CompareMixturesTest, PerfectRecovery) {
  DenseMatrix w = {{0.7, 0.3}, {0.2, 0.8}};
  auto report = CompareMixtures(w, w);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->mean_absolute_error, 0.0);
  EXPECT_NEAR(report->mean_cosine, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(report->dominant_topic_accuracy, 1.0);
}

TEST(CompareMixturesTest, KnownError) {
  DenseMatrix est = {{1.0, 0.0}};
  DenseMatrix tru = {{0.0, 1.0}};
  auto report = CompareMixtures(est, tru);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->mean_absolute_error, 1.0);
  EXPECT_NEAR(report->mean_cosine, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(report->dominant_topic_accuracy, 0.0);
}

}  // namespace
}  // namespace lsi::core
