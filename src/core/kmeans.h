#ifndef LSI_CORE_KMEANS_H_
#define LSI_CORE_KMEANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "linalg/dense_matrix.h"

namespace lsi::core {

/// Options for Lloyd's k-means.
struct KMeansOptions {
  /// Lloyd iterations at most; a run stops earlier once no point
  /// changes cluster.
  std::size_t max_iterations = 100;
  /// Seeds the k-means++ choices and empty-cluster reseeds.
  std::uint64_t seed = 42;
  /// Independent restarts; the best (lowest-inertia) run wins.
  std::size_t restarts = 4;
};

/// Result of a k-means run.
struct KMeansResult {
  std::vector<std::size_t> cluster_of_point;
  linalg::DenseMatrix centroids;  // k x dim.
  /// Sum of squared distances of points to their centroids.
  double inertia = 0.0;
  std::size_t iterations = 0;
};

/// Lloyd's algorithm with k-means++ seeding over the ROWS of `points`.
/// Used by the Theorem 6 pipeline to read topics off the spectral
/// embedding. Requires 1 <= k <= points.rows().
Result<KMeansResult> KMeans(const linalg::DenseMatrix& points, std::size_t k,
                            const KMeansOptions& options = {});

}  // namespace lsi::core

#endif  // LSI_CORE_KMEANS_H_
