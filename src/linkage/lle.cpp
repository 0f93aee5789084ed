#include "linkage/lle.hpp"

#include <algorithm>
#include <cmath>

#include "linkage/fingerprint.hpp"
#include "util/error.hpp"

namespace caltrain::linkage {

std::vector<double> SolveLinearSystem(std::vector<double> a,
                                      std::vector<double> b, std::size_t n) {
  CALTRAIN_REQUIRE(a.size() == n * n && b.size() == n, "bad system size");
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col])) {
        pivot = row;
      }
    }
    CALTRAIN_REQUIRE(std::abs(a[pivot * n + col]) > 1e-30,
                     "singular system in LLE weight solve");
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a[col * n + j], a[pivot * n + j]);
      }
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * n + col];
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] * inv;
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) {
        a[row * n + j] -= factor * a[col * n + j];
      }
      b[row] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t row = n; row-- > 0;) {
    double acc = b[row];
    for (std::size_t j = row + 1; j < n; ++j) acc -= a[row * n + j] * x[j];
    x[row] = acc / a[row * n + row];
  }
  return x;
}

EigenResult JacobiEigenSymmetric(std::vector<double> m, std::size_t n,
                                 int max_sweeps) {
  CALTRAIN_REQUIRE(m.size() == n * n, "bad matrix size");
  // Eigenvector accumulator starts as identity.
  std::vector<double> v(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) off += m[i * n + j] * m[i * n + j];
    }
    if (off < 1e-18) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m[p * n + q];
        if (std::abs(apq) < 1e-15) continue;
        const double app = m[p * n + p];
        const double aqq = m[q * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m[k * n + p];
          const double mkq = m[k * n + q];
          m[k * n + p] = c * mkp - s * mkq;
          m[k * n + q] = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m[p * n + k];
          const double mqk = m[q * n + k];
          m[p * n + k] = c * mpk - s * mqk;
          m[q * n + k] = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v[k * n + p];
          const double vkq = v[k * n + q];
          v[k * n + p] = c * vkp - s * vkq;
          v[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }

  EigenResult result;
  result.values.resize(n);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.values[i] = m[i * n + i];
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return m[a * n + a] < m[b * n + b];
  });
  EigenResult sorted;
  sorted.values.resize(n);
  sorted.vectors.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t rank = 0; rank < n; ++rank) {
    const std::size_t col = order[rank];
    sorted.values[rank] = m[col * n + col];
    for (std::size_t row = 0; row < n; ++row) {
      sorted.vectors[rank][row] = v[row * n + col];
    }
  }
  return sorted;
}

std::vector<std::vector<double>> LocallyLinearEmbedding(
    const std::vector<std::vector<float>>& points, const LleOptions& options) {
  const std::size_t n = points.size();
  const std::size_t k = options.neighbors;
  CALTRAIN_REQUIRE(n > k + options.out_dims,
                   "LLE needs more points than neighbors + output dims");

  // Step 1+2: reconstruction weights.
  std::vector<double> w(n * n, 0.0);  // W[i][j]
  for (std::size_t i = 0; i < n; ++i) {
    // k+1 nearest, then drop self.
    std::vector<Neighbor> nbrs = BruteForceKnn(points, points[i], k + 1);
    std::vector<std::size_t> idx;
    for (const Neighbor& nb : nbrs) {
      if (nb.index != i && idx.size() < k) idx.push_back(nb.index);
    }
    CALTRAIN_CHECK(idx.size() == k, "not enough LLE neighbors");

    // Local Gram matrix C[a][b] = (x_i - x_a) . (x_i - x_b).
    const std::size_t dim = points[i].size();
    std::vector<double> gram(k * k, 0.0);
    double trace = 0.0;
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a; b < k; ++b) {
        double dot = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
          const double da = points[i][d] - points[idx[a]][d];
          const double db = points[i][d] - points[idx[b]][d];
          dot += da * db;
        }
        gram[a * k + b] = dot;
        gram[b * k + a] = dot;
        if (a == b) trace += dot;
      }
    }
    const double reg = options.regularization * (trace > 0.0 ? trace : 1.0);
    for (std::size_t a = 0; a < k; ++a) gram[a * k + a] += reg;

    std::vector<double> weights =
        SolveLinearSystem(std::move(gram), std::vector<double>(k, 1.0), k);
    double sum = 0.0;
    for (double x : weights) sum += x;
    CALTRAIN_CHECK(std::abs(sum) > 1e-30, "degenerate LLE weights");
    for (std::size_t a = 0; a < k; ++a) {
      w[i * n + idx[a]] = weights[a] / sum;
    }
  }

  // Step 3: M = (I - W)^T (I - W); bottom non-constant eigenvectors.
  std::vector<double> iw(n * n, 0.0);  // I - W
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      iw[i * n + j] = (i == j ? 1.0 : 0.0) - w[i * n + j];
    }
  }
  std::vector<double> m(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < n; ++r) acc += iw[r * n + i] * iw[r * n + j];
      m[i * n + j] = acc;
      m[j * n + i] = acc;
    }
  }

  const EigenResult eigen = JacobiEigenSymmetric(std::move(m), n);

  // Skip eigenvector 0 (the constant vector with eigenvalue ~0).
  std::vector<std::vector<double>> coords(n,
                                          std::vector<double>(options.out_dims));
  for (std::size_t d = 0; d < options.out_dims; ++d) {
    const std::vector<double>& vec = eigen.vectors[d + 1];
    for (std::size_t i = 0; i < n; ++i) coords[i][d] = vec[i];
  }
  return coords;
}

}  // namespace caltrain::linkage
