#include "ddl/trainer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/blocks.h"

namespace omr::ddl {

namespace {

/// Synthetic task shape: categorical ids and dense features per sample,
/// and the train/test set sizes.
constexpr std::size_t kFields = 8;
constexpr std::size_t kDenseFeatures = 32;
constexpr std::size_t kTrainSamples = 8192;
constexpr std::size_t kTestSamples = 2048;
/// SGD learning rate.
constexpr double kLr = 0.5;

/// One synthetic sample: kFields categorical ids + dense features + label.
struct Sample {
  std::vector<std::uint32_t> ids;
  std::vector<float> dense;
  float label = 0.0f;  // 0 or 1
};

/// Parameter layout inside the flat vector:
/// [ embedding (vocab x dim) | context v (dim) | dense W (D) | bias (1) ].
struct Layout {
  std::size_t vocab, dim, dense;
  std::size_t embed_off = 0;
  std::size_t v_off, w_off, b_off, total;
  explicit Layout(const TrainerConfig& c)
      : vocab(c.vocab), dim(kEmbedDim), dense(kDenseFeatures) {
    v_off = vocab * dim;
    w_off = v_off + dim;
    b_off = w_off + dense;
    total = b_off + 1;
  }
};

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Model score for a sample.
double score(const tensor::DenseTensor& theta, const Layout& L,
             const Sample& s) {
  double out = theta[L.b_off];
  // Sum-pooled embedding dotted with the context vector.
  for (std::size_t d = 0; d < L.dim; ++d) {
    double pooled = 0.0;
    for (std::uint32_t id : s.ids) pooled += theta[L.embed_off + id * L.dim + d];
    out += pooled * theta[L.v_off + d];
  }
  for (std::size_t j = 0; j < L.dense; ++j) {
    out += static_cast<double>(theta[L.w_off + j]) * s.dense[j];
  }
  return out;
}

/// Accumulate the logistic-loss gradient of one sample into `grad`.
/// Returns the sample's loss.
double backprop(const tensor::DenseTensor& theta, const Layout& L,
                const Sample& s, double inv_batch,
                tensor::DenseTensor& grad) {
  const double z = score(theta, L, s);
  const double p = sigmoid(z);
  const double dz = (p - s.label) * inv_batch;
  grad[L.b_off] += static_cast<float>(dz);
  for (std::size_t d = 0; d < L.dim; ++d) {
    double pooled = 0.0;
    for (std::uint32_t id : s.ids) pooled += theta[L.embed_off + id * L.dim + d];
    grad[L.v_off + d] += static_cast<float>(dz * pooled);
    const double g_embed = dz * theta[L.v_off + d];
    for (std::uint32_t id : s.ids) {
      grad[L.embed_off + id * L.dim + d] += static_cast<float>(g_embed);
    }
  }
  for (std::size_t j = 0; j < L.dense; ++j) {
    grad[L.w_off + j] += static_cast<float>(dz * s.dense[j]);
  }
  const double eps = 1e-9;
  return s.label > 0.5 ? -std::log(p + eps) : -std::log(1.0 - p + eps);
}

std::vector<Sample> make_dataset(const TrainerConfig& cfg, const Layout& L,
                                 const tensor::DenseTensor& teacher,
                                 std::size_t count, sim::Rng& rng) {
  std::vector<Sample> data;
  data.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Sample s;
    s.ids.resize(kFields);
    // Zipf-ish skew: some ids are hot, like real embedding workloads.
    for (auto& id : s.ids) {
      const double u = rng.next_double();
      id = static_cast<std::uint32_t>(
          static_cast<double>(cfg.vocab) * u * u);
      id = std::min<std::uint32_t>(id, static_cast<std::uint32_t>(cfg.vocab - 1));
    }
    s.dense.resize(kDenseFeatures);
    for (auto& x : s.dense) x = static_cast<float>(rng.next_normal() * 0.5);
    const double z = score(teacher, L, s) + rng.next_normal() * 0.1;
    s.label = z > 0.0 ? 1.0f : 0.0f;
    data.push_back(std::move(s));
  }
  return data;
}

}  // namespace

std::size_t model_dimension(const TrainerConfig& cfg) {
  return Layout(cfg).total;
}

TrainResult train_distributed(const TrainerConfig& cfg,
                              const std::optional<CompressionSpec>& spec) {
  const Layout L(cfg);
  sim::Rng rng(cfg.seed);

  // Teacher (ground truth): the label signal must flow mainly through the
  // embedding pathway (strong E and v, weak dense weights), mirroring the
  // embedding-dominated workloads of Table 1 — otherwise compressing the
  // (mostly-embedding) gradient blocks would be a no-op for the loss.
  const double embed_scale =
      1.0 / std::sqrt(static_cast<double>(L.dim) * 8.0);
  tensor::DenseTensor teacher(L.total);
  for (std::size_t i = 0; i < L.v_off; ++i) {
    teacher[i] = static_cast<float>(rng.next_normal() * embed_scale);
  }
  for (std::size_t i = L.v_off; i < L.w_off; ++i) {
    teacher[i] = 1.0f;  // context at ones: the task is near-linear in E
  }
  for (std::size_t i = L.w_off; i < L.total; ++i) {
    teacher[i] = static_cast<float>(rng.next_normal() * 0.1);
  }
  // Student: context starts at the teacher's ones (it stays learnable and
  // receives gradients); embeddings and dense weights start near zero, so
  // all learning flows through the embedding table — the structure that
  // makes the workloads of Table 1 sparse.
  tensor::DenseTensor theta(L.total);
  for (std::size_t i = 0; i < L.total; ++i) {
    theta[i] = static_cast<float>(rng.next_normal() * 0.01);
  }
  for (std::size_t i = L.v_off; i < L.w_off; ++i) theta[i] = 1.0f;

  sim::Rng data_rng = rng.fork();
  const std::vector<Sample> train =
      make_dataset(cfg, L, teacher, kTrainSamples, data_rng);
  const std::vector<Sample> test =
      make_dataset(cfg, L, teacher, kTestSamples, data_rng);

  std::vector<compress::ErrorFeedback> memories;
  if (spec && spec->error_feedback) {
    memories.assign(cfg.n_workers, compress::ErrorFeedback(L.total));
  }

  TrainResult result;
  result.loss_curve.reserve(cfg.iterations);
  const std::size_t per_worker =
      std::max<std::size_t>(1, cfg.batch_size / cfg.n_workers);
  std::size_t cursor = 0;
  double density_sum = 0.0;
  const std::size_t density_bs = kEmbedDim * 4;

  for (std::size_t it = 0; it < cfg.iterations; ++it) {
    tensor::DenseTensor global(L.total);
    double loss = 0.0;
    for (std::size_t w = 0; w < cfg.n_workers; ++w) {
      tensor::DenseTensor grad(L.total);
      const double inv = 1.0 / static_cast<double>(per_worker);
      for (std::size_t b = 0; b < per_worker; ++b) {
        const Sample& s = train[cursor % train.size()];
        ++cursor;
        loss += backprop(theta, L, s, inv, grad) /
                static_cast<double>(per_worker * cfg.n_workers);
      }
      if (spec) {
        tensor::DenseTensor sent =
            spec->error_feedback
                ? memories[w].step(grad, spec->compressor)
                : spec->compressor(grad);
        density_sum += 1.0 - tensor::block_sparsity(sent, density_bs);
        global.add_inplace(sent);
      } else {
        density_sum += 1.0 - tensor::block_sparsity(grad, density_bs);
        global.add_inplace(grad);
      }
    }
    // Average and apply (the collective path is verified separately).
    theta.axpy_inplace(static_cast<float>(-kLr / cfg.n_workers), global);
    result.loss_curve.push_back(loss);
  }
  result.final_loss =
      result.loss_curve.empty() ? 0.0 : result.loss_curve.back();
  result.mean_gradient_block_density =
      density_sum / static_cast<double>(cfg.iterations * cfg.n_workers);

  // Held-out evaluation.
  std::size_t tp = 0, fp = 0, fn = 0, correct = 0;
  for (const Sample& s : test) {
    const bool pred = score(theta, L, s) > 0.0;
    const bool truth = s.label > 0.5f;
    correct += pred == truth ? 1 : 0;
    if (pred && truth) ++tp;
    if (pred && !truth) ++fp;
    if (!pred && truth) ++fn;
  }
  result.test_accuracy =
      static_cast<double>(correct) / static_cast<double>(test.size());
  const double precision =
      tp + fp > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 0.0;
  const double recall =
      tp + fn > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 0.0;
  result.test_f1 = precision + recall > 0
                       ? 2.0 * precision * recall / (precision + recall)
                       : 0.0;
  return result;
}

}  // namespace omr::ddl
