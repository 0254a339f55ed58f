#include "ml/neural_network.h"

#include <cmath>
#include <cstring>
#include <utility>

namespace mb2 {

namespace {
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;
}  // namespace

void NeuralNetwork::Forward(const std::vector<double> &x,
                            std::vector<std::vector<double>> *activations) const {
  activations->clear();
  activations->push_back(x);
  for (size_t l = 0; l < layers_.size(); l++) {
    const Layer &layer = layers_[l];
    const std::vector<double> &in = activations->back();
    std::vector<double> out(layer.out, 0.0);
    for (size_t o = 0; o < layer.out; o++) {
      double sum = layer.b[o];
      const double *w = layer.w.data() + o * layer.in;
      for (size_t i = 0; i < layer.in; i++) sum += w[i] * in[i];
      // ReLU on hidden layers, identity on the output layer.
      out[o] = (l + 1 < layers_.size() && sum < 0.0) ? 0.0 : sum;
    }
    activations->push_back(std::move(out));
  }
}

void NeuralNetwork::BuildBatchWeights() {
  for (Layer &layer : layers_) {
    if (layer.w.size() != layer.in * layer.out) {
      // Corrupt load (the reader flags it separately); leave wt empty rather
      // than index out of bounds.
      layer.wt.clear();
      continue;
    }
    layer.wt.resize(layer.in * layer.out);
    for (size_t o = 0; o < layer.out; o++) {
      for (size_t i = 0; i < layer.in; i++) {
        layer.wt[i * layer.out + o] = layer.w[o * layer.in + i];
      }
    }
  }
}

void NeuralNetwork::Fit(const Matrix &x, const Matrix &y) {
  const size_t n = x.rows(), d = x.cols(), k = y.cols();
  x_std_.Fit(x);
  y_std_.Fit(y);
  const Matrix xs = x_std_.TransformAll(x);
  const Matrix ys = y_std_.TransformAll(y);

  // Build layers: d -> hidden... -> k with He initialization.
  layers_.clear();
  std::vector<size_t> sizes = {d};
  sizes.insert(sizes.end(), hidden_.begin(), hidden_.end());
  sizes.push_back(k);
  for (size_t l = 0; l + 1 < sizes.size(); l++) {
    Layer layer;
    layer.in = sizes[l];
    layer.out = sizes[l + 1];
    layer.w.resize(layer.in * layer.out);
    layer.b.assign(layer.out, 0.0);
    const double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (auto &w : layer.w) w = rng_.Gaussian(0.0, scale);
    layer.mw.assign(layer.w.size(), 0.0);
    layer.vw.assign(layer.w.size(), 0.0);
    layer.mb.assign(layer.out, 0.0);
    layer.vb.assign(layer.out, 0.0);
    layers_.push_back(std::move(layer));
  }
  if (n == 0) {
    BuildBatchWeights();
    return;
  }

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; i++) order[i] = i;
  uint64_t step = 0;

  // Gradient accumulators, one per layer per batch.
  std::vector<std::vector<double>> gw(layers_.size()), gb(layers_.size());
  std::vector<std::vector<double>> activations;
  std::vector<std::vector<double>> deltas(layers_.size() + 1);

  for (uint32_t epoch = 0; epoch < epochs_; epoch++) {
    rng_.Shuffle(&order);
    for (size_t start = 0; start < n; start += batch_size_) {
      const size_t end = std::min(start + batch_size_, n);
      const double batch_n = static_cast<double>(end - start);
      for (size_t l = 0; l < layers_.size(); l++) {
        gw[l].assign(layers_[l].w.size(), 0.0);
        gb[l].assign(layers_[l].out, 0.0);
      }

      for (size_t bi = start; bi < end; bi++) {
        const size_t r = order[bi];
        Forward(xs.Row(r), &activations);

        // Output delta: squared loss derivative.
        std::vector<double> &out_act = activations.back();
        deltas[layers_.size()].assign(out_act.size(), 0.0);
        for (size_t j = 0; j < out_act.size(); j++) {
          deltas[layers_.size()][j] = 2.0 * (out_act[j] - ys.At(r, j)) /
                                      static_cast<double>(out_act.size());
        }

        // Backprop.
        for (size_t li = layers_.size(); li-- > 0;) {
          const Layer &layer = layers_[li];
          const std::vector<double> &in_act = activations[li];
          const std::vector<double> &delta_out = deltas[li + 1];
          std::vector<double> &delta_in = deltas[li];
          delta_in.assign(layer.in, 0.0);
          for (size_t o = 0; o < layer.out; o++) {
            const double dout = delta_out[o];
            if (dout == 0.0) continue;
            double *gwp = gw[li].data() + o * layer.in;
            const double *wp = layer.w.data() + o * layer.in;
            for (size_t i = 0; i < layer.in; i++) {
              gwp[i] += dout * in_act[i];
              delta_in[i] += dout * wp[i];
            }
            gb[li][o] += dout;
          }
          // ReLU derivative for the layer below (skip for the input).
          if (li > 0) {
            const std::vector<double> &act = activations[li];
            for (size_t i = 0; i < layer.in; i++) {
              if (act[i] <= 0.0) delta_in[i] = 0.0;
            }
          }
        }
      }

      // Adam update.
      step++;
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(step));
      for (size_t l = 0; l < layers_.size(); l++) {
        Layer &layer = layers_[l];
        for (size_t i = 0; i < layer.w.size(); i++) {
          const double g = gw[l][i] / batch_n;
          layer.mw[i] = kBeta1 * layer.mw[i] + (1.0 - kBeta1) * g;
          layer.vw[i] = kBeta2 * layer.vw[i] + (1.0 - kBeta2) * g * g;
          layer.w[i] -= learning_rate_ * (layer.mw[i] / bc1) /
                        (std::sqrt(layer.vw[i] / bc2) + kAdamEps);
        }
        for (size_t o = 0; o < layer.out; o++) {
          const double g = gb[l][o] / batch_n;
          layer.mb[o] = kBeta1 * layer.mb[o] + (1.0 - kBeta1) * g;
          layer.vb[o] = kBeta2 * layer.vb[o] + (1.0 - kBeta2) * g * g;
          layer.b[o] -= learning_rate_ * (layer.mb[o] / bc1) /
                        (std::sqrt(layer.vb[o] / bc2) + kAdamEps);
        }
      }
    }
  }
  BuildBatchWeights();
}

std::vector<double> NeuralNetwork::Predict(const std::vector<double> &x) const {
  std::vector<std::vector<double>> activations;
  Forward(x_std_.Transform(x), &activations);
  return y_std_.InverseTransform(activations.back());
}

void NeuralNetwork::PredictBatch(const Matrix &x, Matrix *out) const {
  const size_t n = x.rows();
  if (layers_.empty()) {
    // Un-fitted network: Forward is the identity on the standardized input.
    x_std_.TransformAllInto(x, out);
    y_std_.InverseTransformInPlace(out);
    return;
  }
  const size_t k = layers_.back().out;
  out->Resize(n, k);
  if (n == 0) return;

  // Ping-pong activation buffers: each layer is one bias-init plus one
  // matrix-matrix multiply against the transposed (in × out) weight copy —
  // the layout whose inner loop runs across output neurons, which is the
  // vectorizable direction. The kernel starts each element from the bias and
  // accumulates inputs in ascending order — the same summation order as
  // Forward's per-row loop, so the bits match exactly.
  Matrix cur, next;
  x_std_.TransformAllInto(x, &cur);
  for (size_t l = 0; l < layers_.size(); l++) {
    const Layer &layer = layers_[l];
    MB2_ASSERT(cur.cols() == layer.in, "layer input width mismatch");
    MB2_ASSERT(layer.wt.size() == layer.w.size(), "batch weights not built");
    Matrix *dst = (l + 1 == layers_.size()) ? out : &next;
    dst->Resize(n, layer.out);
    for (size_t r = 0; r < n; r++) {
      std::memcpy(dst->RowPtr(r), layer.b.data(),
                  layer.out * sizeof(double));
    }
    GemmKernel(cur.RowPtr(0), layer.wt.data(), dst->RowPtr(0), n, layer.in,
               layer.out, /*accumulate=*/true);
    if (l + 1 < layers_.size()) {
      ReluInPlace(dst->RowPtr(0), n * layer.out);
      std::swap(cur, next);
    }
  }
  y_std_.InverseTransformInPlace(out);
}

}  // namespace mb2
