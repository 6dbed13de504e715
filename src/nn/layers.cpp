#include "nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "nn/gemm.h"
#include "util/thread_pool.h"

namespace cea::nn {
namespace {

/// He-normal initialization for a parameter vector with the given fan-in.
void he_init(std::vector<float>& params, std::size_t fan_in, Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (auto& p : params) p = static_cast<float>(rng.normal(0.0, stddev));
}

std::size_t conv_output_extent(std::size_t in, std::size_t kernel,
                               std::size_t stride, std::size_t padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

/// Run fn(b) for every sample of a minibatch, fanned out over the compute
/// pool when one is configured. Samples only ever write their own output
/// slices (cross-sample gradient accumulation goes through per-sample
/// scratch reduced serially afterwards), so pooled and serial execution
/// are bit-identical.
void for_each_sample(std::size_t batch,
                     const std::function<void(std::size_t)>& fn) {
  util::ThreadPool* pool = compute_pool();
  if (pool != nullptr && batch > 1) {
    pool->parallel_for(batch, fn);
  } else {
    for (std::size_t b = 0; b < batch; ++b) fn(b);
  }
}

/// Per-thread scratch, reused across layers, samples and minibatches
/// (never shrinks). Slot 0 holds im2col patches, slot 1 the gradient
/// patches of the backward pass.
std::vector<float>& tls_workspace(std::size_t slot, std::size_t n) {
  thread_local std::vector<float> buffers[2];
  auto& buffer = buffers[slot];
  if (buffer.size() < n) buffer.resize(n);
  return buffer;
}

}  // namespace

// ---------------------------------------------------------------- Dense

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weights_(in_features * out_features),
      bias_(out_features, 0.0f),
      grad_weights_(weights_.size(), 0.0f),
      grad_bias_(out_features, 0.0f) {
  he_init(weights_, in_, rng);
}

Tensor Dense::forward(const Tensor& input) {
  assert(input.rank() == 2 && input.dim(1) == in_);
  if (compute_backend() == ComputeBackend::kReference)
    return forward_reference(input);
  cached_input_ = input;
  const std::size_t batch = input.dim(0);
  Tensor out = Tensor::uninitialized({batch, out_});
  // out = X · W^T with rows pre-filled by the bias; the GEMM accumulates.
  float* o = out.data().data();
  for (std::size_t b = 0; b < batch; ++b)
    std::memcpy(o + b * out_, bias_.data(), out_ * sizeof(float));
  gemm::multiply(input.data().data(), in_, gemm::Op::kNone, weights_.data(),
                 in_, gemm::Op::kTranspose, o, out_, batch, out_, in_,
                 compute_pool());
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (compute_backend() == ComputeBackend::kReference)
    return backward_reference(grad_output);
  const std::size_t batch = cached_input_.dim(0);
  Tensor grad_input = Tensor::uninitialized({batch, in_});
  const float* g = grad_output.data().data();
  // grad_bias: column sums of G, accumulated in the seed's (b, o) order.
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t o = 0; o < out_; ++o) grad_bias_[o] += g[b * out_ + o];
  // grad_input = G · W (overwriting; the fresh tensor needs no zero pass).
  gemm::multiply(g, out_, gemm::Op::kNone, weights_.data(), in_,
                 gemm::Op::kNone, grad_input.data().data(), in_, batch, in_,
                 out_, compute_pool(), /*accumulate=*/false);
  // grad_weights += G^T · X.
  gemm::multiply(g, out_, gemm::Op::kTranspose,
                 cached_input_.data().data(), in_, gemm::Op::kNone,
                 grad_weights_.data(), in_, out_, in_, batch,
                 compute_pool());
  return grad_input;
}

Tensor Dense::forward_reference(const Tensor& input) {
  cached_input_ = input;
  const std::size_t batch = input.dim(0);
  Tensor out({batch, out_});
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out_; ++o) {
      float acc = bias_[o];
      const float* w = &weights_[o * in_];
      for (std::size_t i = 0; i < in_; ++i) acc += w[i] * input.at(b, i);
      out.at(b, o) = acc;
    }
  }
  return out;
}

Tensor Dense::backward_reference(const Tensor& grad_output) {
  const std::size_t batch = cached_input_.dim(0);
  Tensor grad_input({batch, in_});
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out_; ++o) {
      const float g = grad_output.at(b, o);
      grad_bias_[o] += g;
      float* gw = &grad_weights_[o * in_];
      const float* w = &weights_[o * in_];
      for (std::size_t i = 0; i < in_; ++i) {
        gw[i] += g * cached_input_.at(b, i);
        grad_input.at(b, i) += g * w[i];
      }
    }
  }
  return grad_input;
}

void Dense::apply_gradients(float learning_rate) {
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] -= learning_rate * grad_weights_[i];
    grad_weights_[i] = 0.0f;
  }
  for (std::size_t i = 0; i < bias_.size(); ++i) {
    bias_[i] -= learning_rate * grad_bias_[i];
    grad_bias_[i] = 0.0f;
  }
}

std::size_t Dense::parameter_count() const noexcept {
  return weights_.size() + bias_.size();
}

void Dense::visit_parameters(const ParameterVisitor& visit) {
  visit(weights_);
  visit(bias_);
}

void Dense::visit_gradients(const GradientVisitor& visit) {
  visit(weights_, grad_weights_);
  visit(bias_, grad_bias_);
}

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weights_(out_channels * in_channels * kernel * kernel),
      bias_(out_channels, 0.0f),
      grad_weights_(weights_.size(), 0.0f),
      grad_bias_(out_channels, 0.0f) {
  he_init(weights_, in_c_ * kernel_ * kernel_, rng);
}

// Conv2D runs through im2col + a cache-friendly matrix multiply: the
// receptive fields of every output pixel are unrolled into the columns of
// a (in_c*k*k) x (oh*ow) matrix, so the convolution is one GEMM with the
// (out_c) x (in_c*k*k) weight matrix. Several times faster than the naive
// six-deep loop at zoo-training sizes; tests/nn/test_conv_reference.cpp
// pins the numerics to a from-first-principles reference.
namespace {

/// Unroll one image (channels x ih x iw, at `image`) into column-major
/// patches: col[q * patches + p] for q in [0, in_c*k*k), p in [0, oh*ow).
void im2col(const float* image, std::size_t channels, std::size_t ih,
            std::size_t iw, std::size_t kernel, std::size_t stride,
            std::size_t padding, std::size_t oh, std::size_t ow,
            float* col) {
  const std::size_t patches = oh * ow;
  std::size_t q = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx, ++q) {
        float* row = col + q * patches;
        if (stride == 1) {
          // At stride 1, ix = ox + kx - padding: each output row is one
          // contiguous slice of the input row plus zero-filled borders.
          const std::ptrdiff_t dx = static_cast<std::ptrdiff_t>(kx) -
                                    static_cast<std::ptrdiff_t>(padding);
          const std::size_t ox_lo =
              dx < 0 ? static_cast<std::size_t>(-dx) : 0;
          const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(iw) - dx;
          const std::size_t ox_hi =
              hi < 0 ? 0 : std::min(ow, static_cast<std::size_t>(hi));
          for (std::size_t oy = 0; oy < oh; ++oy) {
            float* r = row + oy * ow;
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                      static_cast<std::ptrdiff_t>(padding);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(ih) ||
                ox_hi <= ox_lo) {
              std::fill(r, r + ow, 0.0f);
              continue;
            }
            const float* src =
                image + (c * ih + static_cast<std::size_t>(iy)) * iw;
            std::fill(r, r + ox_lo, 0.0f);
            std::memcpy(r + ox_lo,
                        src + static_cast<std::size_t>(
                                  static_cast<std::ptrdiff_t>(ox_lo) + dx),
                        (ox_hi - ox_lo) * sizeof(float));
            std::fill(r + ox_hi, r + ow, 0.0f);
          }
          continue;
        }
        std::size_t p = 0;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ky) -
              static_cast<std::ptrdiff_t>(padding);
          const bool y_in = iy >= 0 && iy < static_cast<std::ptrdiff_t>(ih);
          for (std::size_t ox = 0; ox < ow; ++ox, ++p) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(padding);
            row[p] = (y_in && ix >= 0 &&
                      ix < static_cast<std::ptrdiff_t>(iw))
                         ? image[(c * ih + static_cast<std::size_t>(iy)) * iw +
                                 static_cast<std::size_t>(ix)]
                         : 0.0f;
          }
        }
      }
    }
  }
}

/// Scatter-add the column matrix back into an image (adjoint of im2col).
void col2im_accumulate(const float* col, std::size_t channels, std::size_t ih,
                       std::size_t iw, std::size_t kernel, std::size_t stride,
                       std::size_t padding, std::size_t oh, std::size_t ow,
                       float* image) {
  const std::size_t patches = oh * ow;
  std::size_t q = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx, ++q) {
        const float* row = col + q * patches;
        if (stride == 1) {
          // Mirror of the im2col fast path: one contiguous += span per
          // output row (the borders fell on padding and contribute
          // nothing).
          const std::ptrdiff_t dx = static_cast<std::ptrdiff_t>(kx) -
                                    static_cast<std::ptrdiff_t>(padding);
          const std::size_t ox_lo =
              dx < 0 ? static_cast<std::size_t>(-dx) : 0;
          const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(iw) - dx;
          const std::size_t ox_hi =
              hi < 0 ? 0 : std::min(ow, static_cast<std::size_t>(hi));
          if (ox_hi <= ox_lo) continue;
          for (std::size_t oy = 0; oy < oh; ++oy) {
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                      static_cast<std::ptrdiff_t>(padding);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(ih)) continue;
            const float* r = row + oy * ow;
            float* dst =
                image + (c * ih + static_cast<std::size_t>(iy)) * iw +
                static_cast<std::size_t>(static_cast<std::ptrdiff_t>(ox_lo) +
                                         dx);
            for (std::size_t ox = ox_lo; ox < ox_hi; ++ox)
              dst[ox - ox_lo] += r[ox];
          }
          continue;
        }
        std::size_t p = 0;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ky) -
              static_cast<std::ptrdiff_t>(padding);
          const bool y_in = iy >= 0 && iy < static_cast<std::ptrdiff_t>(ih);
          for (std::size_t ox = 0; ox < ow; ++ox, ++p) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(padding);
            if (y_in && ix >= 0 && ix < static_cast<std::ptrdiff_t>(iw)) {
              image[(c * ih + static_cast<std::size_t>(iy)) * iw +
                    static_cast<std::size_t>(ix)] += row[p];
            }
          }
        }
      }
    }
  }
}

}  // namespace

Tensor Conv2D::forward(const Tensor& input) {
  assert(input.rank() == 4 && input.dim(1) == in_c_);
  if (compute_backend() == ComputeBackend::kReference)
    return forward_reference(input);
  cached_input_ = input;
  const std::size_t batch = input.dim(0);
  const std::size_t ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = conv_output_extent(ih, kernel_, stride_, padding_);
  const std::size_t ow = conv_output_extent(iw, kernel_, stride_, padding_);
  const std::size_t patches = oh * ow;
  const std::size_t depth = in_c_ * kernel_ * kernel_;
  Tensor out = Tensor::uninitialized({batch, out_c_, oh, ow});
  // Each sample unrolls into a thread-local im2col workspace and runs one
  // out_b = W (out_c x depth) · col (depth x patches) + bias GEMM into its
  // own output slice.
  for_each_sample(batch, [&](std::size_t b) {
    auto& col = tls_workspace(0, depth * patches);
    im2col(input.data().data() + b * in_c_ * ih * iw, in_c_, ih, iw,
           kernel_, stride_, padding_, oh, ow, col.data());
    float* dst = out.data().data() + b * out_c_ * patches;
    for (std::size_t oc = 0; oc < out_c_; ++oc)
      std::fill(dst + oc * patches, dst + (oc + 1) * patches, bias_[oc]);
    gemm::multiply(weights_.data(), depth, gemm::Op::kNone, col.data(),
                   patches, gemm::Op::kNone, dst, patches, out_c_, patches,
                   depth, compute_pool());
  });
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  if (compute_backend() == ComputeBackend::kReference)
    return backward_reference(grad_output);
  const Tensor& input = cached_input_;
  const std::size_t batch = input.dim(0);
  const std::size_t ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  const std::size_t patches = oh * ow;
  const std::size_t depth = in_c_ * kernel_ * kernel_;
  Tensor grad_input(input.shape());
  // Every scratch slot is overwritten by an accumulate == false GEMM (or
  // a plain store), so a resize — not a zero fill — is all that's needed.
  grad_w_scratch_.resize(batch * out_c_ * depth);
  grad_b_scratch_.resize(batch * out_c_);
  for_each_sample(batch, [&](std::size_t b) {
    auto& col = tls_workspace(0, depth * patches);
    auto& grad_col = tls_workspace(1, depth * patches);
    im2col(input.data().data() + b * in_c_ * ih * iw, in_c_, ih, iw,
           kernel_, stride_, padding_, oh, ow, col.data());
    const float* g = grad_output.data().data() + b * out_c_ * patches;
    // grad_col = W^T (depth x out_c) · G_b (out_c x patches), overwriting.
    gemm::multiply(weights_.data(), depth, gemm::Op::kTranspose, g, patches,
                   gemm::Op::kNone, grad_col.data(), patches, depth,
                   patches, out_c_, compute_pool(), /*accumulate=*/false);
    // Per-sample grad_weights partial, computed transposed —
    // col (depth x patches) · G_b^T (patches x out_c) — so the large col
    // operand streams through the kernel unpacked (only the small G_b is
    // packed). Element (d, oc) accumulates the exact same k-chain as
    // (oc, d) of G_b · col^T would.
    gemm::multiply(col.data(), patches, gemm::Op::kNone, g, patches,
                   gemm::Op::kTranspose,
                   grad_w_scratch_.data() + b * out_c_ * depth, out_c_,
                   depth, out_c_, patches, compute_pool(),
                   /*accumulate=*/false);
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < patches; ++p) acc += g[oc * patches + p];
      grad_b_scratch_[b * out_c_ + oc] = acc;
    }
    col2im_accumulate(grad_col.data(), in_c_, ih, iw, kernel_, stride_,
                      padding_, oh, ow,
                      grad_input.data().data() + b * in_c_ * ih * iw);
  });
  // Ordered reduction of the per-sample partials — identical in serial
  // and pooled runs, which is what keeps them bit-identical. The scratch
  // is (depth x out_c); grad_weights_ is (out_c x depth).
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gw = grad_w_scratch_.data() + b * out_c_ * depth;
    for (std::size_t oc = 0; oc < out_c_; ++oc)
      for (std::size_t d = 0; d < depth; ++d)
        grad_weights_[oc * depth + d] += gw[d * out_c_ + oc];
    for (std::size_t oc = 0; oc < out_c_; ++oc)
      grad_bias_[oc] += grad_b_scratch_[b * out_c_ + oc];
  }
  return grad_input;
}

Tensor Conv2D::forward_reference(const Tensor& input) {
  cached_input_ = input;
  const std::size_t batch = input.dim(0);
  const std::size_t ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = conv_output_extent(ih, kernel_, stride_, padding_);
  const std::size_t ow = conv_output_extent(iw, kernel_, stride_, padding_);
  const std::size_t patches = oh * ow;
  const std::size_t depth = in_c_ * kernel_ * kernel_;
  Tensor out({batch, out_c_, oh, ow});
  std::vector<float> col(depth * patches);
  for (std::size_t b = 0; b < batch; ++b) {
    im2col(input.data().data() + b * in_c_ * ih * iw, in_c_, ih, iw, kernel_,
           stride_, padding_, oh, ow, col.data());
    // out_b = W (out_c x depth) * col (depth x patches) + bias.
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      float* dst = out.data().data() + (b * out_c_ + oc) * patches;
      const float bias = bias_[oc];
      for (std::size_t p = 0; p < patches; ++p) dst[p] = bias;
      const float* w = &weights_[oc * depth];
      for (std::size_t q = 0; q < depth; ++q) {
        const float wq = w[q];
        if (wq == 0.0f) continue;
        const float* src = col.data() + q * patches;
        for (std::size_t p = 0; p < patches; ++p) dst[p] += wq * src[p];
      }
    }
  }
  return out;
}

Tensor Conv2D::backward_reference(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::size_t batch = input.dim(0);
  const std::size_t ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  const std::size_t patches = oh * ow;
  const std::size_t depth = in_c_ * kernel_ * kernel_;
  Tensor grad_input(input.shape());
  std::vector<float> col(depth * patches);
  std::vector<float> grad_col(depth * patches);
  for (std::size_t b = 0; b < batch; ++b) {
    im2col(input.data().data() + b * in_c_ * ih * iw, in_c_, ih, iw, kernel_,
           stride_, padding_, oh, ow, col.data());
    std::fill(grad_col.begin(), grad_col.end(), 0.0f);
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* g =
          grad_output.data().data() + (b * out_c_ + oc) * patches;
      float bias_acc = 0.0f;
      for (std::size_t p = 0; p < patches; ++p) bias_acc += g[p];
      grad_bias_[oc] += bias_acc;
      float* gw = &grad_weights_[oc * depth];
      const float* w = &weights_[oc * depth];
      for (std::size_t q = 0; q < depth; ++q) {
        const float* src = col.data() + q * patches;
        float* gcol = grad_col.data() + q * patches;
        const float wq = w[q];
        float acc = 0.0f;
        for (std::size_t p = 0; p < patches; ++p) {
          acc += g[p] * src[p];
          gcol[p] += wq * g[p];
        }
        gw[q] += acc;
      }
    }
    col2im_accumulate(grad_col.data(), in_c_, ih, iw, kernel_, stride_,
                      padding_, oh, ow,
                      grad_input.data().data() + b * in_c_ * ih * iw);
  }
  return grad_input;
}

void Conv2D::apply_gradients(float learning_rate) {
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] -= learning_rate * grad_weights_[i];
    grad_weights_[i] = 0.0f;
  }
  for (std::size_t i = 0; i < bias_.size(); ++i) {
    bias_[i] -= learning_rate * grad_bias_[i];
    grad_bias_[i] = 0.0f;
  }
}

std::size_t Conv2D::parameter_count() const noexcept {
  return weights_.size() + bias_.size();
}

void Conv2D::visit_parameters(const ParameterVisitor& visit) {
  visit(weights_);
  visit(bias_);
}

void Conv2D::visit_gradients(const GradientVisitor& visit) {
  visit(weights_, grad_weights_);
  visit(bias_, grad_bias_);
}

// ------------------------------------------------------- DepthwiseConv2D

DepthwiseConv2D::DepthwiseConv2D(std::size_t channels, std::size_t kernel,
                                 std::size_t stride, std::size_t padding,
                                 Rng& rng)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weights_(channels * kernel * kernel),
      bias_(channels, 0.0f),
      grad_weights_(weights_.size(), 0.0f),
      grad_bias_(channels, 0.0f) {
  he_init(weights_, kernel_ * kernel_, rng);
}

Tensor DepthwiseConv2D::forward(const Tensor& input) {
  assert(input.rank() == 4 && input.dim(1) == channels_);
  if (compute_backend() == ComputeBackend::kReference)
    return forward_reference(input);
  cached_input_ = input;
  const std::size_t batch = input.dim(0);
  const std::size_t ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = conv_output_extent(ih, kernel_, stride_, padding_);
  const std::size_t ow = conv_output_extent(iw, kernel_, stride_, padding_);
  const std::size_t patches = oh * ow;
  const std::size_t k2 = kernel_ * kernel_;
  Tensor out = Tensor::uninitialized({batch, channels_, oh, ow});
  // One (1 x k2) · (k2 x patches) GEMM per channel: each channel is its
  // own single-filter convolution, so its im2col has depth k2.
  for_each_sample(batch, [&](std::size_t b) {
    auto& col = tls_workspace(0, k2 * patches);
    for (std::size_t c = 0; c < channels_; ++c) {
      im2col(input.data().data() + (b * channels_ + c) * ih * iw, 1, ih, iw,
             kernel_, stride_, padding_, oh, ow, col.data());
      float* dst = out.data().data() + (b * channels_ + c) * patches;
      std::fill(dst, dst + patches, bias_[c]);
      gemm::multiply(&weights_[c * k2], k2, gemm::Op::kNone, col.data(),
                     patches, gemm::Op::kNone, dst, patches, 1, patches, k2,
                     compute_pool());
    }
  });
  return out;
}

Tensor DepthwiseConv2D::backward(const Tensor& grad_output) {
  if (compute_backend() == ComputeBackend::kReference)
    return backward_reference(grad_output);
  const Tensor& input = cached_input_;
  const std::size_t batch = input.dim(0);
  const std::size_t ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  const std::size_t patches = oh * ow;
  const std::size_t k2 = kernel_ * kernel_;
  Tensor grad_input(input.shape());
  // As in Conv2D::backward, every slot is overwritten — resize, no fill.
  grad_w_scratch_.resize(batch * channels_ * k2);
  grad_b_scratch_.resize(batch * channels_);
  for_each_sample(batch, [&](std::size_t b) {
    auto& col = tls_workspace(0, k2 * patches);
    auto& grad_col = tls_workspace(1, k2 * patches);
    for (std::size_t c = 0; c < channels_; ++c) {
      im2col(input.data().data() + (b * channels_ + c) * ih * iw, 1, ih, iw,
             kernel_, stride_, padding_, oh, ow, col.data());
      const float* g =
          grad_output.data().data() + (b * channels_ + c) * patches;
      // Per-sample filter partial, computed as col (k2 x patches) · g^T
      // (patches x 1): the k2-vector result is the same either way, but
      // this orientation streams col through the kernel unpacked and
      // fills a k2-row register tile instead of a single row.
      gemm::multiply(col.data(), patches, gemm::Op::kNone, g, patches,
                     gemm::Op::kTranspose,
                     grad_w_scratch_.data() + (b * channels_ + c) * k2, 1,
                     k2, 1, patches, compute_pool(), /*accumulate=*/false);
      // grad_col = w_c^T (k2 x 1) · g (1 x patches), scattered back
      // (overwriting, so the workspace needs no zero fill).
      gemm::multiply(&weights_[c * k2], k2, gemm::Op::kTranspose, g,
                     patches, gemm::Op::kNone, grad_col.data(), patches, k2,
                     patches, 1, compute_pool(), /*accumulate=*/false);
      float acc = 0.0f;
      for (std::size_t p = 0; p < patches; ++p) acc += g[p];
      grad_b_scratch_[b * channels_ + c] = acc;
      col2im_accumulate(grad_col.data(), 1, ih, iw, kernel_, stride_,
                        padding_, oh, ow,
                        grad_input.data().data() +
                            (b * channels_ + c) * ih * iw);
    }
  });
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gw = grad_w_scratch_.data() + b * channels_ * k2;
    for (std::size_t i = 0; i < channels_ * k2; ++i) grad_weights_[i] += gw[i];
    for (std::size_t c = 0; c < channels_; ++c)
      grad_bias_[c] += grad_b_scratch_[b * channels_ + c];
  }
  return grad_input;
}

Tensor DepthwiseConv2D::forward_reference(const Tensor& input) {
  cached_input_ = input;
  const std::size_t batch = input.dim(0);
  const std::size_t ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = conv_output_extent(ih, kernel_, stride_, padding_);
  const std::size_t ow = conv_output_extent(iw, kernel_, stride_, padding_);
  Tensor out({batch, channels_, oh, ow});
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels_; ++c) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = bias_[c];
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                static_cast<std::ptrdiff_t>(padding_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(ih)) continue;
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(padding_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(iw)) continue;
              acc += weights_[(c * kernel_ + ky) * kernel_ + kx] *
                     input.at(b, c, static_cast<std::size_t>(iy),
                              static_cast<std::size_t>(ix));
            }
          }
          out.at(b, c, oy, ox) = acc;
        }
      }
    }
  }
  return out;
}

Tensor DepthwiseConv2D::backward_reference(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::size_t batch = input.dim(0);
  const std::size_t ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  Tensor grad_input(input.shape());
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels_; ++c) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = grad_output.at(b, c, oy, ox);
          grad_bias_[c] += g;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                static_cast<std::ptrdiff_t>(padding_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(ih)) continue;
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(padding_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(iw)) continue;
              const std::size_t widx = (c * kernel_ + ky) * kernel_ + kx;
              grad_weights_[widx] +=
                  g * input.at(b, c, static_cast<std::size_t>(iy),
                               static_cast<std::size_t>(ix));
              grad_input.at(b, c, static_cast<std::size_t>(iy),
                            static_cast<std::size_t>(ix)) +=
                  g * weights_[widx];
            }
          }
        }
      }
    }
  }
  return grad_input;
}

void DepthwiseConv2D::apply_gradients(float learning_rate) {
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] -= learning_rate * grad_weights_[i];
    grad_weights_[i] = 0.0f;
  }
  for (std::size_t i = 0; i < bias_.size(); ++i) {
    bias_[i] -= learning_rate * grad_bias_[i];
    grad_bias_[i] = 0.0f;
  }
}

std::size_t DepthwiseConv2D::parameter_count() const noexcept {
  return weights_.size() + bias_.size();
}

void DepthwiseConv2D::visit_parameters(const ParameterVisitor& visit) {
  visit(weights_);
  visit(bias_);
}

void DepthwiseConv2D::visit_gradients(const GradientVisitor& visit) {
  visit(weights_, grad_weights_);
  visit(bias_, grad_bias_);
}

// ------------------------------------------------------------------ ReLU

// The seed implementation: deep-copy the input and branch on it in
// backward. Kept as the kReference baseline (bench/perf_nn.cpp measures
// the GEMM path against it).
Tensor ReLU::forward_reference(const Tensor& input) {
  cached_input_ = input;
  Tensor out(input.shape());
  for (std::size_t i = 0; i < input.size(); ++i)
    out[i] = input[i] > 0.0f ? input[i] : 0.0f;
  return out;
}

Tensor ReLU::forward(const Tensor& input) {
  used_reference_ = compute_backend() == ComputeBackend::kReference;
  if (used_reference_) return forward_reference(input);
  // backward() only needs the sign of each activation, so cache a byte
  // mask instead of a deep copy of the input (4x less memory traffic on
  // the largest tensors in a CNN).
  cached_shape_ = input.shape();
  mask_.resize(input.size());
  Tensor out(input.shape());
  const float* in = input.data().data();
  float* o = out.data().data();
  for (std::size_t i = 0; i < input.size(); ++i) {
    const bool pos = in[i] > 0.0f;
    mask_[i] = pos;
    o[i] = pos ? in[i] : 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (used_reference_) {
    Tensor grad_input(cached_input_.shape());
    for (std::size_t i = 0; i < grad_output.size(); ++i)
      grad_input[i] = cached_input_[i] > 0.0f ? grad_output[i] : 0.0f;
    return grad_input;
  }
  Tensor grad_input = Tensor::uninitialized(cached_shape_);
  const float* g = grad_output.data().data();
  float* gi = grad_input.data().data();
  for (std::size_t i = 0; i < grad_output.size(); ++i)
    gi[i] = mask_[i] ? g[i] : 0.0f;
  return grad_input;
}

// ------------------------------------------------------------- MaxPool2D

Tensor MaxPool2D::forward(const Tensor& input) {
  assert(input.rank() == 4);
  input_shape_ = input.shape();
  const std::size_t batch = input.dim(0), channels = input.dim(1);
  const std::size_t ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = ih / window_, ow = iw / window_;
  Tensor out = Tensor::uninitialized({batch, channels, oh, ow});
  argmax_.assign(out.size(), 0);
  if (compute_backend() == ComputeBackend::kReference) {
    // Seed loops, preserved as the kReference baseline. Identical output
    // and argmax records — only the indexing differs from the fast path.
    std::size_t flat = 0;
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t c = 0; c < channels; ++c) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox, ++flat) {
            float best = -std::numeric_limits<float>::infinity();
            std::size_t best_idx = 0;
            for (std::size_t wy = 0; wy < window_; ++wy) {
              for (std::size_t wx = 0; wx < window_; ++wx) {
                const std::size_t iy = oy * window_ + wy;
                const std::size_t ix = ox * window_ + wx;
                const std::size_t idx =
                    ((b * channels + c) * ih + iy) * iw + ix;
                const float v = input[idx];
                if (v > best) {
                  best = v;
                  best_idx = idx;
                }
              }
            }
            out[flat] = best;
            argmax_[flat] = best_idx;
          }
        }
      }
    }
    return out;
  }
  const float* in = input.data().data();
  float* o = out.data().data();
  std::size_t flat = 0;
  for (std::size_t plane = 0; plane < batch * channels; ++plane) {
    const std::size_t plane_base = plane * ih * iw;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox, ++flat) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        std::size_t idx = plane_base + (oy * window_) * iw + ox * window_;
        for (std::size_t wy = 0; wy < window_; ++wy, idx += iw - window_) {
          for (std::size_t wx = 0; wx < window_; ++wx, ++idx) {
            const float v = in[idx];
            if (v > best) {
              best = v;
              best_idx = idx;
            }
          }
        }
        o[flat] = best;
        argmax_[flat] = best_idx;
      }
    }
  }
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i)
    grad_input[argmax_[i]] += grad_output[i];
  return grad_input;
}

// --------------------------------------------------------- GlobalAvgPool

Tensor GlobalAvgPool::forward(const Tensor& input) {
  assert(input.rank() == 4);
  input_shape_ = input.shape();
  const std::size_t batch = input.dim(0), channels = input.dim(1);
  const std::size_t area = input.dim(2) * input.dim(3);
  Tensor out({batch, channels});
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels; ++c) {
      float acc = 0.0f;
      const std::size_t base = (b * channels + c) * area;
      for (std::size_t i = 0; i < area; ++i) acc += input[base + i];
      out.at(b, c) = acc / static_cast<float>(area);
    }
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  const std::size_t channels = input_shape_[1];
  const std::size_t area = input_shape_[2] * input_shape_[3];
  const float scale = 1.0f / static_cast<float>(area);
  for (std::size_t b = 0; b < input_shape_[0]; ++b) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float g = grad_output.at(b, c) * scale;
      const std::size_t base = (b * channels + c) * area;
      for (std::size_t i = 0; i < area; ++i) grad_input[base + i] = g;
    }
  }
  return grad_input;
}

// ---------------------------------------------------------------- Dropout

Dropout::Dropout(double rate, std::uint64_t seed)
    : rate_(rate), rng_(seed) {
  assert(rate >= 0.0 && rate < 1.0);
}

Tensor Dropout::forward(const Tensor& input) {
  if (!training_ || rate_ == 0.0) {
    mask_.clear();
    return input;
  }
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  mask_.resize(input.size());
  Tensor out(input.shape());
  for (std::size_t i = 0; i < input.size(); ++i) {
    mask_[i] = rng_.bernoulli(rate_) ? 0.0f : keep_scale;
    out[i] = input[i] * mask_[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) return grad_output;  // eval mode: identity
  Tensor grad_input(grad_output.shape());
  for (std::size_t i = 0; i < grad_output.size(); ++i)
    grad_input[i] = grad_output[i] * mask_[i];
  return grad_input;
}

// ---------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& input) {
  input_shape_ = input.shape();
  const std::size_t batch = input.dim(0);
  return input.reshaped({batch, input.size() / batch});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(input_shape_);
}

}  // namespace cea::nn
