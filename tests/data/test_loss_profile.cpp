#include "data/loss_profile.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "data/loss_sampling.h"
#include "nn/layers.h"

namespace cea::data {
namespace {

TEST(LossProfile, StatsFromTable) {
  LossProfile profile("m", {0.0, 1.0, 2.0, 1.0}, {1, 0, 0, 1}, 3.5);
  EXPECT_DOUBLE_EQ(profile.mean_loss(), 1.0);
  EXPECT_DOUBLE_EQ(profile.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(profile.size_mb(), 3.5);
  EXPECT_EQ(profile.table_size(), 4u);
  EXPECT_GT(profile.loss_stddev(), 0.0);
}

TEST(LossProfile, DrawReturnsTableEntries) {
  LossProfile profile("m", {0.25, 0.75}, {1, 0}, 1.0);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const LossDraw draw = profile.draw(rng);
    EXPECT_TRUE(draw.loss == 0.25 || draw.loss == 0.75);
    // correctness must be consistent with the paired loss entry
    if (draw.loss == 0.25) {
      EXPECT_TRUE(draw.correct);
    }
    if (draw.loss == 0.75) {
      EXPECT_FALSE(draw.correct);
    }
  }
}

TEST(LossProfile, DrawMeanConvergesToTableMean) {
  Rng table_rng(2);
  const LossProfile profile = make_parametric_profile(
      "p", 0.6, 0.2, 0.7, 2.0, 4096, table_rng);
  Rng rng(3);
  double sum = 0.0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) sum += profile.draw(rng).loss;
  EXPECT_NEAR(sum / n, profile.mean_loss(), 0.01);
}

TEST(LossProfile, DrawBatchMatchesSingleDrawStatistics) {
  // draw_batch must sample the same distribution as n draw() calls: with a
  // large n, mean loss and accuracy agree with independent single draws
  // (and with the table statistics) to statistical tolerance.
  Rng table_rng(20);
  const LossProfile profile = make_parametric_profile(
      "p", 0.6, 0.2, 0.7, 2.0, 4096, table_rng);
  const std::size_t n = 200000;

  Rng single_rng(21);
  double single_sum = 0.0;
  std::size_t single_correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const LossDraw draw = profile.draw(single_rng);
    single_sum += draw.loss;
    single_correct += draw.correct ? 1 : 0;
  }

  Rng batch_rng(22);
  const LossBatch batch = profile.draw_batch(batch_rng, n);

  const auto dn = static_cast<double>(n);
  EXPECT_NEAR(batch.loss_sum / dn, single_sum / dn, 0.005);
  EXPECT_NEAR(batch.loss_sum / dn, profile.mean_loss(), 0.005);
  EXPECT_NEAR(static_cast<double>(batch.correct_count) / dn,
              static_cast<double>(single_correct) / dn, 0.01);
  EXPECT_NEAR(static_cast<double>(batch.correct_count) / dn,
              profile.accuracy(), 0.01);
}

TEST(LossProfile, DrawBatchAggregatesTableEntriesOnly) {
  // On a two-entry table every batch aggregate must decompose into counts
  // of the two entries: loss_sum = a*0.25 + b*0.75 with a+b = n and
  // correct_count = a (entry 0 is the only correct one).
  LossProfile profile("m", {0.25, 0.75}, {1, 0}, 1.0);
  Rng rng(23);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{100},
                        std::size_t{1000}}) {
    const LossBatch batch = profile.draw_batch(rng, n);
    const auto a = batch.correct_count;
    ASSERT_LE(a, n);
    const double expected =
        static_cast<double>(a) * 0.25 + static_cast<double>(n - a) * 0.75;
    EXPECT_NEAR(batch.loss_sum, expected, 1e-9);
  }
}

TEST(LossProfile, DrawBatchZeroSamples) {
  LossProfile profile("m", {0.25, 0.75}, {1, 0}, 1.0);
  Rng rng(24);
  const LossBatch batch = profile.draw_batch(rng, 0);
  EXPECT_DOUBLE_EQ(batch.loss_sum, 0.0);
  EXPECT_EQ(batch.correct_count, 0u);
}

TEST(LossProfile, DrawBatchDeterministicPerSeed) {
  Rng table_rng(25);
  const LossProfile profile = make_parametric_profile(
      "p", 0.5, 0.15, 0.8, 1.0, 1024, table_rng);
  Rng a(26), b(26), c(27);
  const LossBatch ba = profile.draw_batch(a, 500);
  const LossBatch bb = profile.draw_batch(b, 500);
  const LossBatch bc = profile.draw_batch(c, 500);
  EXPECT_DOUBLE_EQ(ba.loss_sum, bb.loss_sum);
  EXPECT_EQ(ba.correct_count, bb.correct_count);
  EXPECT_NE(ba.loss_sum, bc.loss_sum);
}

// Interleaved [loss, correct] float32 pairs, the layout of a LossProfile's
// pair table.
std::vector<float> random_pair_table(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> pairs(2 * size);
  for (std::size_t k = 0; k < size; ++k) {
    pairs[2 * k] = static_cast<float>(rng.uniform(0.0, 2.0));
    pairs[2 * k + 1] = rng.uniform() < 0.7 ? 1.0f : 0.0f;
  }
  return pairs;
}

using Kernel = LossBatch (*)(const float*, std::uint64_t, std::uint64_t,
                             std::size_t) noexcept;

// `kernel` reproduces the scalar kernel bit for bit — loss_sum bits and
// correct_count — over several table sizes, keys and batch sizes covering
// the empty batch, every tail length, and whole and partial octets.
void expect_matches_scalar(Kernel kernel) {
  std::vector<std::size_t> batch_sizes;
  for (std::size_t n = 0; n <= 17; ++n) batch_sizes.push_back(n);
  for (const std::size_t n : {63, 64, 65, 400}) batch_sizes.push_back(n);
  const std::uint64_t keys[] = {0, 1, 0x9E3779B97F4A7C15ULL,
                                stream_seed(42, 7, 3), ~std::uint64_t{0}};
  for (const std::size_t size : {1, 2, 5, 8, 257, 4096, 100000}) {
    const std::vector<float> pairs = random_pair_table(size, size);
    for (const std::uint64_t key : keys) {
      for (const std::size_t n : batch_sizes) {
        const LossBatch expected =
            detail::draw_batch_kernel_scalar(pairs.data(), size, key, n);
        const LossBatch actual = kernel(pairs.data(), size, key, n);
        EXPECT_EQ(std::memcmp(&expected.loss_sum, &actual.loss_sum,
                              sizeof(double)),
                  0)
            << "size " << size << " key " << key << " n " << n << ": "
            << expected.loss_sum << " vs " << actual.loss_sum;
        EXPECT_EQ(expected.correct_count, actual.correct_count)
            << "size " << size << " key " << key << " n " << n;
      }
    }
  }
}

TEST(LossSamplingKernels, Avx2MatchesScalarBitForBit) {
#if defined(__x86_64__)
  if (!detail::have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  expect_matches_scalar(&detail::draw_batch_kernel_avx2);
#else
  GTEST_SKIP() << "x86-64 only";
#endif
}

TEST(LossSamplingKernels, Avx512MatchesScalarBitForBit) {
#if defined(__x86_64__)
  if (!detail::have_avx512()) GTEST_SKIP() << "no AVX-512VL/DQ on this host";
  expect_matches_scalar(&detail::draw_batch_kernel_avx512);
#else
  GTEST_SKIP() << "x86-64 only";
#endif
}

TEST(ParametricProfile, RespectsTargets) {
  Rng rng(4);
  const LossProfile profile =
      make_parametric_profile("p", 0.5, 0.1, 0.8, 1.5, 8192, rng);
  EXPECT_NEAR(profile.mean_loss(), 0.5, 0.02);
  EXPECT_NEAR(profile.accuracy(), 0.8, 0.03);
  EXPECT_DOUBLE_EQ(profile.size_mb(), 1.5);
}

TEST(ParametricProfile, LossesClampedToValidRange) {
  Rng rng(5);
  const LossProfile profile =
      make_parametric_profile("p", 1.9, 1.0, 0.2, 1.0, 2048, rng);
  Rng draw_rng(6);
  for (int i = 0; i < 500; ++i) {
    const double l = profile.draw(draw_rng).loss;
    EXPECT_GE(l, 0.0);
    EXPECT_LE(l, 2.0);
  }
}

TEST(ProfileModel, MatchesDirectEvaluation) {
  // Profile a deterministic model and verify accuracy/mean loss agree with
  // what the profiling set says.
  Rng rng(7);
  nn::Sequential model("probe");
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(4, 3, rng);

  Dataset ds;
  ds.samples = nn::Tensor({20, 1, 2, 2});
  for (std::size_t i = 0; i < ds.samples.size(); ++i)
    ds.samples[i] = static_cast<float>(rng.normal(0.0, 1.0));
  ds.labels.resize(20);
  for (std::size_t i = 0; i < 20; ++i)
    ds.labels[i] = i % 3;

  const LossProfile profile = profile_model(model, ds, 7);
  EXPECT_EQ(profile.table_size(), 20u);
  EXPECT_GE(profile.mean_loss(), 0.0);
  EXPECT_LE(profile.mean_loss(), 2.0);
  EXPECT_GE(profile.accuracy(), 0.0);
  EXPECT_LE(profile.accuracy(), 1.0);
  EXPECT_EQ(profile.model_name(), "probe");
}

TEST(ProfileModel, BatchSizeInvariance) {
  Rng rng(8);
  nn::Sequential model("probe");
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(4, 2, rng);
  Dataset ds;
  ds.samples = nn::Tensor({13, 1, 2, 2});
  for (std::size_t i = 0; i < ds.samples.size(); ++i)
    ds.samples[i] = static_cast<float>(rng.normal(0.0, 1.0));
  ds.labels.assign(13, 0);
  const LossProfile a = profile_model(model, ds, 4);
  const LossProfile b = profile_model(model, ds, 100);
  EXPECT_NEAR(a.mean_loss(), b.mean_loss(), 1e-9);
  EXPECT_DOUBLE_EQ(a.accuracy(), b.accuracy());
}

}  // namespace
}  // namespace cea::data
