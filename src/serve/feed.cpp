#include "serve/feed.h"

#include <sys/stat.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "data/trace_io.h"
#include "util/numio.h"
#include "util/rng.h"

namespace cea::serve {
namespace {

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

bool directory_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/// Strict workload count, same contract as data/trace_io.h: integral,
/// >= 1, within int range, locale-independent.
int parse_count_strict(const std::string& cell, const std::string& context) {
  double value = 0.0;
  if (!util::parse_double(cell, value) || value <= 0.0) {
    throw std::runtime_error(context + ": bad count '" + cell + "'");
  }
  if (std::floor(value) != value) {
    throw std::runtime_error(context + ": non-integral count '" + cell + "'");
  }
  if (value > static_cast<double>(INT_MAX)) {
    throw std::runtime_error(context + ": count exceeds INT_MAX: '" + cell +
                             "'");
  }
  return static_cast<int>(value);
}

std::vector<std::string> split_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) {
    const auto begin = cell.find_first_not_of(" \t\r");
    const auto end = cell.find_last_not_of(" \t\r");
    cells.push_back(begin == std::string::npos
                        ? std::string()
                        : cell.substr(begin, end - begin + 1));
  }
  return cells;
}

}  // namespace

ReplayFeed::ReplayFeed(data::WorkloadTraces workload, data::PriceSeries prices,
                       bool loop)
    : workload_(std::move(workload)),
      prices_(std::move(prices)),
      loop_(loop) {
  if (workload_.empty()) {
    throw std::invalid_argument("ReplayFeed: no workload traces");
  }
  num_slots_ = workload_.front().size();
  for (const auto& trace : workload_) {
    if (trace.size() != num_slots_) {
      throw std::invalid_argument("ReplayFeed: ragged workload traces");
    }
  }
  if (num_slots_ == 0 || prices_.buy.size() < num_slots_ ||
      prices_.sell.size() < num_slots_) {
    throw std::invalid_argument(
        "ReplayFeed: price series shorter than the workload traces");
  }
}

ReplayFeed ReplayFeed::from_files(const std::string& workload_csv,
                                  const std::string& prices_csv, bool loop) {
  return ReplayFeed(data::load_workload_csv(workload_csv),
                    data::load_prices_csv(prices_csv), loop);
}

FeedStatus ReplayFeed::poll(std::size_t t, SlotInput& out) {
  if (t >= num_slots_ && !loop_) return FeedStatus::kEnd;
  const std::size_t slot = t % num_slots_;
  out.quote = {prices_.buy[slot], prices_.sell[slot]};
  out.workload.resize(workload_.size());
  for (std::size_t i = 0; i < workload_.size(); ++i)
    out.workload[i] = workload_[i][slot];
  return FeedStatus::kReady;
}

SyntheticFeed::SyntheticFeed(std::size_t num_edges, std::uint64_t seed,
                             double mean_samples, data::MarketConfig market)
    : num_edges_(num_edges),
      seed_(seed),
      mean_samples_(std::max(1.0, mean_samples)),
      market_(market) {
  if (num_edges_ == 0) {
    throw std::invalid_argument("SyntheticFeed: num_edges must be positive");
  }
  // poll() draws counts in [1, 1 + 2 * mean], which must fit an int.
  if (!std::isfinite(mean_samples) ||
      2.0 * mean_samples > static_cast<double>(INT_MAX - 1)) {
    throw std::invalid_argument(
        "SyntheticFeed: mean samples must be finite and at most (INT_MAX - "
        "1) / 2, got " + std::to_string(mean_samples));
  }
}

FeedStatus SyntheticFeed::poll(std::size_t t, SlotInput& out) {
  // The quote stream is keyed under a reserved pseudo-edge index so it
  // never collides with a workload stream.
  Rng price_rng(stream_seed(seed_, ~std::uint64_t{0}, t));
  const double buy = price_rng.uniform(market_.min_price, market_.max_price);
  out.quote = {buy, buy * market_.sell_ratio};
  out.workload.resize(num_edges_);
  for (std::size_t i = 0; i < num_edges_; ++i) {
    Rng edge_rng(stream_seed(seed_, i, t));
    out.workload[i] = 1 + static_cast<int>(edge_rng.uniform_int(
                              0, static_cast<std::int64_t>(2.0 * mean_samples_)));
  }
  return FeedStatus::kReady;
}

DirectoryTailFeed::DirectoryTailFeed(std::string directory,
                                     std::size_t num_edges)
    : directory_(std::move(directory)), num_edges_(num_edges) {
  if (num_edges_ == 0) {
    throw std::invalid_argument(
        "DirectoryTailFeed: num_edges must be positive");
  }
  // Fail at construction, not after hours of pending polls: a missing
  // directory can never become ready (nobody can publish into it), and
  // poll() would misread it as an endless kPending.
  if (!directory_exists(directory_)) {
    throw std::invalid_argument(
        "DirectoryTailFeed: directory does not exist: " + directory_);
  }
}

std::string DirectoryTailFeed::slot_path(std::size_t t) const {
  return directory_ + "/slot_" + std::to_string(t) + ".csv";
}

std::string DirectoryTailFeed::end_path() const {
  return directory_ + "/feed_end";
}

FeedStatus DirectoryTailFeed::poll(std::size_t t, SlotInput& out) {
  const std::string path = slot_path(t);
  if (!file_exists(path)) {
    return file_exists(end_path()) ? FeedStatus::kEnd : FeedStatus::kPending;
  }
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("DirectoryTailFeed: cannot open " + path);
  }
  std::string price_line;
  std::string count_line;
  if (!std::getline(in, price_line) || !std::getline(in, count_line)) {
    throw std::runtime_error("DirectoryTailFeed: truncated slot file " + path);
  }
  const auto price_cells = split_cells(price_line);
  double buy = 0.0;
  double sell = 0.0;
  // parse_double accepts "nan" and "inf", and a NaN fails none of the
  // ordered comparisons, so finiteness is checked explicitly.
  if (price_cells.size() != 2 || !util::parse_double(price_cells[0], buy) ||
      !util::parse_double(price_cells[1], sell) || !std::isfinite(buy) ||
      !std::isfinite(sell) || buy <= 0.0 || sell <= 0.0 || sell > buy) {
    throw std::runtime_error("DirectoryTailFeed: bad price line in " + path);
  }
  const auto count_cells = split_cells(count_line);
  if (count_cells.size() != num_edges_) {
    throw std::runtime_error(
        "DirectoryTailFeed: " + path + " has " +
        std::to_string(count_cells.size()) + " counts, expected " +
        std::to_string(num_edges_));
  }
  out.quote = {buy, sell};
  out.workload.resize(num_edges_);
  for (std::size_t i = 0; i < num_edges_; ++i)
    out.workload[i] = parse_count_strict(count_cells[i], path);
  return FeedStatus::kReady;
}

void DirectoryTailFeed::publish_slot(const DirectoryTailFeed& feed,
                                     std::size_t t, const SlotInput& input) {
  const std::string path = feed.slot_path(t);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) {
      throw std::runtime_error("DirectoryTailFeed: cannot write " + tmp);
    }
    out << util::format_double_exact(input.quote.buy_price) << ','
        << util::format_double_exact(input.quote.sell_price) << '\n';
    for (std::size_t i = 0; i < input.workload.size(); ++i) {
      if (i > 0) out << ',';
      out << util::format_i64(input.workload[i]);
    }
    out << '\n';
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("DirectoryTailFeed: cannot publish " + path);
  }
}

}  // namespace cea::serve
