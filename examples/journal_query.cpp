// Decision-journal query tool (obs/journal.h): verify a journal's
// checksums, filter and export its records, or reconstruct the
// serve_daemon trace CSV bit-for-bit from the journaled decisions. It also
// prints a binary checkpoint (util/state_io.h) as text.
//
//   journal_query <dir> --verify
//   journal_query <dir> [--tenant NAME] [--from S] [--to S]
//                       [--format csv|json] [--out PATH]
//   journal_query <dir> --format trace --out trace.csv
//   journal_query --dump-checkpoint ck.bin
//
// Trace mode folds duplicate (tenant, slot) records — a daemon restored
// from a checkpoint re-executes the slots after it bit-identically, so
// duplicates must be byte-identical; a differing duplicate is reported as
// corruption. The rebuilt CSV is byte-comparable (`cmp`) against
// serve_daemon --trace-out of the same run.
//
// --dump-checkpoint verifies the checkpoint's envelope, then walks its
// records without a schema and prints one `key type count values...` line
// per record (doubles as hex-floats).
//
// Exit codes: 0 success, 1 bad usage, 2 runtime failure, 3 corrupt or
// inconsistent journal or checkpoint.

#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/journal.h"
#include "util/csv.h"
#include "util/numio.h"
#include "util/state_io.h"

namespace {

using namespace cea;

struct Args {
  std::string directory;
  bool verify = false;
  std::string format = "csv";  // csv | json | trace
  std::string tenant;          // empty = all
  std::size_t from_slot = 0;
  std::size_t to_slot = static_cast<std::size_t>(-1);
  std::string out;  // empty = stdout (trace mode requires a path)
  std::string dump_checkpoint;  // checkpoint file to print; no directory
};

bool parse_args(int argc, char** argv, Args& args) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if (!std::strcmp(a, "--verify")) {
      args.verify = true;
    } else if (!std::strcmp(a, "--dump-checkpoint") && (v = need_value(i))) {
      args.dump_checkpoint = v;
    } else if (!std::strcmp(a, "--format") && (v = need_value(i))) {
      args.format = v;
    } else if (!std::strcmp(a, "--tenant") && (v = need_value(i))) {
      args.tenant = v;
    } else if (!std::strcmp(a, "--from") && (v = need_value(i))) {
      args.from_slot = std::stoul(v);
    } else if (!std::strcmp(a, "--to") && (v = need_value(i))) {
      args.to_slot = std::stoul(v);
    } else if (!std::strcmp(a, "--out") && (v = need_value(i))) {
      args.out = v;
    } else if (a[0] != '-' && args.directory.empty()) {
      args.directory = a;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", a);
      return false;
    }
  }
  if (args.directory.empty() == args.dump_checkpoint.empty()) {
    std::fprintf(stderr,
                 "usage: journal_query <dir> [--verify] [--tenant NAME] "
                 "[--from S] [--to S] [--format csv|json|trace] "
                 "[--out PATH]\n"
                 "       journal_query --dump-checkpoint FILE\n");
    return false;
  }
  return true;
}

bool selected(const Args& args, const obs::JournalRecord& record) {
  if (!args.tenant.empty() && record.tenant != args.tenant) return false;
  return record.slot >= args.from_slot && record.slot <= args.to_slot;
}

std::string counts_field(const std::vector<std::uint64_t>& counts) {
  if (counts.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out += ':';
    out += util::format_u64(counts[i]);
  }
  return out;
}

void write_csv(FILE* out, const std::vector<obs::JournalRecord>& records,
               const Args& args) {
  std::fprintf(out,
               "kind,tenant,slot,model_counts,switches_total,solver_lanes,"
               "arena_overflows,trader_dual,buy,sell,buy_price,sell_price,"
               "emission,balance,carbon_cap,inference_cost,switching_cost,"
               "trading_cost,accuracy,workload,alert,value,threshold\n");
  for (const obs::JournalRecord& r : records) {
    if (!selected(args, r)) continue;
    const bool slot_kind = r.kind == obs::JournalRecord::Kind::kSlot;
    auto d = [](double value) { return util::format_double_exact(value); };
    std::fprintf(
        out, "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,"
             "%s,%s,%s\n",
        slot_kind ? "slot" : "alert", r.tenant.c_str(),
        util::format_u64(r.slot).c_str(), counts_field(r.model_counts).c_str(),
        util::format_u64(r.switches_total).c_str(),
        util::format_u64(r.solver_lanes).c_str(),
        util::format_u64(r.arena_overflows).c_str(), d(r.trader_dual).c_str(),
        d(r.buy).c_str(), d(r.sell).c_str(), d(r.buy_price).c_str(),
        d(r.sell_price).c_str(), d(r.emission).c_str(), d(r.balance).c_str(),
        d(r.carbon_cap).c_str(), d(r.inference_cost).c_str(),
        d(r.switching_cost).c_str(), d(r.trading_cost).c_str(),
        d(r.accuracy).c_str(), d(r.workload).c_str(),
        slot_kind ? "-" : r.alert.c_str(), d(r.value).c_str(),
        d(r.threshold).c_str());
  }
}

void write_json(FILE* out, const std::vector<obs::JournalRecord>& records,
                const Args& args) {
  std::fprintf(out, "[\n");
  bool first = true;
  for (const obs::JournalRecord& r : records) {
    if (!selected(args, r)) continue;
    auto d = [](double value) { return util::format_double_exact(value); };
    if (!first) std::fprintf(out, ",\n");
    first = false;
    if (r.kind == obs::JournalRecord::Kind::kSlot) {
      std::fprintf(
          out,
          "  {\"kind\": \"slot\", \"tenant\": \"%s\", \"slot\": %s, "
          "\"model_counts\": \"%s\", \"switches_total\": %s, "
          "\"solver_lanes\": %s, \"arena_overflows\": %s, "
          "\"trader_dual\": \"%s\", \"buy\": \"%s\", \"sell\": \"%s\", "
          "\"buy_price\": \"%s\", \"sell_price\": \"%s\", "
          "\"emission\": \"%s\", \"balance\": \"%s\", "
          "\"carbon_cap\": \"%s\", \"inference_cost\": \"%s\", "
          "\"switching_cost\": \"%s\", \"trading_cost\": \"%s\", "
          "\"accuracy\": \"%s\", \"workload\": \"%s\"}",
          r.tenant.c_str(), util::format_u64(r.slot).c_str(),
          counts_field(r.model_counts).c_str(),
          util::format_u64(r.switches_total).c_str(),
          util::format_u64(r.solver_lanes).c_str(),
          util::format_u64(r.arena_overflows).c_str(),
          d(r.trader_dual).c_str(), d(r.buy).c_str(), d(r.sell).c_str(),
          d(r.buy_price).c_str(), d(r.sell_price).c_str(),
          d(r.emission).c_str(), d(r.balance).c_str(),
          d(r.carbon_cap).c_str(), d(r.inference_cost).c_str(),
          d(r.switching_cost).c_str(), d(r.trading_cost).c_str(),
          d(r.accuracy).c_str(), d(r.workload).c_str());
    } else {
      std::fprintf(out,
                   "  {\"kind\": \"alert\", \"tenant\": \"%s\", "
                   "\"slot\": %s, \"alert\": \"%s\", \"value\": \"%s\", "
                   "\"threshold\": \"%s\"}",
                   r.tenant.c_str(), util::format_u64(r.slot).c_str(),
                   r.alert.c_str(), d(r.value).c_str(),
                   d(r.threshold).c_str());
    }
  }
  std::fprintf(out, "\n]\n");
}

/// Rebuild serve_daemon's --trace-out CSV from the journaled slot records:
/// per tenant (journal first-appearance order == tenant-index order), the
/// eight per-slot series plus the scalars row, hex-float exact. Duplicate
/// (tenant, slot) records from checkpoint restores must be byte-identical
/// (the later run re-executed the slot bit-exactly); the last one wins.
/// Throws JournalError on differing duplicates or slot gaps.
void write_trace(const std::vector<obs::JournalRecord>& records,
                 const std::string& path) {
  std::vector<std::string> order;
  std::map<std::string, std::map<std::uint64_t, obs::JournalRecord>> slots;
  for (const obs::JournalRecord& r : records) {
    if (r.kind != obs::JournalRecord::Kind::kSlot) continue;
    auto [it, inserted] = slots[r.tenant].try_emplace(r.slot, r);
    if (slots[r.tenant].size() == 1 && inserted) order.push_back(r.tenant);
    if (!inserted) {
      if (obs::format_record(it->second) != obs::format_record(r)) {
        throw obs::JournalError(
            "tenant '" + r.tenant + "' slot " + std::to_string(r.slot) +
            ": duplicate records differ (restored run diverged)");
      }
      it->second = r;
    }
  }
  CsvWriter writer(path);
  for (const std::string& tenant : order) {
    const auto& by_slot = slots[tenant];
    std::vector<double> inference, switching, trading, emissions, buys,
        sells, accuracy, workload;
    std::uint64_t expected = 0;
    const obs::JournalRecord* last = nullptr;
    for (const auto& [slot, record] : by_slot) {
      if (slot != expected) {
        throw obs::JournalError("tenant '" + tenant + "': slot " +
                                std::to_string(expected) +
                                " missing from the journal");
      }
      ++expected;
      inference.push_back(record.inference_cost);
      switching.push_back(record.switching_cost);
      trading.push_back(record.trading_cost);
      emissions.push_back(record.emission);
      buys.push_back(record.buy);
      sells.push_back(record.sell);
      accuracy.push_back(record.accuracy);
      workload.push_back(record.workload);
      last = &record;
    }
    const std::string prefix = tenant + ".";
    writer.write_row_exact(prefix + "inference_cost", inference);
    writer.write_row_exact(prefix + "switching_cost", switching);
    writer.write_row_exact(prefix + "trading_cost", trading);
    writer.write_row_exact(prefix + "emissions", emissions);
    writer.write_row_exact(prefix + "buys", buys);
    writer.write_row_exact(prefix + "sells", sells);
    writer.write_row_exact(prefix + "accuracy", accuracy);
    writer.write_row_exact(prefix + "workload", workload);
    writer.write_row_exact(
        prefix + "scalars",
        {static_cast<double>(last->switches_total), last->balance});
  }
}

/// --dump-checkpoint: exit 2 when the file cannot be read, 3 when its
/// envelope or records are damaged.
int dump_checkpoint(const std::string& path) {
  std::string bytes;
  try {
    bytes = util::read_file_bytes(path);
  } catch (const util::StateError& e) {
    std::fprintf(stderr, "journal_query: %s\n", e.what());
    return 2;
  }
  std::string text;
  try {
    text = util::dump_state(util::decode_checkpoint(std::move(bytes)));
  } catch (const util::StateError& e) {
    std::fprintf(stderr, "journal_query: CORRUPT — %s\n", e.what());
    return 3;
  }
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 1;
  if (!args.dump_checkpoint.empty()) {
    return dump_checkpoint(args.dump_checkpoint);
  }
  try {
    if (args.verify) {
      const obs::JournalStats stats = obs::verify_journal(args.directory);
      if (stats.ok) {
        std::printf("journal_query: OK — %zu record(s) in %zu segment(s)\n",
                    stats.records, stats.segments);
        return 0;
      }
      std::fprintf(stderr, "journal_query: CORRUPT — %s\n",
                   stats.error.c_str());
      return 3;
    }

    const std::vector<obs::JournalRecord> records =
        obs::read_journal(args.directory);
    if (args.format == "trace") {
      if (args.out.empty()) {
        std::fprintf(stderr, "journal_query: --format trace needs --out\n");
        return 1;
      }
      write_trace(records, args.out);
      std::printf("journal_query: trace written to %s\n", args.out.c_str());
      return 0;
    }

    FILE* out = stdout;
    if (!args.out.empty()) {
      out = std::fopen(args.out.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "journal_query: cannot open %s\n",
                     args.out.c_str());
        return 2;
      }
    }
    if (args.format == "csv") {
      write_csv(out, records, args);
    } else if (args.format == "json") {
      write_json(out, records, args);
    } else {
      std::fprintf(stderr, "journal_query: unknown format '%s'\n",
                   args.format.c_str());
      if (out != stdout) std::fclose(out);
      return 1;
    }
    if (out != stdout) std::fclose(out);
    return 0;
  } catch (const obs::JournalError& e) {
    std::fprintf(stderr, "journal_query: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "journal_query: %s\n", e.what());
    return 2;
  }
}
