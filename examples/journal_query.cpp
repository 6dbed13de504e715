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
// corruption. The rebuilt CSV comes from the recorder and writer behind
// serve_daemon --trace-out (sim/series_recorder.h), so it is
// byte-comparable (`cmp`) against the trace of the same run.
//
// --dump-checkpoint verifies the checkpoint's envelope, then walks its
// records without a schema and prints one `key type count values...` line
// per record (doubles as hex-floats).
//
// Exit codes: 0 success, 1 bad usage, 2 runtime failure, 3 corrupt or
// inconsistent journal or checkpoint.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/journal.h"
#include "sim/series_recorder.h"
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
  std::uint64_t from_slot = 0;
  std::uint64_t to_slot = static_cast<std::uint64_t>(-1);
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
    bool ok = true;
    if (!std::strcmp(a, "--verify")) {
      args.verify = true;
    } else if (!std::strcmp(a, "--dump-checkpoint") && (v = need_value(i))) {
      args.dump_checkpoint = v;
    } else if (!std::strcmp(a, "--format") && (v = need_value(i))) {
      args.format = v;
    } else if (!std::strcmp(a, "--tenant") && (v = need_value(i))) {
      args.tenant = v;
    } else if (!std::strcmp(a, "--from") && (v = need_value(i))) {
      ok = util::parse_u64(v, args.from_slot);
    } else if (!std::strcmp(a, "--to") && (v = need_value(i))) {
      ok = util::parse_u64(v, args.to_slot);
    } else if (!std::strcmp(a, "--out") && (v = need_value(i))) {
      args.out = v;
    } else if (a[0] != '-' && args.directory.empty()) {
      args.directory = a;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", a);
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: %s\n", a, v);
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
        slot_kind ? "slot" : "alert", csv_escape(r.tenant).c_str(),
        util::format_u64(r.slot).c_str(), counts_field(r.model_counts).c_str(),
        util::format_u64(r.switches_total).c_str(),
        util::format_u64(r.solver_lanes).c_str(),
        util::format_u64(r.arena_overflows).c_str(), d(r.trader_dual).c_str(),
        d(r.buy).c_str(), d(r.sell).c_str(), d(r.buy_price).c_str(),
        d(r.sell_price).c_str(), d(r.emission).c_str(), d(r.balance).c_str(),
        d(r.carbon_cap).c_str(), d(r.inference_cost).c_str(),
        d(r.switching_cost).c_str(), d(r.trading_cost).c_str(),
        d(r.accuracy).c_str(), d(r.workload).c_str(),
        slot_kind ? "-" : csv_escape(r.alert).c_str(), d(r.value).c_str(),
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
          obs::json_escape(r.tenant).c_str(),
          util::format_u64(r.slot).c_str(),
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
                   obs::json_escape(r.tenant).c_str(),
                   util::format_u64(r.slot).c_str(),
                   obs::json_escape(r.alert).c_str(), d(r.value).c_str(),
                   d(r.threshold).c_str());
    }
  }
  std::fprintf(out, "\n]\n");
}

/// Rebuild serve_daemon's --trace-out CSV from the journaled slot records:
/// per tenant (journal first-appearance order == tenant-index order), the
/// records go to a sim::SeriesRecorder as observations, and
/// sim::write_trace_rows writes them, as serve_daemon writes its own.
/// Duplicate (tenant, slot) records from checkpoint restores must be
/// byte-identical (the later run re-executed the slot bit-exactly).
/// Throws JournalError on differing duplicates or slot gaps, and
/// std::runtime_error when the file cannot be written.
void write_trace(const std::vector<obs::JournalRecord>& records,
                 const std::string& path) {
  std::vector<std::string> order;
  std::map<std::string, std::map<std::uint64_t, const obs::JournalRecord*>>
      slots;
  for (const obs::JournalRecord& r : records) {
    if (r.kind != obs::JournalRecord::Kind::kSlot) continue;
    auto& by_slot = slots[r.tenant];
    if (by_slot.empty()) order.push_back(r.tenant);
    const auto [it, inserted] = by_slot.try_emplace(r.slot, &r);
    if (!inserted && obs::format_record(*it->second) != obs::format_record(r)) {
      throw obs::JournalError(
          "tenant '" + r.tenant + "' slot " + std::to_string(r.slot) +
          ": duplicate records differ (restored run diverged)");
    }
  }
  sim::SeriesRecorder recorder(order.size());
  CsvWriter writer(path);
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::uint64_t expected = 0;
    for (const auto& [slot, record] : slots[order[i]]) {
      if (slot != expected) {
        throw obs::JournalError("tenant '" + order[i] + "': slot " +
                                std::to_string(expected) +
                                " missing from the journal");
      }
      ++expected;
      sim::SlotObservation observed;
      static_cast<obs::SlotValues&>(observed) = *record;
      observed.slot = slot;
      observed.model_counts = record->model_counts;
      recorder.on_tenant_slot(i, observed);
    }
    const obs::JournalRecord& last = *slots[order[i]].rbegin()->second;
    sim::write_trace_rows(writer, order[i], recorder.result(i),
                          last.switches_total, last.balance);
  }
  writer.close();
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
    // A full disk shows only here: stdio buffers the rows, and the flush
    // (or close) is the write that fails.
    const bool write_failed = std::ferror(out) != 0;
    const bool close_failed =
        out == stdout ? std::fflush(out) != 0 : std::fclose(out) != 0;
    if (write_failed || close_failed) {
      std::fprintf(stderr, "journal_query: cannot write %s\n",
                   args.out.empty() ? "stdout" : args.out.c_str());
      return 2;
    }
    return 0;
  } catch (const obs::JournalError& e) {
    std::fprintf(stderr, "journal_query: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "journal_query: %s\n", e.what());
    return 2;
  }
}
