// OLTP multi-lock benchmark: bank transfers and YCSB-style k-record
// transactions over per-record locks, elided multi-lock episodes vs plain
// sorted 2PL.
//
// This is the workload family the multi-lock episode API exists for: every
// transaction must hold SEVERAL record locks at once, so the pessimistic
// baseline serializes whole lock *sets* (sorted 2PL — acquire ascending,
// release descending) while the elided build subscribes all members in one
// transaction and commits lock-free whenever the key sets do not actually
// collide. Contention is swept via Zipfian key skew (theta 0 = uniform,
// 0.99 = YCSB hot-spot) — see src/support/zipf.h.
//
// Workloads ([measured], real runtime via gopool::RunParallel):
//   bank  — 2-lock transfers over GOCC_OLTP_ACCOUNTS accounts; exact
//           conservation is asserted after every cell (a torn multi-lock
//           commit fails the binary, not just a number).
//   ycsb  — GOCC_OLTP_SET_SIZE-lock read-modify-write/read transactions
//           over GOCC_OLTP_KEYS records (GOCC_OLTP_UPDATE_FRAC of ops
//           write); the version-sum oracle is asserted per cell.
// Modes: 2pl (Pessimistic::LockSet) vs gocc (Elided::WithLocks) — on
// whichever backend GOCC_BACKEND selects (SimTM default, swocc for the
// software tier), so committed baselines exist per backend.
//
// Reported per cell: ns/op (min of reps), p50/p99/p999 (batch-timed pass
// through bench/bench_util.h's PercentileRecorder), commit rate
// (multilock_fast_commits / multilock_episodes), and the per-AbortCode
// episode abort breakdown plus per-member blame counts. Summary config
// keys carry the elided-vs-2PL speedup per (workload, theta).
//
// [simulated]: the DES keyed multi-lock model (src/sim/desim.h key_space /
// lock_set_size / zipf_theta) sweeps 8-64 cores per skew level — core
// counts this host does not have.
//
// Knobs: GOCC_OLTP_ACCOUNTS (default 4096), GOCC_OLTP_KEYS (default 2048),
// GOCC_OLTP_SET_SIZE (default 4, max OptiLock::kMaxLockSet),
// GOCC_OLTP_UPDATE_FRAC (default 0.5), GOCC_OLTP_THETAS (comma list,
// default "0,0.6,0.99"). Flags: --quick (CI smoke: fewer threads/reps,
// shorter windows).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/htm/abort.h"
#include "src/htm/stats.h"
#include "src/optilib/optilock.h"
#include "src/support/strings.h"
#include "src/support/zipf.h"
#include "src/workloads/oltp/bank.h"
#include "src/workloads/oltp/ycsb.h"
#include "src/workloads/policy.h"

namespace gocc::bench {
namespace {

std::vector<double> EnvThetas() {
  const char* v = std::getenv("GOCC_OLTP_THETAS");
  std::vector<double> out;
  if (v != nullptr && *v != '\0') {
    std::string s(v);
    size_t pos = 0;
    while (pos < s.size()) {
      size_t comma = s.find(',', pos);
      if (comma == std::string::npos) comma = s.size();
      out.push_back(std::atof(s.substr(pos, comma - pos).c_str()));
      pos = comma + 1;
    }
  }
  if (out.empty()) {
    out = {0.0, 0.6, 0.99};
  }
  return out;
}

std::string ThetaStr(double theta) { return gocc::StrFormat("%g", theta); }

struct OltpKnobs {
  int accounts = 4096;
  int keys = 2048;
  int set_size = 4;
  double update_frac = 0.5;
};

// Per-thread seeds: fixed salts keep runs deterministic, the ordinal
// decorrelates the workers.
constexpr uint64_t kBankSeed = 0x0b1a5ed5eedULL;
constexpr uint64_t kYcsbSeed = 0x5ca1ab1e0ddULL;

// One benchmark cell's workload driver. Templated on policy so the elided
// call sites get their own thread_local OptiLocks; a fresh driver is built
// per cell so no workload state leaks across cells.
template <typename Policy>
struct BankDriver {
  workloads::oltp::BankLedger<Policy> ledger;
  std::atomic<uint32_t> next_ordinal{0};

  explicit BankDriver(const OltpKnobs& k) : ledger(k.accounts) {}

  std::function<void(gopool::PB&)> Body(double theta) {
    return [this, theta](gopool::PB& pb) {
      const uint32_t ord =
          next_ordinal.fetch_add(1, std::memory_order_relaxed);
      support::ZipfianGenerator zipf(
          static_cast<uint64_t>(ledger.accounts()), theta, kBankSeed + ord);
      uint64_t keys[2];
      while (pb.Next()) {
        zipf.NextDistinct(keys, 2);
        ledger.Transfer(keys[0], keys[1], 1);
      }
    };
  }

  std::function<void(gopool::PB&)> LatencyBody(double theta,
                                               PercentileRecorder* rec) {
    return [this, theta, rec](gopool::PB& pb) {
      const uint32_t ord =
          next_ordinal.fetch_add(1, std::memory_order_relaxed);
      support::ZipfianGenerator zipf(
          static_cast<uint64_t>(ledger.accounts()), theta, kBankSeed + ord);
      support::LatencyHistogram& hist = rec->Claim();
      uint64_t keys[2];
      BatchTimedLoop(pb, &hist, [&] {
        zipf.NextDistinct(keys, 2);
        ledger.Transfer(keys[0], keys[1], 1);
      });
    };
  }

  bool CheckOracle() const {
    return ledger.TotalBalanceQuiescent() == ledger.expected_total();
  }
};

template <typename Policy>
struct YcsbDriver {
  workloads::oltp::YcsbTable<Policy> table;
  int set_size;
  double update_frac;
  std::atomic<uint32_t> next_ordinal{0};
  std::atomic<uint64_t> record_writes{0};

  explicit YcsbDriver(const OltpKnobs& k)
      : table(k.keys), set_size(k.set_size), update_frac(k.update_frac) {}

  std::function<void(gopool::PB&)> Body(double theta) {
    return [this, theta](gopool::PB& pb) {
      const uint32_t ord =
          next_ordinal.fetch_add(1, std::memory_order_relaxed);
      support::ZipfianGenerator zipf(static_cast<uint64_t>(table.records()),
                                     theta, kYcsbSeed + ord);
      gocc::SplitMix64 op_rng(kYcsbSeed ^ (0xf00dULL + ord));
      uint64_t keys[optilib::OptiLock::kMaxLockSet];
      uint64_t writes = 0;
      while (pb.Next()) {
        zipf.NextDistinct(keys, set_size);
        if (op_rng.NextBool(update_frac)) {
          table.UpdateTxn(keys, set_size);
          writes += static_cast<uint64_t>(set_size);
        } else {
          table.ReadTxn(keys, set_size);
        }
      }
      record_writes.fetch_add(writes, std::memory_order_relaxed);
    };
  }

  std::function<void(gopool::PB&)> LatencyBody(double theta,
                                               PercentileRecorder* rec) {
    return [this, theta, rec](gopool::PB& pb) {
      const uint32_t ord =
          next_ordinal.fetch_add(1, std::memory_order_relaxed);
      support::ZipfianGenerator zipf(static_cast<uint64_t>(table.records()),
                                     theta, kYcsbSeed + ord);
      gocc::SplitMix64 op_rng(kYcsbSeed ^ (0xf00dULL + ord));
      support::LatencyHistogram& hist = rec->Claim();
      uint64_t keys[optilib::OptiLock::kMaxLockSet];
      uint64_t writes = 0;
      BatchTimedLoop(pb, &hist, [&] {
        zipf.NextDistinct(keys, set_size);
        if (op_rng.NextBool(update_frac)) {
          table.UpdateTxn(keys, set_size);
          writes += static_cast<uint64_t>(set_size);
        } else {
          table.ReadTxn(keys, set_size);
        }
      });
      record_writes.fetch_add(writes, std::memory_order_relaxed);
    };
  }

  bool CheckOracle() const {
    return table.TotalVersionsQuiescent() ==
           record_writes.load(std::memory_order_relaxed);
  }
};

// Appends the per-AbortCode episode abort breakdown (and per-member blame
// counts — the attribution the multi-lock runtime records) to a record.
void AppendAbortBreakdown(std::vector<std::pair<std::string, double>>* out) {
  const auto& os = optilib::GlobalOptiStats();
  for (int i = 1; i < htm::kNumAbortCodes; ++i) {
    const auto code = static_cast<htm::AbortCode>(i);
    if (uint64_t n = os.EpisodeAborts(code); n > 0) {
      out->emplace_back(std::string("abort.") + htm::AbortCodeName(code),
                        static_cast<double>(n));
    }
  }
  for (int m = 0; m < optilib::OptiLock::kMaxLockSet; ++m) {
    if (uint64_t n = os.MultiLockAbortsOnMember(m); n > 0) {
      out->emplace_back("abort_member." + std::to_string(m),
                        static_cast<double>(n));
    }
  }
}

struct CellResult {
  double ns_per_op = 0.0;
  double commit_rate = -1.0;  // -1: no elided episodes ran (2pl mode)
};

// Runs one (workload, mode, theta, threads) cell: warm-up, min-of-reps
// timing, percentile pass, oracle check, JSON record.
template <typename DriverMaker>
CellResult RunCell(const char* workload, const char* mode, double theta,
                   int threads, int max_threads, int reps,
                   std::chrono::milliseconds window, DriverMaker make,
                   int* oracle_failures) {
  ResetRuntimeState();
  auto driver = make();
  auto body = driver->Body(theta);
  gopool::RunParallel(threads, window / 4, body);  // warm-up
  optilib::GlobalOptiStats().Reset();
  htm::GlobalTxStats().Reset();
  gopool::BenchResult best{};
  for (int rep = 0; rep < reps; ++rep) {
    gopool::BenchResult r = gopool::RunParallel(threads, window, body);
    if (rep == 0 || r.ns_per_op < best.ns_per_op) {
      best = r;
    }
  }
  PercentileRecorder recorder(max_threads);
  auto lat_body = driver->LatencyBody(theta, &recorder);
  gopool::RunParallel(threads, window / 2, lat_body);
  const LatencySummary lat = recorder.Summarize();

  const auto& os = optilib::GlobalOptiStats();
  const uint64_t episodes = os.multilock_episodes.load();
  CellResult cell;
  cell.ns_per_op = best.ns_per_op;
  if (episodes > 0) {
    cell.commit_rate = static_cast<double>(os.multilock_fast_commits.load()) /
                       static_cast<double>(episodes);
  }

  const bool oracle_ok = driver->CheckOracle();
  if (!oracle_ok) {
    std::fprintf(stderr,
                 "ORACLE VIOLATION: %s/%s theta=%.2f threads=%d — multi-lock "
                 "atomicity broken\n",
                 workload, mode, theta, threads);
    ++*oracle_failures;
  }

  char commit_buf[16];
  if (cell.commit_rate >= 0.0) {
    std::snprintf(commit_buf, sizeof(commit_buf), "%.3f", cell.commit_rate);
  } else {
    std::snprintf(commit_buf, sizeof(commit_buf), "-");
  }
  std::printf("  %-5s %-5s %5.2f %8d %12.1f %9.1f %9.1f %9.1f %11s %7s\n",
              workload, mode, theta, threads, best.ns_per_op, lat.p50_ns,
              lat.p99_ns, lat.p999_ns, commit_buf, oracle_ok ? "ok" : "FAIL");

  if (JsonReport* report = JsonReport::Active()) {
    JsonRecord rec;
    rec.benchmark = std::string(workload) + "/theta=" + ThetaStr(theta);
    rec.mode = mode;
    rec.section = "measured";
    rec.threads = threads;
    rec.ns_per_op = best.ns_per_op;
    rec.ops_per_sec = best.ns_per_op > 0 ? 1e9 / best.ns_per_op : 0.0;
    rec.total_ops = best.total_ops;
    PercentileRecorder::Fill(lat, &rec);
    if (cell.commit_rate >= 0.0) {
      rec.counters.emplace_back("commit_rate", cell.commit_rate);
    }
    rec.counters.emplace_back("oracle_ok", oracle_ok ? 1.0 : 0.0);
    AppendAbortBreakdown(&rec.counters);
    AppendRuntimeCounters(&rec.counters);
    report->Add(std::move(rec));
  }
  return cell;
}

// DES scenario for a keyed multi-lock workload. Service times are rough
// per-op costs of the real drivers (a couple of Shared loads/stores per
// member inside the CS; the Zipfian draw dominates outside_ns).
sim::Scenario OltpScenario(const std::string& name, int set_size,
                           int key_space, double theta, double write_prob) {
  sim::Scenario s;
  s.name = name;
  s.kind = sim::LockKind::kMutex;
  s.cs_ns = 12.0 * set_size;
  s.shared_write_lines = set_size;
  s.write_prob = write_prob;
  s.write_footprint_lines = set_size;
  s.outside_ns = 30.0;
  s.lock_set_size = set_size;
  s.key_space = key_space;
  s.zipf_theta = theta;
  return s;
}

}  // namespace
}  // namespace gocc::bench

int main(int argc, char** argv) {
  using namespace gocc::bench;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }

  OltpKnobs knobs;
  knobs.accounts = EnvInt("GOCC_OLTP_ACCOUNTS", 4096, 2, 1 << 20);
  knobs.keys = EnvInt("GOCC_OLTP_KEYS", 2048, 2, 1 << 20);
  knobs.set_size = EnvInt("GOCC_OLTP_SET_SIZE", 4, 2,
                          gocc::optilib::OptiLock::kMaxLockSet);
  knobs.update_frac = EnvDouble("GOCC_OLTP_UPDATE_FRAC", 0.5, 0.0, 1.0);
  const std::vector<double> thetas = EnvThetas();

  JsonReport report("oltp");
  std::printf("== OLTP: multi-lock transactions vs sorted 2PL ==\n");

  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const auto window = std::chrono::milliseconds(quick ? 20 : 60);
  const int max_threads = thread_counts.back();
  const int reps = quick ? 3 : 4;

  ResetRuntimeState();  // probes the backend before we report it
  report.Config("quick", quick ? 1.0 : 0.0);
  report.Config("window_ms", static_cast<double>(window.count()));
  report.Config("reps_min_of", static_cast<double>(reps));
  report.Config("accounts", static_cast<double>(knobs.accounts));
  report.Config("keys", static_cast<double>(knobs.keys));
  report.Config("set_size", static_cast<double>(knobs.set_size));
  report.Config("update_frac", knobs.update_frac);

  int oracle_failures = 0;
  std::printf("  %-5s %-5s %5s %8s %12s %9s %9s %9s %11s %7s\n", "wl",
              "mode", "theta", "threads", "ns/op", "p50 ns", "p99 ns",
              "p999 ns", "commit_rate", "oracle");

  for (double theta : thetas) {
    double bank_2pl_mt = 0.0;
    double bank_gocc_mt = 0.0;
    double ycsb_2pl_mt = 0.0;
    double ycsb_gocc_mt = 0.0;
    for (int threads : thread_counts) {
      CellResult c = RunCell(
          "bank", "2pl", theta, threads, max_threads, reps, window,
          [&] {
            return std::make_unique<
                BankDriver<gocc::workloads::Pessimistic>>(knobs);
          },
          &oracle_failures);
      if (threads == max_threads) bank_2pl_mt = c.ns_per_op;
      c = RunCell(
          "bank", "gocc", theta, threads, max_threads, reps, window,
          [&] {
            return std::make_unique<BankDriver<gocc::workloads::Elided>>(
                knobs);
          },
          &oracle_failures);
      if (threads == max_threads) bank_gocc_mt = c.ns_per_op;
      c = RunCell(
          "ycsb", "2pl", theta, threads, max_threads, reps, window,
          [&] {
            return std::make_unique<
                YcsbDriver<gocc::workloads::Pessimistic>>(knobs);
          },
          &oracle_failures);
      if (threads == max_threads) ycsb_2pl_mt = c.ns_per_op;
      c = RunCell(
          "ycsb", "gocc", theta, threads, max_threads, reps, window,
          [&] {
            return std::make_unique<YcsbDriver<gocc::workloads::Elided>>(
                knobs);
          },
          &oracle_failures);
      if (threads == max_threads) ycsb_gocc_mt = c.ns_per_op;
    }
    // Elided-vs-sorted-2PL speedup at max threads, per skew level.
    auto speedup = [](double lock_ns, double gocc_ns) {
      return gocc_ns > 0.0 ? (lock_ns / gocc_ns - 1.0) * 100.0 : 0.0;
    };
    const double bank_pct = speedup(bank_2pl_mt, bank_gocc_mt);
    const double ycsb_pct = speedup(ycsb_2pl_mt, ycsb_gocc_mt);
    report.Config("speedup_pct.bank.theta=" + ThetaStr(theta), bank_pct);
    report.Config("speedup_pct.ycsb.theta=" + ThetaStr(theta), ycsb_pct);
    std::printf("  -- theta=%.2f @%dt: bank %+.1f%%, ycsb %+.1f%% vs 2pl\n",
                theta, max_threads, bank_pct, ycsb_pct);
  }

  // DES sweeps: simulated 8-64 cores per skew level, both workload shapes.
  std::vector<SimCase> sim_cases;
  for (double theta : thetas) {
    sim_cases.push_back(
        {"bank/theta=" + ThetaStr(theta),
         OltpScenario("bank", 2, knobs.accounts, theta, 1.0)});
    sim_cases.push_back(
        {"ycsb/theta=" + ThetaStr(theta),
         OltpScenario("ycsb", knobs.set_size, knobs.keys, theta,
                      knobs.update_frac)});
  }
  RunSimulated("oltp", sim_cases,
               quick ? std::vector<int>{8, 64}
                     : std::vector<int>{8, 16, 32, 64});

  if (oracle_failures > 0) {
    std::fprintf(stderr, "bench_oltp: %d oracle violation(s)\n",
                 oracle_failures);
    return 1;
  }
  return 0;
}
