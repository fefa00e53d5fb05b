// The benchmark's closed-loop workloads: their key streams, the systems
// under test, and the client loop that drives them.
//
// Each workload is a class template over the lock policy, so one harness
// runs the elided build (workloads::Elided), the traced copy of it
// (TracedElided) and the untracked-lock baseline (workloads::Pessimistic)
// on identical inputs.

#ifndef GOCC_PERFBENCH_WORKLOADS_H_
#define GOCC_PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/hist.h"
#include "perfbench/host.h"
#include "perfbench/trace.h"
#include "src/gosync/runtime.h"
#include "src/service/router.h"
#include "src/service/service.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/support/zipf.h"
#include "src/workloads/oltp/bank.h"
#include "src/workloads/policy.h"

namespace gocc::perfbench {

// Closed-loop clients: each waits for its reply before the next request.
inline constexpr int kClients = 3;

// Input shapes (see README.md for why each workload exists).
inline constexpr int kLedgerAccounts = 4096;
inline constexpr double kLedgerTheta = 0.99;
inline constexpr uint64_t kSvcKeys = 1024;
inline constexpr double kSvcTheta = 0.9;
inline constexpr double kSvcSetShare = 0.10;
inline constexpr int kSvcShards = 8;

// Ops a client draws before its stream wraps around (4 MiB per client).
inline constexpr size_t kStreamOps = size_t{1} << 20;

enum class Workload { kLedgerHot, kSvcMixed };
inline constexpr Workload kAllWorkloads[] = {Workload::kLedgerHot,
                                             Workload::kSvcMixed};

inline const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kLedgerHot:
      return "ledger-hot";
    case Workload::kSvcMixed:
      return "svc-mixed";
  }
  return "?";
}

// One op is one 32-bit word:
//   ledger-hot  from | to << 16, two distinct accounts
//   svc-mixed   key in [1, kSvcKeys], kSetBit marks a Set
inline constexpr uint32_t kSetBit = 1u << 31;

// The op stream of one client, a pure function of (workload, seed,
// client). Keys are popularity ranks (+1 where 0 is the caches' empty
// marker), so the hot keys are the same on every seed and only the draw
// sequence changes.
inline std::vector<uint32_t> MakeStream(Workload w, uint64_t seed, int client,
                                        size_t n) {
  const uint64_t s =
      SplitMix64(seed ^ (0xD1B54A32D192ED03ULL * static_cast<uint64_t>(
                                                     client + 1)))
          .Next();
  std::vector<uint32_t> ops(n);
  switch (w) {
    case Workload::kLedgerHot: {
      support::ZipfianGenerator z(kLedgerAccounts, kLedgerTheta, s);
      uint64_t pair[2];
      for (uint32_t& op : ops) {
        z.NextDistinct(pair, 2);
        op = static_cast<uint32_t>(pair[0] | pair[1] << 16);
      }
      break;
    }
    case Workload::kSvcMixed: {
      support::ZipfianGenerator z(kSvcKeys, kSvcTheta, s);
      SplitMix64 mix(~s);
      for (uint32_t& op : ops) {
        op = static_cast<uint32_t>(z.Next() + 1) |
             (mix.NextBool(kSvcSetShare) ? kSetBit : 0u);
      }
      break;
    }
  }
  return ops;
}

enum class Verdict {
  kOk,
  kFailed,  // a non-ok outcome (shed, rejected): counted, not wrong
  kWrong,   // a wrong or missing value
};

// Conflicting 2-account transfers on per-account locks; conservation is
// the oracle.
template <typename Policy>
class LedgerHotSut {
 public:
  static constexpr const char* kOpSpan = "workloads.BankLedger.Transfer";
  static constexpr bool kService = false;

  void Preload() {}  // the constructor opens every account

  Verdict Op(uint32_t op, int /*client*/, uint64_t /*seq*/) {
    bank_.Transfer(op & 0xffff, op >> 16, 1 + op % 97);
    return Verdict::kOk;
  }

  bool Oracle(uint64_t /*issued*/, std::string* why) {
    const int64_t total = bank_.TotalBalanceQuiescent();
    if (total != bank_.expected_total()) {
      *why = StrFormat("ledger total %lld != %lld",
                       static_cast<long long>(total),
                       static_cast<long long>(bank_.expected_total()));
      return false;
    }
    return true;
  }
  void ServiceCounts(uint64_t* shed, uint64_t* hedges) {
    *shed = 0;
    *hedges = 0;
  }

 private:
  workloads::oltp::BankLedger<Policy> bank_{kLedgerAccounts};
};

// The sharded cache service: 90% Get / 10% Set through the router.
template <typename Policy>
class SvcMixedSut {
 public:
  using Service = service::CacheService<Policy>;
  static constexpr const char* kOpSpan = "service.CacheService.request";
  static constexpr bool kService = true;

  static service::ServiceConfig Config() {
    service::ServiceConfig cfg;  // struct defaults, not GOCC_SVC_* overrides
    cfg.shards = kSvcShards;
    // One second: far above the longest stalls of a shared 4-vCPU VM (tens
    // of ms), so neither the deadline nor the p99 admission gate sheds a
    // request because the VM paused, and the failure share cannot track
    // the host.
    cfg.deadline_us = 1'000'000;
    cfg.p99_shed_us = 1'000'000;
    return cfg;
  }

  void Preload() {
    for (uint64_t k = 1; k <= kSvcKeys; ++k) {
      svc_->Set(k, Encode(k, 0));
    }
  }

  // Values carry their key in the high half, so any value a Get returns,
  // fresh or stale, must name the key asked for.
  Verdict Op(uint32_t op, int client, uint64_t seq) {
    const uint64_t key = op & ~kSetBit;
    if ((op & kSetBit) != 0) {
      const uint64_t version =
          static_cast<uint64_t>(client) << 28 | (seq & 0x0fffffff);
      return svc_->Set(key, Encode(key, version)).outcome ==
                     service::Outcome::kOk
                 ? Verdict::kOk
                 : Verdict::kFailed;
    }
    const service::RequestResult r = svc_->Get(key);
    if (r.outcome == service::Outcome::kOk) {
      return static_cast<uint64_t>(r.value) >> 32 == key ? Verdict::kOk
                                                          : Verdict::kWrong;
    }
    return r.outcome == service::Outcome::kMiss ? Verdict::kWrong
                                                : Verdict::kFailed;
  }

  // `issued` counts the clients' requests; the preload adds kSvcKeys.
  bool Oracle(uint64_t issued, std::string* why) {
    return svc_->stats().ConservationHolds(issued + kSvcKeys, why);
  }

  void ServiceCounts(uint64_t* shed, uint64_t* hedges) {
    const service::ServiceStats& st = svc_->stats();
    *shed = st.Count(service::Outcome::kShedDeadline) +
            st.Count(service::Outcome::kShedOverload);
    *hedges = st.hedges_fired.load(std::memory_order_relaxed);
  }

 private:
  static int64_t Encode(uint64_t key, uint64_t version) {
    return static_cast<int64_t>(key << 32 | version);
  }

  std::unique_ptr<Service> svc_ = std::make_unique<Service>(Config());
};

// --- the client loop -------------------------------------------------------

// The measured window is cut into kSlices equal slices; each end-to-end
// figure is the median over slices, so a host stall or a burst of
// interference from other tenants that covers fewer than half of the
// slices does not decide it (README.md).
inline constexpr int kSlices = 20;

// Traced runs keep every kSampleEvery-th request's spans, up to
// kMaxSamples per client, for the Chrome trace.
inline constexpr uint64_t kSampleEvery = 4096;
inline constexpr size_t kMaxSamples = 256;

struct ClientStats {
  std::vector<FineHistogram> slice_latency =
      std::vector<FineHistogram>(kSlices);  // ticks
  std::vector<uint64_t> slice_ops = std::vector<uint64_t>(kSlices);
  uint64_t issued = 0;  // every request, warm-up included
  uint64_t failed = 0;  // measured window
  uint64_t wrong = 0;   // any phase
  uint64_t cpu_ns = 0;  // thread CPU time over the measured window
  // Traced runs only (ticks).
  FineHistogram op;            // the call into the workload or service
  FineHistogram optilib_self;  // episode span minus body span
  FineHistogram body;          // the critical section's completed run
  FineHistogram service_self;  // request span minus episode span
  uint64_t episodes = 0;
  uint64_t body_runs = 0;
  std::vector<SampledOp> samples;
};

inline uint64_t SatSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

// Phase word the harness thread advances: -1 wait, 0 warm-up, 1..kSlices
// measured slice, kSlices + 1 stop.
template <bool kTraced, typename Sut>
void ClientLoop(Sut* sut, const std::vector<uint32_t>* stream, int client,
                const std::atomic<int>* phase, ClientStats* st) {
  const size_t n = stream->size();
  size_t i = 0;
  uint64_t seq = 0;
  int cur = 0;
  while ((cur = phase->load(std::memory_order_acquire)) < 0) {
    gosync::CpuPause();
  }
  uint64_t cpu0 = ThreadCpuNs();
  // Latency is stamp to stamp: the call plus the few nanoseconds of
  // bookkeeping between calls, with one clock read per request.
  uint64_t prev = Ticks();
  for (;;) {
    const int p = phase->load(std::memory_order_relaxed);
    if (p != cur) {
      if (cur == 0) {
        cpu0 = ThreadCpuNs();
      }
      if (p > kSlices) {
        break;
      }
      cur = p;
    }
    Verdict v;
    uint64_t now;
    if constexpr (kTraced) {
      t_spans = OpSpans{};
      const uint64_t start = Ticks();
      v = sut->Op((*stream)[i], client, seq);
      now = Ticks();
      if (cur > 0) {
        const OpSpans& s = t_spans;
        const uint64_t op = now - start;
        st->op.Record(op);
        if (s.episodes > 0) {
          st->optilib_self.Record(SatSub(s.episode_ticks, s.body_ticks));
          st->body.Record(s.body_ticks);
          if constexpr (Sut::kService) {
            st->service_self.Record(SatSub(op, s.episode_ticks));
          }
        }
        st->episodes += s.episodes;
        st->body_runs += s.body_runs;
        if (seq % kSampleEvery == 0 && st->samples.size() < kMaxSamples) {
          st->samples.push_back(SampledOp{
              static_cast<uint64_t>(client) << 40 | seq, client, start, now,
              s});
        }
      }
    } else {
      v = sut->Op((*stream)[i], client, seq);
      now = Ticks();
    }
    if (cur > 0) {
      st->slice_latency[static_cast<size_t>(cur - 1)].Record(now - prev);
      ++st->slice_ops[static_cast<size_t>(cur - 1)];
      st->failed += v != Verdict::kOk;
    }
    st->wrong += v == Verdict::kWrong;
    prev = now;
    ++seq;
    if (++i == n) {
      i = 0;
    }
  }
  st->cpu_ns = ThreadCpuNs() - cpu0;
  st->issued = seq;
}

// One closed-loop window: kClients clients, a warm-up, then kSlices
// measured slices. The client stats are allocated with the Window, so a
// caller can construct it before the program under test is set up and
// keep the harness's buffers out of the program's memory figure.
struct Window {
  // Medians over slices.
  double ops_per_s = 0.0;  // completed requests per wall second
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  uint64_t slice_samples = 0;  // median samples behind one slice's percentiles
  uint64_t attempted = 0;      // requests in the measured slices
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t issued = 0;
  double cpu_util = 0.0;  // client CPU-seconds per wall second
  double steal_s = 0.0;   // stolen from the host's CPUs in the window
  std::vector<double> slice_rates;  // per slice, for the log
  std::vector<double> slice_p50s;
  double ns_per_tick = 1.0;
  std::vector<ClientStats> clients = std::vector<ClientStats>(kClients);
};

// Runs `sut` and fills `*out`. `on_open` / `on_close` run on the harness
// thread at the edges of the measured window (counter snapshots).
template <bool kTraced, typename Sut, typename OnOpen, typename OnClose>
void RunWindow(Sut& sut, const std::vector<std::vector<uint32_t>>& streams,
               double warmup_s, double window_s, OnOpen&& on_open,
               OnClose&& on_close, Window* out) {
  using Clock = std::chrono::steady_clock;
  Window& w = *out;
  std::atomic<int> phase{-1};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    const size_t i = static_cast<size_t>(c);
    threads.emplace_back(&ClientLoop<kTraced, Sut>, &sut, &streams[i], c,
                         &phase, &w.clients[i]);
  }
  phase.store(0, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));

  on_open();
  std::vector<Stamp> marks{Stamp::Now()};
  const double steal0 = StealSeconds();
  const auto t0 = Clock::now();
  phase.store(1, std::memory_order_release);
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(window_s / kSlices));
  for (int s = 1; s <= kSlices; ++s) {
    std::this_thread::sleep_until(t0 + s * slice);
    marks.push_back(Stamp::Now());
    if (s == kSlices) {
      w.steal_s = StealSeconds() - steal0;
      on_close();
    }
    phase.store(s + 1, std::memory_order_release);
  }
  for (std::thread& t : threads) {
    t.join();
  }

  w.ns_per_tick = NsPerTick(marks.front(), marks.back());
  std::vector<double> rates, p50s, p99s, counts;
  for (size_t s = 0; s < kSlices; ++s) {
    const double slice_s =
        static_cast<double>(marks[s + 1].ns - marks[s].ns) * 1e-9;
    FineHistogram merged;
    uint64_t ops = 0;
    for (const ClientStats& st : w.clients) {
      merged.Merge(st.slice_latency[s]);
      ops += st.slice_ops[s];
    }
    rates.push_back(static_cast<double>(ops) / slice_s);
    p50s.push_back(merged.Quantile(0.50) * w.ns_per_tick);
    p99s.push_back(merged.Quantile(0.99) * w.ns_per_tick);
    counts.push_back(static_cast<double>(merged.Total()));
    w.attempted += ops;
  }
  w.slice_rates = rates;
  w.slice_p50s = p50s;
  w.ops_per_s = Median(rates);
  w.p50_ns = Median(p50s);
  w.p99_ns = Median(p99s);
  w.slice_samples = static_cast<uint64_t>(Median(counts));
  uint64_t cpu_ns = 0;
  for (const ClientStats& st : w.clients) {
    w.failed += st.failed;
    w.wrong += st.wrong;
    w.issued += st.issued;
    cpu_ns += st.cpu_ns;
  }
  w.cpu_util = static_cast<double>(cpu_ns) /
               static_cast<double>(marks.back().ns - marks.front().ns);
}

}  // namespace gocc::perfbench

#endif  // GOCC_PERFBENCH_WORKLOADS_H_
