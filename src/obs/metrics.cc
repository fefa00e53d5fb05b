#include "src/obs/metrics.h"

#include <atomic>
#include <cstdint>

#include "src/htm/abort.h"
#include "src/htm/stats.h"
#include "src/htm/swocc.h"
#include "src/obs/recorder.h"
#include "src/optilib/optilock.h"
#include "src/support/misuse.h"
#include "src/support/strings.h"

namespace gocc::obs {
namespace {

double Load(const support::ShardedCounter& counter) {
  return static_cast<double>(counter.load(std::memory_order_relaxed));
}

double Load(const std::atomic<uint64_t>& counter) {
  return static_cast<double>(counter.load(std::memory_order_relaxed));
}

Metric Counter1(const char* name, const char* help, double value) {
  Metric m;
  m.name = name;
  m.help = help;
  m.type = "counter";
  m.samples.push_back({"", value});
  return m;
}

Metric Gauge1(const char* name, const char* help, double value) {
  Metric m = Counter1(name, help, value);
  m.type = "gauge";
  return m;
}

std::string CodeLabel(htm::AbortCode code) {
  return StrFormat("code=\"%s\"", htm::AbortCodeName(code));
}

}  // namespace

std::vector<Metric> CollectRuntimeMetrics() {
  std::vector<Metric> out;
  optilib::OptiStats& opti = optilib::GlobalOptiStats();
  htm::TxStats& tx = htm::GlobalTxStats();

  // --- optiLib episode outcomes -------------------------------------------
  out.push_back(Counter1("gocc_opti_fast_commits_total",
                         "Episodes that committed on the HTM fast path.",
                         Load(opti.fast_commits)));
  out.push_back(Counter1(
      "gocc_opti_nested_fast_commits_total",
      "Nested elided sections subsumed into an enclosing transaction.",
      Load(opti.nested_fast_commits)));
  out.push_back(Counter1("gocc_opti_slow_acquires_total",
                         "Episodes that fell back to the original lock.",
                         Load(opti.slow_acquires)));
  out.push_back(Counter1("gocc_opti_htm_attempts_total",
                         "Hardware/software transaction begin attempts.",
                         Load(opti.htm_attempts)));

  // --- perceptron ----------------------------------------------------------
  out.push_back(Counter1("gocc_opti_perceptron_slow_decisions_total",
                         "Episodes the perceptron sent straight to the lock.",
                         Load(opti.perceptron_slow_decisions)));
  out.push_back(Counter1(
      "gocc_opti_perceptron_resets_total",
      "Perceptron cells reset by weight decay (slow-streak threshold).",
      Load(opti.perceptron_resets)));
  out.push_back(Counter1("gocc_opti_single_proc_bypasses_total",
                         "Episodes bypassed because GOMAXPROCS==1.",
                         Load(opti.single_proc_bypasses)));
  out.push_back(Counter1(
      "gocc_opti_mismatch_recoveries_total",
      "MutexMismatch aborts recovered by slow-path re-execution.",
      Load(opti.mismatch_recoveries)));

  // --- per-AbortCode episode histogram ------------------------------------
  {
    Metric m;
    m.name = "gocc_opti_episode_aborts_total";
    m.help = "Aborts delivered to episodes, by abort code.";
    m.type = "counter";
    for (int i = 1; i < htm::kNumAbortCodes; ++i) {
      const auto code = static_cast<htm::AbortCode>(i);
      m.samples.push_back(
          {CodeLabel(code), static_cast<double>(opti.EpisodeAborts(code))});
    }
    out.push_back(std::move(m));
  }

  // --- abort-storm hardening ----------------------------------------------
  out.push_back(Counter1("gocc_opti_backoff_waits_total",
                         "Backoff waits taken between conflict retries.",
                         Load(opti.backoff_waits)));
  out.push_back(Counter1("gocc_opti_backoff_pauses_total",
                         "Total pause-spins spent in backoff waits.",
                         Load(opti.backoff_pauses)));
  out.push_back(Counter1("gocc_opti_breaker_trips_total",
                         "Circuit-breaker cells tripped into quarantine.",
                         Load(opti.breaker_trips)));
  out.push_back(Counter1(
      "gocc_opti_breaker_short_circuits_total",
      "Episodes short-circuited to the lock by an open breaker cell.",
      Load(opti.breaker_short_circuits)));
  out.push_back(Counter1("gocc_opti_breaker_reprobes_total",
                         "Cooldown-expiry re-probes granted by the breaker.",
                         Load(opti.breaker_reprobes)));
  out.push_back(Counter1("gocc_opti_watchdog_trips_total",
                         "Process-wide watchdog trips into slow-only mode.",
                         Load(opti.watchdog_trips)));
  out.push_back(Counter1("gocc_opti_watchdog_bypasses_total",
                         "Episodes bypassed during a watchdog cooldown.",
                         Load(opti.watchdog_bypasses)));

  // --- per-site decision cache (DESIGN.md §4.11) ---------------------------
  out.push_back(Counter1("gocc_opti_site_cache_hits_total",
                         "Episode decisions served from the per-site cache.",
                         Load(opti.site_cache_hits)));
  out.push_back(Counter1("gocc_opti_site_cache_installs_total",
                         "Verdicts installed into the per-site cache.",
                         Load(opti.site_cache_installs)));
  out.push_back(Counter1(
      "gocc_opti_site_cache_invalidations_total",
      "Cached verdicts evicted after a refuting episode outcome.",
      Load(opti.site_cache_invalidations)));

  // --- sw-OCC hardening and RTM health (DESIGN.md §4.10) -------------------
  out.push_back(Counter1(
      "gocc_opti_occ_fallbacks_total",
      "Episodes that exhausted the sw-OCC validation-retry budget.",
      Load(opti.occ_fallbacks)));
  out.push_back(Counter1(
      "gocc_opti_rtm_demotions_total",
      "RTM health re-probes that demoted the global backend to software.",
      Load(opti.rtm_demotions)));

  // --- multi-lock episodes (DESIGN.md §4.12) -------------------------------
  out.push_back(Counter1("gocc_opti_multilock_episodes_total",
                         "WithLocks episodes over two or more distinct locks.",
                         Load(opti.multilock_episodes)));
  out.push_back(Counter1(
      "gocc_opti_multilock_fast_commits_total",
      "Multi-lock episodes that committed the whole set elided.",
      Load(opti.multilock_fast_commits)));
  out.push_back(Counter1(
      "gocc_opti_multilock_slow_acquires_total",
      "Multi-lock episodes that ended on the sorted pessimistic path.",
      Load(opti.multilock_slow_acquires)));
  out.push_back(Counter1(
      "gocc_opti_multilock_aborts_unattributed_total",
      "Multi-lock aborts that no member's version word explains.",
      Load(opti.multilock_aborts_unattributed)));
  {
    Metric m;
    m.name = "gocc_opti_multilock_abort_member_total";
    m.help = "Multi-lock aborts blamed on a member, by sorted member index.";
    m.type = "counter";
    for (int i = 0; i < optilib::OptiLock::kMaxLockSet; ++i) {
      m.samples.push_back({StrFormat("member=\"%d\"", i),
                           Load(opti.multilock_abort_member[i])});
    }
    out.push_back(std::move(m));
  }

  // --- lifecycle: unwind & misuse (DESIGN.md §4.9) -------------------------
  out.push_back(Counter1(
      "gocc_opti_unwind_cancels_total",
      "Fast-path episodes cancelled because an exception unwound through.",
      Load(opti.unwind_cancels)));
  out.push_back(Counter1(
      "gocc_opti_unwind_slow_unlocks_total",
      "Slow-path episodes whose lock was released during exception unwind.",
      Load(opti.unwind_slow_unlocks)));
  {
    Metric m;
    m.name = "gocc_opti_misuse_total";
    m.help = "API misuse occurrences detected and recovered, by kind.";
    m.type = "counter";
    for (int i = 0; i < support::kNumMisuseKinds; ++i) {
      const auto kind = static_cast<support::MisuseKind>(i);
      m.samples.push_back(
          {StrFormat("kind=\"%s\"", support::MisuseKindName(kind)),
           static_cast<double>(support::MisuseCount(kind))});
    }
    out.push_back(std::move(m));
  }

  // --- TM substrate --------------------------------------------------------
  out.push_back(Counter1("gocc_tx_begins_total",
                         "Transactions begun (outermost only).",
                         Load(tx.begins)));
  out.push_back(Counter1("gocc_tx_commits_total",
                         "Transactions committed.", Load(tx.commits)));
  out.push_back(Counter1("gocc_tx_read_only_commits_total",
                         "Commits whose write set was empty.",
                         Load(tx.read_only_commits)));
  {
    Metric m;
    m.name = "gocc_tx_aborts_total";
    m.help = "Substrate aborts, by abort code.";
    m.type = "counter";
    for (int i = 1; i < htm::kNumAbortCodes; ++i) {
      const auto code = static_cast<htm::AbortCode>(i);
      m.samples.push_back(
          {CodeLabel(code), static_cast<double>(tx.Aborts(code))});
    }
    out.push_back(std::move(m));
  }

  // --- sw-OCC version words (DESIGN.md §4.10) ------------------------------
  const htm::SwOccWordStats& words = htm::GlobalSwOccWordStats();
  out.push_back(Counter1(
      "gocc_swocc_writer_waits_total",
      "Pessimistic acquirers that spun on a word held by an OCC committer.",
      Load(words.writer_waits)));
  out.push_back(Counter1(
      "gocc_swocc_writer_pending_sets_total",
      "Starved acquirers that raised the writer-pending flag.",
      Load(words.writer_pending_sets)));
  out.push_back(Counter1("gocc_swocc_occ_publishes_total",
                         "Read-write OCC commits published through a word.",
                         Load(words.occ_publishes)));

  // --- episode clock & recorder -------------------------------------------
  out.push_back(Gauge1(
      "gocc_opti_episode_clock_frontier",
      "Next unclaimed tick of the process-wide episode clock.",
      static_cast<double>(optilib::EpisodeClockFrontier())));
  out.push_back(Counter1(
      "gocc_obs_trace_events_recorded_total",
      "Episode trace events recorded since the last drain (all rings).",
      static_cast<double>(TraceEventsRecorded())));
  out.push_back(Gauge1("gocc_obs_trace_rings",
                       "Per-thread trace rings ever registered.",
                       static_cast<double>(TraceRingCount())));
  out.push_back(Gauge1("gocc_obs_sites",
                       "Lock sites registered for episode attribution.",
                       static_cast<double>(SiteCount())));
  return out;
}

std::string RenderPrometheus(const std::vector<Metric>& metrics) {
  std::string out;
  for (const Metric& metric : metrics) {
    out += StrFormat("# HELP %s %s\n", metric.name.c_str(),
                     metric.help.c_str());
    out += StrFormat("# TYPE %s %s\n", metric.name.c_str(), metric.type);
    for (const MetricSample& sample : metric.samples) {
      if (sample.labels.empty()) {
        out += StrFormat("%s %.17g\n", metric.name.c_str(), sample.value);
      } else {
        out += StrFormat("%s{%s} %.17g\n", metric.name.c_str(),
                         sample.labels.c_str(), sample.value);
      }
    }
  }
  return out;
}

std::string PrometheusSnapshot() {
  return RenderPrometheus(CollectRuntimeMetrics());
}

}  // namespace gocc::obs
