#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

#include "src/htm/config.h"
#include "src/htm/stats.h"
#include "src/optilib/optilock.h"
#include "src/support/env.h"
#include "src/support/stats.h"
#include "src/support/strings.h"

#ifndef GOCC_REPO_ROOT
#define GOCC_REPO_ROOT "."
#endif

// Build-tier identity (set by CMake; defaults cover ad-hoc compiles).
#ifndef GOCC_BUILD_TIER
#define GOCC_BUILD_TIER "adhoc"
#endif
#ifndef GOCC_BUILD_LTO
#define GOCC_BUILD_LTO 0
#endif
#ifndef GOCC_BUILD_PGO
#define GOCC_BUILD_PGO 0
#endif

namespace gocc::bench {

namespace {

// Probe once: measured sections run on real RTM when the hardware commits
// transactions, otherwise on the GOCC_BACKEND software backend.
// GOCC_BACKEND=sim refuses the RTM switch — committed baselines and the
// perf-smoke CI gate set it so numbers never silently flip backend on hosts
// whose TSX passes the probe but aborts under sustained load.
bool UseRtm() {
  static const bool rtm = htm::EnableRtmIfSupported();
  return rtm;
}

JsonReport* g_active_report = nullptr;

void AppendCellRecord(const std::string& benchmark, const std::string& mode,
                      int threads, const gopool::BenchResult& r) {
  if (g_active_report == nullptr) {
    return;
  }
  JsonRecord rec;
  rec.benchmark = benchmark;
  rec.mode = mode;
  rec.section = "measured";
  rec.threads = threads;
  rec.ns_per_op = r.ns_per_op;
  rec.ops_per_sec = r.ns_per_op > 0.0 ? 1e9 / r.ns_per_op : 0.0;
  rec.total_ops = r.total_ops;
  AppendRuntimeCounters(&rec.counters);
  g_active_report->Add(std::move(rec));
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Formats doubles compactly without locale surprises; integers stay
// integral so committed baselines diff cleanly.
std::string JsonNumber(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v < 1e15 && v > -1e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.4f", v);
}

}  // namespace

void ResetRuntimeState() {
  if (!UseRtm()) {
    // GOCC_BACKEND-respecting: "swocc" benches the software-OCC tier with
    // the same binaries and baselines (sim remains the default).
    htm::ForceSoftwareBackend();
  }
  htm::GlobalTxStats().Reset();
  optilib::GlobalOptiStats().Reset();
  optilib::GlobalPerceptron().Reset();
  optilib::ResetHardeningState();
}

void PrintRuntimeStats() {
  std::printf("  optiLib: %s\n",
              optilib::GlobalOptiStats().ToString().c_str());
  std::printf("  tm:      %s\n", htm::GlobalTxStats().ToString().c_str());
}

int EnvInt(const char* name, int def, int lo, int hi) {
  return static_cast<int>(support::EnvInt(name, def, lo, hi));
}

double EnvDouble(const char* name, double def, double lo, double hi) {
  const char* value = support::EnvRaw(name);
  if (value == nullptr || *value == '\0') {
    return def;
  }
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  const std::string def_str = StrFormat("%g", def);
  if (end == value || *end != '\0') {
    support::WarnBadEnv(name, value, "not_a_number", def_str.c_str());
    return def;
  }
  if (!(parsed >= lo && parsed <= hi)) {  // NaN fails both
    support::WarnBadEnv(name, value, "out_of_range", def_str.c_str());
    return def;
  }
  return parsed;
}

void AppendRuntimeCounters(std::vector<std::pair<std::string, double>>* out) {
  const auto& os = optilib::GlobalOptiStats();
  const auto& ts = htm::GlobalTxStats();
  auto add = [out](const char* name, uint64_t v) {
    out->emplace_back(name, static_cast<double>(v));
  };
  add("fast_commits", os.fast_commits.load());
  add("nested_fast_commits", os.nested_fast_commits.load());
  add("slow_acquires", os.slow_acquires.load());
  add("htm_attempts", os.htm_attempts.load());
  add("perceptron_slow_decisions", os.perceptron_slow_decisions.load());
  add("tm_begins", ts.begins.load());
  add("tm_commits", ts.commits.load());
  add("tm_aborts", ts.TotalAborts());
  // Multi-lock episode counters (only present once a bench ran WithLocks;
  // omitted from the record when zero so single-lock baselines are
  // byte-identical to their pre-multilock form).
  if (uint64_t ep = os.multilock_episodes.load(); ep > 0) {
    add("multilock_episodes", ep);
    add("multilock_fast_commits", os.multilock_fast_commits.load());
    add("multilock_slow_acquires", os.multilock_slow_acquires.load());
    add("multilock_unattributed_aborts",
        os.multilock_aborts_unattributed.load());
  }
}

JsonReport::JsonReport(const std::string& bench_name) : name_(bench_name) {
  const char* dir = std::getenv("GOCC_BENCH_JSON_DIR");
  std::string base = (dir != nullptr && *dir != '\0') ? dir : GOCC_REPO_ROOT;
  path_ = base + "/BENCH_" + name_ + ".json";
  // Stamp the build tier: a number measured under release-pgo is not
  // comparable to one from the plain release tier, and the artifact must
  // say which produced it (CMake injects these; see the root CMakeLists).
  Config("build.tier", GOCC_BUILD_TIER);
  Config("build.lto", static_cast<double>(GOCC_BUILD_LTO));
  Config("build.pgo", static_cast<double>(GOCC_BUILD_PGO));
  // Snapshot every active GOCC_* knob into the config block: a committed
  // BENCH_*.json is only comparable to another run if both carry the same
  // backend/chaos/policy environment, and the knobs that shaped a run are
  // otherwise invisible in the artifact.
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const char* entry = *env;
    if (std::strncmp(entry, "GOCC_", 5) != 0) {
      continue;
    }
    const char* eq = std::strchr(entry, '=');
    if (eq == nullptr) {
      continue;
    }
    Config("env." + std::string(entry, eq - entry), std::string(eq + 1));
  }
  g_active_report = this;
}

JsonReport::~JsonReport() {
  if (g_active_report == this) {
    g_active_report = nullptr;
  }
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << JsonEscape(name_) << "\",\n";
  out << "  \"config\": {";
  for (size_t i = 0; i < config_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "    \"" << JsonEscape(config_[i].first)
        << "\": " << config_[i].second;
  }
  out << (config_.empty() ? "},\n" : "\n  },\n");
  out << "  \"records\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const JsonRecord& r = records_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"benchmark\": \"" << JsonEscape(r.benchmark)
        << "\", \"mode\": \"" << JsonEscape(r.mode) << "\", \"section\": \""
        << JsonEscape(r.section) << "\", \"threads\": " << r.threads
        << ", \"ns_per_op\": " << JsonNumber(r.ns_per_op)
        << ", \"ops_per_sec\": " << JsonNumber(r.ops_per_sec)
        << ", \"total_ops\": " << r.total_ops;
    if (r.p99_ns > 0.0) {
      out << ", \"p50_ns\": " << JsonNumber(r.p50_ns)
          << ", \"p99_ns\": " << JsonNumber(r.p99_ns);
      if (r.p999_ns > 0.0) {
        out << ", \"p999_ns\": " << JsonNumber(r.p999_ns);
      }
    }
    if (!r.counters.empty()) {
      out << ", \"counters\": {";
      for (size_t c = 0; c < r.counters.size(); ++c) {
        if (c != 0) {
          out << ", ";
        }
        out << "\"" << JsonEscape(r.counters[c].first)
            << "\": " << JsonNumber(r.counters[c].second);
      }
      out << "}";
    }
    out << "}";
  }
  out << (records_.empty() ? "]\n}\n" : "\n  ]\n}\n");

  std::ofstream f(path_);
  if (!f) {
    std::fprintf(stderr, "JsonReport: cannot write %s\n", path_.c_str());
    return;
  }
  f << out.str();
  std::printf("\n[json] wrote %s (%zu records)\n", path_.c_str(),
              records_.size());
}

void JsonReport::Config(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += JsonEscape(value);
  quoted += '"';
  config_.emplace_back(key, std::move(quoted));
}

void JsonReport::Config(const std::string& key, double value) {
  config_.emplace_back(key, JsonNumber(value));
}

void JsonReport::Add(JsonRecord record) {
  records_.push_back(std::move(record));
}

JsonReport* JsonReport::Active() { return g_active_report; }

LatencySummary PercentileRecorder::Summarize() const {
  support::LatencyHistogram merged;
  for (const auto& h : hists_) {
    merged.Merge(h);
  }
  LatencySummary s;
  s.samples = merged.TotalCount();
  if (s.samples > 0) {
    s.p50_ns = static_cast<double>(merged.P50());
    s.p99_ns = static_cast<double>(merged.P99());
    s.p999_ns = static_cast<double>(merged.P999());
  }
  return s;
}

void PercentileRecorder::Fill(const LatencySummary& s, JsonRecord* rec) {
  if (s.samples == 0) {
    return;
  }
  rec->p50_ns = s.p50_ns;
  rec->p99_ns = s.p99_ns;
  rec->p999_ns = s.p999_ns;
}

bool JsonLookupNumber(const std::string& text, const std::string& key,
                      double* out) {
  std::string needle = "\"" + key + "\":";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  pos += needle.size();
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
    ++pos;
  }
  char* end = nullptr;
  double v = std::strtod(text.c_str() + pos, &end);
  if (end == text.c_str() + pos) {
    return false;
  }
  *out = v;
  return true;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream f(path);
  if (!f) {
    out->clear();
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

void RunMeasured(const std::string& figure,
                 const std::vector<MeasuredCase>& cases,
                 const std::vector<int>& thread_counts,
                 std::chrono::milliseconds window) {
  unsigned hw = std::thread::hardware_concurrency();
  ResetRuntimeState();
  const char* backend = htm::BackendName(htm::ActiveBackend());
  if (JsonReport* report = JsonReport::Active()) {
    report->Config("backend", backend);
  }
  std::printf("\n[measured] %s — real optiLib runtime (%s backend)\n",
              figure.c_str(), backend);
  const bool oversubscribed =
      std::any_of(thread_counts.begin(), thread_counts.end(),
                  [hw](int threads) { return threads > static_cast<int>(hw); });
  if (oversubscribed) {
    std::printf(
        "  NOTE: host has %u hardware thread(s); cells with more threads "
        "time-share,\n  so their wall-clock scaling is not meaningful — see "
        "the [simulated]\n  section for scaling shapes. This section "
        "validates the runtime end to end.\n  On the software backends "
        "(SimTM, sw-OCC) the GOCC column additionally pays\n  per-access "
        "instrumentation (~10ns) that real RTM does not.\n",
        hw);
  }
  std::printf("  %-24s %8s %12s %12s %10s\n", "benchmark", "threads",
              "lock ns/op", "GOCC ns/op", "speedup");

  for (const MeasuredCase& benchmark : cases) {
    for (int threads : thread_counts) {
      ResetRuntimeState();
      auto lock_body = benchmark.make_lock_body();
      gopool::BenchResult lock =
          gopool::RunParallel(threads, window, lock_body);
      AppendCellRecord(benchmark.name, "lock", threads, lock);

      ResetRuntimeState();
      auto elided_body = benchmark.make_elided_body();
      gopool::BenchResult elided =
          gopool::RunParallel(threads, window, elided_body);
      AppendCellRecord(benchmark.name, "gocc", threads, elided);

      std::printf("  %-24s %8d %12.2f %12.2f %+9.1f%%\n",
                  benchmark.name.c_str(), threads, lock.ns_per_op,
                  elided.ns_per_op,
                  SpeedupPercent(lock.ns_per_op, elided.ns_per_op));
    }
  }
  PrintRuntimeStats();
}

void RunSimulated(const std::string& figure,
                  const std::vector<SimCase>& cases,
                  const std::vector<int>& core_counts,
                  bool with_perceptron) {
  // Model the elision tier that is actually active: with GOCC_BACKEND=swocc
  // the GOCC column carries the software-OCC cost profile (higher software
  // begin/commit, RMW-free read path, occ-word CAS serializing writers,
  // bounded validation retries) instead of the HTM one.
  const bool swocc = htm::ActiveBackend() == htm::Backend::kSwOcc;
  const sim::RunMode elided_mode =
      swocc ? sim::RunMode::kSwOcc
            : (with_perceptron ? sim::RunMode::kElided
                               : sim::RunMode::kElidedNoPerceptron);
  std::printf("\n[simulated] %s — DES concurrency-cost model (8-core "
              "machine model%s)\n",
              figure.c_str(), swocc ? ", sw-OCC elision tier" : "");
  std::printf("  %-24s %6s %12s %12s %10s %10s\n", "benchmark", "cores",
              "lock ns/op", "GOCC ns/op", "speedup", "aborts/op");

  for (const SimCase& benchmark : cases) {
    for (int cores : core_counts) {
      sim::SimResult lock = sim::Simulate(benchmark.scenario, cores,
                                          sim::RunMode::kLockBaseline);
      sim::SimResult htm =
          sim::Simulate(benchmark.scenario, cores, elided_mode);
      double aborts_per_op =
          htm.total_ops > 0
              ? static_cast<double>(htm.htm_aborts) /
                    static_cast<double>(htm.total_ops)
              : 0.0;
      if (JsonReport* report = JsonReport::Active()) {
        auto record = [&](const char* mode, const sim::SimResult& r) {
          JsonRecord rec;
          rec.benchmark = benchmark.name;
          rec.mode = mode;
          rec.section = "simulated";
          rec.threads = cores;
          rec.ns_per_op = r.ns_per_op;
          rec.ops_per_sec = r.ns_per_op > 0.0 ? 1e9 / r.ns_per_op : 0.0;
          rec.total_ops = r.total_ops;
          rec.counters.emplace_back("htm_aborts",
                                    static_cast<double>(r.htm_aborts));
          report->Add(std::move(rec));
        };
        record("sim-lock", lock);
        record(swocc ? "sim-swocc"
                     : (with_perceptron ? "sim-gocc" : "sim-gocc-np"),
               htm);
      }
      std::printf("  %-24s %6d %12.2f %12.2f %+9.1f%% %10.3f\n",
                  benchmark.name.c_str(), cores, lock.ns_per_op,
                  htm.ns_per_op,
                  SpeedupPercent(lock.ns_per_op, htm.ns_per_op),
                  aborts_per_op);
    }
  }
}

}  // namespace gocc::bench
