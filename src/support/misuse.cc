#include "src/support/misuse.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "src/support/env.h"

namespace gocc::support {
namespace {

std::atomic<uint64_t> g_counts[kNumMisuseKinds] = {};
std::atomic<uint64_t> g_reported[kNumMisuseKinds] = {};
std::atomic<int> g_policy{-1};  // -1 = not yet resolved from the default

const char* PolicyName(MisusePolicy policy) {
  return policy == MisusePolicy::kAbortProcess ? "abort" : "recover";
}

}  // namespace

const char* MisuseKindName(MisuseKind kind) {
  switch (kind) {
    case MisuseKind::kDoubleFastLock:
      return "double-fast-lock";
    case MisuseKind::kUnpairedUnlock:
      return "unpaired-unlock";
    case MisuseKind::kCrossThreadUnlock:
      return "cross-thread-unlock";
    case MisuseKind::kWrongModeUnlock:
      return "wrong-mode-unlock";
    case MisuseKind::kMutexDestroyedInUse:
      return "mutex-destroyed-in-use";
    case MisuseKind::kRWMutexDestroyedInUse:
      return "rwmutex-destroyed-in-use";
    case MisuseKind::kElidedUseAfterDestroy:
      return "elided-use-after-destroy";
    case MisuseKind::kLockOrderInversion:
      return "lock-order-inversion";
  }
  return "unknown";
}

MisusePolicy DefaultMisusePolicy() {
  static const MisusePolicy kDefault = [] {
#ifdef NDEBUG
    MisusePolicy policy = MisusePolicy::kRecoverAndCount;
#else
    MisusePolicy policy = MisusePolicy::kAbortProcess;
#endif
    const char* value = EnvRaw("GOCC_MISUSE_POLICY");
    if (value != nullptr && *value != '\0') {
      if (std::string_view(value) == "abort") {
        policy = MisusePolicy::kAbortProcess;
      } else if (std::string_view(value) == "recover") {
        policy = MisusePolicy::kRecoverAndCount;
      } else {
        WarnBadEnv("GOCC_MISUSE_POLICY", value, "not_abort_or_recover",
                   PolicyName(policy));
      }
    }
    return policy;
  }();
  return kDefault;
}

MisusePolicy GetMisusePolicy() {
  int policy = g_policy.load(std::memory_order_relaxed);
  if (policy < 0) {
    MisusePolicy resolved = DefaultMisusePolicy();
    g_policy.store(static_cast<int>(resolved), std::memory_order_relaxed);
    return resolved;
  }
  return static_cast<MisusePolicy>(policy);
}

void SetMisusePolicy(MisusePolicy policy) {
  g_policy.store(static_cast<int>(policy), std::memory_order_relaxed);
}

void ReportMisuse(MisuseKind kind, MisusePolicy policy, const void* object,
                  const char* detail) {
  const int index = static_cast<int>(kind);
  g_counts[index].fetch_add(1, std::memory_order_relaxed);
  const uint64_t reported =
      g_reported[index].fetch_add(1, std::memory_order_relaxed);
  if (policy == MisusePolicy::kAbortProcess ||
      reported < kMisuseReportLimit) {
    std::fprintf(stderr,
                 "[gocc-misuse] kind=%s policy=%s object=%p detail=%s%s\n",
                 MisuseKindName(kind), PolicyName(policy), object,
                 detail == nullptr ? "" : detail,
                 reported + 1 == kMisuseReportLimit
                     ? " (further reports of this kind suppressed)"
                     : "");
  }
  if (policy == MisusePolicy::kAbortProcess) {
    std::abort();
  }
}

void ReportMisuse(MisuseKind kind, const void* object, const char* detail) {
  ReportMisuse(kind, GetMisusePolicy(), object, detail);
}

uint64_t MisuseCount(MisuseKind kind) {
  return g_counts[static_cast<int>(kind)].load(std::memory_order_relaxed);
}

uint64_t TotalMisuse() {
  uint64_t total = 0;
  for (const auto& count : g_counts) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

void ResetMisuseCounters() {
  for (int i = 0; i < kNumMisuseKinds; ++i) {
    g_counts[i].store(0, std::memory_order_relaxed);
    g_reported[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<uint64_t> MisuseCounts() {
  std::vector<uint64_t> counts(kNumMisuseKinds);
  for (int i = 0; i < kNumMisuseKinds; ++i) {
    counts[i] = g_counts[i].load(std::memory_order_relaxed);
  }
  return counts;
}

}  // namespace gocc::support
