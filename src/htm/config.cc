#include "src/htm/config.h"

#include <cstring>

#include "src/htm/rtm_backend.h"
#include "src/support/env.h"

namespace gocc::htm {

namespace internal {

std::atomic<Backend> g_backend{Backend::kSim};

}  // namespace internal

namespace {

// Resolves GOCC_BACKEND once. "swocc" selects the software-OCC backend;
// "sim" (or unset) the SimTM backend; "rtm" leaves the software default at
// kSim and lets EnableRtmIfSupported decide. Anything else warns and falls
// back to kSim.
Backend ResolveSoftwareBackendOnce() {
  const char* raw = support::EnvRaw("GOCC_BACKEND");
  if (raw == nullptr || *raw == '\0' || std::strcmp(raw, "sim") == 0 ||
      std::strcmp(raw, "rtm") == 0) {
    return Backend::kSim;
  }
  if (std::strcmp(raw, "swocc") == 0) {
    return Backend::kSwOcc;
  }
  support::WarnBadEnv("GOCC_BACKEND", raw, "unknown_backend", "sim");
  return Backend::kSim;
}

Backend SoftwareBackend() {
  static const Backend kResolved = ResolveSoftwareBackendOnce();
  return kResolved;
}

// True when GOCC_BACKEND explicitly pins a software backend, which refuses
// the RTM switch even on capable hardware: the operational kill switch for
// suspected TSX errata, and how benchmarks keep one backend across hosts.
bool BackendPinnedSoftware() {
  const char* raw = support::EnvRaw("GOCC_BACKEND");
  return raw != nullptr &&
         (std::strcmp(raw, "sim") == 0 || std::strcmp(raw, "swocc") == 0);
}

// One-time install of the env-resolved software backend as the process
// default (runs before main via the static initializer below; re-running is
// harmless and keeps tests that reset the backend honest).
struct BackendEnvInit {
  BackendEnvInit() {
    internal::g_backend.store(SoftwareBackend(), std::memory_order_relaxed);
  }
} g_backend_env_init;

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kSim:
      return "sim";
    case Backend::kRtm:
      return "rtm";
    case Backend::kSwOcc:
      return "swocc";
  }
  return "unknown";
}

bool EnableRtmIfSupported() {
  if (!RtmCompiledIn()) {
    return false;
  }
  if (BackendPinnedSoftware()) {
    return false;
  }
  if (!RtmProbe()) {
    return false;
  }
  internal::g_backend.store(Backend::kRtm, std::memory_order_relaxed);
  return true;
}

void ForceSimBackend() {
  internal::g_backend.store(Backend::kSim, std::memory_order_relaxed);
}

void ForceSwOccBackend() {
  internal::g_backend.store(Backend::kSwOcc, std::memory_order_relaxed);
}

void ForceSoftwareBackend() {
  internal::g_backend.store(SoftwareBackend(), std::memory_order_relaxed);
}

Backend ResolvedSoftwareBackend() { return SoftwareBackend(); }

}  // namespace gocc::htm
