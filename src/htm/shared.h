// Shared<T>: a transactionally-accessed memory cell.
//
// Under real RTM, every load/store inside a transaction is versioned by the
// hardware, so Go code needs no annotations. SimTM cannot intercept raw
// loads, so shared data that critical sections touch lives in Shared<T>
// cells, whose accessors route through the active transaction's read/write
// sets (and degrade to atomics that respect the cell's version lock outside
// transactions). Each cell is a TxCell: the value plus its SimTM version
// word, 16 B on one cache line. This is the only API difference the
// software substitution imposes on workload code; see DESIGN.md §4.1.
//
// T must be trivially copyable and at most 8 bytes (int, pointer, double,
// small structs). Larger shared state is expressed as arrays of Shared
// cells or Shared pointers to immutable payloads — the same shapes the Go
// workloads use (interned value blobs, pointer-swizzled maps).

#ifndef GOCC_SRC_HTM_SHARED_H_
#define GOCC_SRC_HTM_SHARED_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "src/htm/tx.h"

namespace gocc::htm {

// A 16-B cell aligned to 16 B can never straddle a 64-B line: the version
// word SimTM validates always sits on the value's line.
static_assert(sizeof(TxCell) == 16 && alignof(TxCell) == 16,
              "a cell's version word and value must share one cache line");

template <typename T>
class Shared {
  static_assert(std::is_trivially_copyable_v<T>,
                "Shared<T> requires a trivially copyable T");
  static_assert(sizeof(T) <= sizeof(uint64_t),
                "Shared<T> cells hold at most 8 bytes");

 public:
  Shared() = default;
  explicit Shared(T initial) : cell_{0, Pack(initial)} {}

  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;

  // Transactional (or lock-respecting plain) load.
  T Load() const { return Unpack(TxLoad(&cell_)); }

  // Transactional (or strongly-atomic plain) store.
  void Store(T value) { TxStore(&cell_, Pack(value)); }

  // Read-modify-write inside the current transaction (or strongly atomic
  // outside one — note that outside a transaction this is NOT a single
  // atomic RMW; callers needing non-transactional RMW atomicity should hold
  // a lock, which is exactly the slow-path situation).
  template <typename Fn>
  T Update(Fn&& fn) {
    T next = fn(Load());
    Store(next);
    return next;
  }

  // Adds `delta` (arithmetic T only). For integral T this routes through the
  // fused TxFetchAdd — one write-set lookup and one validation instead of a
  // Load/Store pair (wrapping addition on zero-extended bits produces the
  // correct wrapped value in the low sizeof(T) bytes, so the bit-domain add
  // is exact for integers). Floating-point T takes the generic path.
  T Add(T delta) {
    static_assert(std::is_arithmetic_v<T>);
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      return Unpack(TxFetchAdd(&cell_, Pack(delta)));
    } else {
      return Update([delta](T v) { return static_cast<T>(v + delta); });
    }
  }

  // Direct unversioned access for initialization before the cell becomes
  // visible to concurrent code.
  void StoreRelaxedInit(T value) {
    cell_.value.store(Pack(value), std::memory_order_relaxed);
  }
  T LoadRelaxed() const {
    return Unpack(cell_.value.load(std::memory_order_relaxed));
  }

  // The underlying cell (used by tests to address its version word).
  TxCell* cell() { return &cell_; }

 private:
  static uint64_t Pack(T value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(T));
    return bits;
  }
  static T Unpack(uint64_t bits) {
    T value;
    std::memcpy(&value, &bits, sizeof(T));
    return value;
  }

  TxCell cell_;
};

static_assert(sizeof(Shared<int64_t>) == sizeof(TxCell));

}  // namespace gocc::htm

#endif  // GOCC_SRC_HTM_SHARED_H_
