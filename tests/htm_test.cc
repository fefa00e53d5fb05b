// SimTM semantics: atomicity, isolation, abort codes, nesting, capacity,
// strong atomicity, fault injection.

#include <gtest/gtest.h>

#include <atomic>
#include <csetjmp>
#include <type_traits>

#include "src/htm/config.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/htm/tx.h"

namespace gocc::htm {
namespace {

// The data API takes cells only: a bare word has no version word beside it.
static_assert(!std::is_convertible_v<std::atomic<uint64_t>*, const TxCell*>);

// Runs `body` in a transaction, retrying on abort. Returns the number of
// aborts observed before the commit, or -1 if it never committed.
template <typename Fn>
int RunTx(Fn&& body, int max_tries = 64) {
  std::jmp_buf env;
  volatile int aborts = 0;
  while (aborts < max_tries) {
    BeginStatus status = GOCC_TX_BEGIN(env);
    if (!status.started) {
      aborts = aborts + 1;
      continue;
    }
    body();
    TxCommit();
    return aborts;
  }
  return -1;
}

class HtmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ForceSimBackend();
    MutableConfig() = TxConfig{};
    GlobalTxStats().Reset();
  }
};

TEST_F(HtmTest, SharedRoundTripOutsideTx) {
  Shared<int64_t> cell(5);
  EXPECT_EQ(cell.Load(), 5);
  cell.Store(-9);
  EXPECT_EQ(cell.Load(), -9);
  EXPECT_EQ(cell.Add(4), -5);
  EXPECT_EQ(cell.Load(), -5);
}

TEST_F(HtmTest, SharedHoldsDoublesAndPointers) {
  Shared<double> d(1.25);
  EXPECT_DOUBLE_EQ(d.Load(), 1.25);
  int x = 0;
  Shared<int*> p(&x);
  EXPECT_EQ(p.Load(), &x);
}

TEST_F(HtmTest, CommitPublishesWrites) {
  Shared<int64_t> a(1);
  Shared<int64_t> b(2);
  int aborts = RunTx([&] {
    a.Store(10);
    b.Store(a.Load() + 10);
  });
  EXPECT_EQ(aborts, 0);
  EXPECT_EQ(a.Load(), 10);
  EXPECT_EQ(b.Load(), 20);
}

TEST_F(HtmTest, ReadYourOwnWrite) {
  Shared<int64_t> a(1);
  RunTx([&] {
    a.Store(7);
    EXPECT_EQ(a.Load(), 7);
    a.Store(8);
    EXPECT_EQ(a.Load(), 8);
  });
  EXPECT_EQ(a.Load(), 8);
}

TEST_F(HtmTest, ExplicitAbortRollsBackBufferedWrites) {
  Shared<int64_t> a(1);
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    a.Store(99);
    TxAbort(AbortCode::kExplicit);
    FAIL() << "TxAbort returned";
  }
  EXPECT_EQ(status.abort_code, AbortCode::kExplicit);
  EXPECT_FALSE(InTx());
  EXPECT_EQ(a.Load(), 1);  // the write never became visible
}

TEST_F(HtmTest, AbortCodeLockHeldSurfaces) {
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    TxAbort(AbortCode::kLockHeld);
  }
  EXPECT_EQ(status.abort_code, AbortCode::kLockHeld);
  EXPECT_EQ(GlobalTxStats().Aborts(AbortCode::kLockHeld), 1u);
}

TEST_F(HtmTest, WriteCapacityAbort) {
  MutableConfig().write_capacity_lines = 4;
  std::vector<std::unique_ptr<Shared<int64_t>>> cells;
  for (int i = 0; i < 64; ++i) {
    cells.push_back(std::make_unique<Shared<int64_t>>(0));
  }
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    for (auto& c : cells) {
      c->Store(1);  // each heap cell lands on its own line eventually
    }
    TxCommit();
  }
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kCapacity);
  // Nothing was published.
  for (auto& c : cells) {
    EXPECT_EQ(c->Load(), 0);
  }
}

TEST_F(HtmTest, ReadCapacityAbort) {
  MutableConfig().read_capacity_lines = 4;
  std::vector<std::unique_ptr<Shared<int64_t>>> cells;
  for (int i = 0; i < 64; ++i) {
    cells.push_back(std::make_unique<Shared<int64_t>>(1));
  }
  std::jmp_buf env;
  volatile int64_t sum = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    int64_t local = 0;
    for (auto& c : cells) {
      local += c->Load();
    }
    sum = local;
    TxCommit();
  }
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kCapacity);
  EXPECT_EQ(sum, 0);
}

TEST_F(HtmTest, RepeatedAccessToOneCellDoesNotExhaustCapacity) {
  MutableConfig().write_capacity_lines = 2;
  MutableConfig().read_capacity_lines = 2;
  Shared<int64_t> a(0);
  int aborts = RunTx([&] {
    for (int i = 0; i < 10000; ++i) {
      a.Add(1);
    }
  });
  EXPECT_EQ(aborts, 0);
  EXPECT_EQ(a.Load(), 10000);
}

TEST_F(HtmTest, NestedCommitDefersToOutermost) {
  Shared<int64_t> a(0);
  std::jmp_buf outer_env;
  std::jmp_buf inner_env;
  BeginStatus outer = GOCC_TX_BEGIN(outer_env);
  ASSERT_TRUE(outer.started);
  a.Store(1);
  BeginStatus inner = GOCC_TX_BEGIN(inner_env);
  ASSERT_TRUE(inner.started);
  EXPECT_EQ(TxDepth(), 2);
  a.Store(2);
  TxCommit();  // inner: must not publish yet
  EXPECT_TRUE(InTx());
  // Not yet visible outside: check via the raw cell (relaxed read bypasses
  // the write buffer).
  EXPECT_EQ(a.LoadRelaxed(), 0);
  TxCommit();  // outermost: publishes everything
  EXPECT_FALSE(InTx());
  EXPECT_EQ(a.Load(), 2);
}

TEST_F(HtmTest, NestedAbortRollsBackToOutermost) {
  Shared<int64_t> a(0);
  std::jmp_buf outer_env;
  volatile bool aborted = false;
  BeginStatus outer = GOCC_TX_BEGIN(outer_env);
  if (outer.started) {
    a.Store(1);
    std::jmp_buf inner_env;
    BeginStatus inner = GOCC_TX_BEGIN(inner_env);
    ASSERT_TRUE(inner.started);
    a.Store(2);
    TxAbort(AbortCode::kExplicit);  // flattening: lands at the OUTER begin
    FAIL() << "unreachable";
  } else {
    aborted = true;
    EXPECT_EQ(outer.abort_code, AbortCode::kExplicit);
  }
  EXPECT_TRUE(aborted);
  EXPECT_EQ(a.Load(), 0);
  EXPECT_FALSE(InTx());
}

TEST_F(HtmTest, NonTxWriteInvalidatesWritingReaderAtCommit) {
  Shared<int64_t> a(0);
  Shared<int64_t> b(0);
  std::jmp_buf env;
  volatile int pass = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    (void)a.Load();  // subscribe (this is what FastLock does to a lock word)
    b.Store(1);      // make the transaction a writer so commit validates
    if (pass == 0) {
      pass = 1;
      // A "remote" strongly-atomic write to the subscribed cell (what a
      // slow-path mutex acquisition does to the subscribed lock word).
      CellGuardedUpdate(a.cell(), [&] {});
    }
    TxCommit();  // first pass must fail read-set validation
    EXPECT_EQ(pass, 1);
  } else {
    EXPECT_EQ(status.abort_code, AbortCode::kConflict);
    pass = 2;
  }
  EXPECT_EQ(pass, 2) << "commit after a conflicting non-tx write must abort";
}

// A read-only transaction serializes at its last read (every read re-checks
// all earlier ones, and a read-only commit validates nothing), so a remote
// write after that read does NOT abort it — the transaction simply
// serializes before the writer. This is what makes elided read-only
// critical sections conflict-free (§6.1).
TEST_F(HtmTest, ReadOnlyTxSerializesBeforeLaterRemoteWrite) {
  Shared<int64_t> a(7);
  std::jmp_buf env;
  volatile int64_t seen = -1;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    seen = a.Load();
    CellGuardedUpdate(a.cell(), [&] {});  // remote write after our read
    TxCommit();
  }
  EXPECT_TRUE(status.started);
  EXPECT_EQ(seen, 7);
}

// Zombie prevention: once a cell this transaction read has changed, the
// very next read — of any cell — must abort, not let the doomed transaction
// run on until commit with `a` stale and `b` fresh.
TEST_F(HtmTest, ReadAfterRemoteBumpAbortsEagerly) {
  Shared<int64_t> a(0);
  Shared<int64_t> b(0);
  std::jmp_buf env;
  volatile int state = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    if (state == 0) {
      (void)a.Load();
      state = 1;
      // A strongly-atomic remote write to the cell already read.
      CellGuardedUpdate(a.cell(), [&] { a.StoreRelaxedInit(1); });
      (void)b.Load();
      ADD_FAILURE() << "read after a remote write to the read set did not "
                       "abort";
    }
    TxCommit();
  } else {
    EXPECT_EQ(status.abort_code, AbortCode::kConflict);
    EXPECT_EQ(state, 1) << "the abort must come at the read of b";
    state = 2;
  }
  EXPECT_EQ(state, 2);
}

// With per-cell versions there is no begin-time read version, so a remote
// write that lands before the transaction's first read of the cell is no
// conflict: the read returns the new value and the transaction commits.
TEST_F(HtmTest, FirstReadAfterRemoteWriteCommitsWithNewValue) {
  Shared<int64_t> a(0);
  Shared<int64_t> out(0);
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  ASSERT_TRUE(status.started) << "a first read after a remote write aborted";
  CellGuardedUpdate(a.cell(), [&] { a.StoreRelaxedInit(5); });
  out.Store(a.Load());
  TxCommit();
  EXPECT_EQ(out.Load(), 5);
  EXPECT_EQ(GlobalTxStats().Aborts(AbortCode::kConflict), 0u);
}

// A subscribed lock word is its own read-set entry, checked by value: a
// holder's plain RMW on it (no cell involved) aborts the subscriber at its
// next read...
TEST_F(HtmTest, SubscribedWordChangeAbortsNextRead) {
  std::atomic<uint64_t> word{0};
  Shared<int64_t> b(0);
  std::jmp_buf env;
  volatile int state = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    if (state == 0) {
      EXPECT_EQ(TxSubscribe(&word), 0u);
      state = 1;
      word.fetch_add(4);  // a holder bumps the version
      (void)b.Load();
      ADD_FAILURE() << "read after the subscribed word changed did not abort";
    }
    TxCommit();
  } else {
    EXPECT_EQ(status.abort_code, AbortCode::kConflict);
    EXPECT_EQ(state, 1) << "the abort must come at the read of b";
    state = 2;
  }
  EXPECT_EQ(state, 2);
}

// ...and fails a writing commit that reads nothing more.
TEST_F(HtmTest, SubscribedWordChangeAbortsWritingCommit) {
  std::atomic<uint64_t> word{0};
  Shared<int64_t> b(0);
  std::jmp_buf env;
  volatile int state = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    EXPECT_EQ(TxSubscribe(&word), 0u);
    b.Store(1);
    state = 1;
    word.fetch_add(4);
    TxCommit();
    ADD_FAILURE() << "commit validated a changed subscribed word";
  } else {
    EXPECT_EQ(status.abort_code, AbortCode::kConflict);
    EXPECT_EQ(state, 1);
  }
  EXPECT_EQ(b.Load(), 0);
}

TEST_F(HtmTest, SpuriousAbortInjection) {
  MutableConfig().spurious_abort_probability = 1.0;
  Shared<int64_t> a(0);
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    a.Store(1);  // first access triggers the injected abort
    TxCommit();
    FAIL() << "expected spurious abort";
  }
  EXPECT_EQ(status.abort_code, AbortCode::kSpurious);
  EXPECT_EQ(a.LoadRelaxed(), 0);
}

TEST_F(HtmTest, StatsCountCommitsAndAborts) {
  Shared<int64_t> a(0);
  RunTx([&] { a.Store(1); });
  RunTx([&] { (void)a.Load(); });
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    TxAbort(AbortCode::kExplicit);
  }
  const TxStats& stats = GlobalTxStats();
  EXPECT_EQ(stats.commits.load(), 2u);
  EXPECT_EQ(stats.read_only_commits.load(), 1u);
  EXPECT_EQ(stats.Aborts(AbortCode::kExplicit), 1u);
  EXPECT_EQ(stats.begins.load(), 3u);
}

// Each cell carries its own version word: a guarded update bumps that word
// by exactly one version, releases it, and leaves the neighbouring cell's
// word alone.
TEST_F(HtmTest, StripeHelpers) {
  Shared<int64_t> cells[2];
  const uint64_t before = cells[0].cell()->version.load();
  const uint64_t neighbour = cells[1].cell()->version.load();
  CellGuardedUpdate(cells[0].cell(), [] {});
  const uint64_t after = cells[0].cell()->version.load();
  EXPECT_EQ(CellVersion(after), CellVersion(before) + 1);
  EXPECT_FALSE(CellIsLocked(after));
  EXPECT_EQ(cells[1].cell()->version.load(), neighbour);
}

// Two cells on one cache line do not alias: a commit to `b` between a
// transaction's read of `a` and its commit leaves that transaction's read
// set valid. (A hashed version table could map both to one word; per-cell
// words cannot.)
TEST_F(HtmTest, AdjacentCellsDoNotConflict) {
  struct alignas(64) Line {
    Shared<int64_t> a{0};
    Shared<int64_t> b{0};
  } line;
  ASSERT_EQ(reinterpret_cast<uintptr_t>(line.a.cell()) >> 6,
            reinterpret_cast<uintptr_t>(line.b.cell()) >> 6);
  Shared<int64_t> out(0);
  std::jmp_buf env;
  volatile int pass = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    pass = pass + 1;
    const int64_t seen = line.a.Load();
    if (pass == 1) {
      // A committed remote write to the adjacent cell.
      CellGuardedUpdate(line.b.cell(), [&] { line.b.StoreRelaxedInit(9); });
    }
    out.Store(seen + line.b.Load());
    TxCommit();
  }
  EXPECT_TRUE(status.started) << "a write to the adjacent cell aborted us";
  EXPECT_EQ(pass, 1);
  EXPECT_EQ(out.Load(), 9);
  EXPECT_EQ(GlobalTxStats().Aborts(AbortCode::kConflict), 0u);
}

// Transaction size sweep: commits must succeed right up to the capacity
// boundary and abort just past it.
class CapacityBoundary : public HtmTest,
                         public ::testing::WithParamInterface<int> {};

TEST_P(CapacityBoundary, WriteSetBoundaryIsExact) {
  const int cap = GetParam();
  MutableConfig().write_capacity_lines = static_cast<size_t>(cap);
  // Allocate cells 64B apart so each occupies its own line.
  struct alignas(64) Line {
    Shared<int64_t> cell;
  };
  std::vector<std::unique_ptr<Line>> lines;
  for (int i = 0; i < cap + 1; ++i) {
    lines.push_back(std::make_unique<Line>());
  }

  // Exactly `cap` distinct lines: commits.
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    for (int i = 0; i < cap; ++i) {
      lines[static_cast<size_t>(i)]->cell.Store(1);
    }
    TxCommit();
  }
  EXPECT_TRUE(status.started);

  // cap + 1 distinct lines: capacity abort.
  std::jmp_buf env2;
  BeginStatus status2 = GOCC_TX_BEGIN(env2);
  if (status2.started) {
    for (int i = 0; i < cap + 1; ++i) {
      lines[static_cast<size_t>(i)]->cell.Store(2);
    }
    TxCommit();
    FAIL() << "expected capacity abort";
  }
  EXPECT_EQ(status2.abort_code, AbortCode::kCapacity);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CapacityBoundary,
                         ::testing::Values(1, 2, 8, 32, 128));

}  // namespace
}  // namespace gocc::htm
