// Software-TM semantics: atomicity, isolation, abort codes, nesting,
// capacity (at the constants kReadCapacityLines / kWriteCapacityLines),
// strong atomicity, fault injection. HtmTest runs on SimTM; every
// backend-neutral body also runs on sw-OCC as HtmSwOccTest.

#include <gtest/gtest.h>

#include <atomic>
#include <csetjmp>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/htm/swocc.h"
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

template <Backend kBackend>
class TxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (kBackend == Backend::kSwOcc) {
      ForceSwOccBackend();
    } else {
      ForceSimBackend();
    }
    GlobalTxStats().Reset();
  }
  void TearDown() override { fault::Disarm(); }
};

using HtmTest = TxTest<Backend::kSim>;
using HtmSwOccTest = TxTest<Backend::kSwOcc>;

// Defines a backend-neutral test body and registers it twice: as
// HtmTest.Name on SimTM and as HtmSwOccTest.Name on sw-OCC.
#define TX_TEST_BOTH_BACKENDS(Name)             \
  void Name##Body();                            \
  TEST_F(HtmTest, Name) { Name##Body(); }       \
  TEST_F(HtmSwOccTest, Name) { Name##Body(); }  \
  void Name##Body()

// The code a failed validation aborts with on the active backend.
AbortCode ValidationAbortCode() {
  return ActiveBackend() == Backend::kSwOcc ? AbortCode::kOccValidateFail
                                            : AbortCode::kConflict;
}

TX_TEST_BOTH_BACKENDS(SharedRoundTripOutsideTx) {
  Shared<int64_t> cell(5);
  EXPECT_EQ(cell.Load(), 5);
  cell.Store(-9);
  EXPECT_EQ(cell.Load(), -9);
  EXPECT_EQ(cell.Add(4), -5);
  EXPECT_EQ(cell.Load(), -5);
}

TX_TEST_BOTH_BACKENDS(SharedHoldsDoublesAndPointers) {
  Shared<double> d(1.25);
  EXPECT_DOUBLE_EQ(d.Load(), 1.25);
  int x = 0;
  Shared<int*> p(&x);
  EXPECT_EQ(p.Load(), &x);
}

TX_TEST_BOTH_BACKENDS(CommitPublishesWrites) {
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

TX_TEST_BOTH_BACKENDS(ReadYourOwnWrite) {
  Shared<int64_t> a(1);
  RunTx([&] {
    a.Store(7);
    EXPECT_EQ(a.Load(), 7);
    a.Store(8);
    EXPECT_EQ(a.Load(), 8);
  });
  EXPECT_EQ(a.Load(), 8);
}

TX_TEST_BOTH_BACKENDS(ExplicitAbortRollsBackBufferedWrites) {
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

TX_TEST_BOTH_BACKENDS(AbortCodeLockHeldSurfaces) {
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    TxAbort(AbortCode::kLockHeld);
  }
  EXPECT_EQ(status.abort_code, AbortCode::kLockHeld);
  EXPECT_EQ(GlobalTxStats().Aborts(AbortCode::kLockHeld), 1u);
}

// One cell per 64-B line, so each cell a transaction touches is a line.
struct alignas(64) Line {
  Shared<int64_t> cell;
};

// Four 16-B cells share each 64-B line, so a transaction's entries pass a
// line capacity long before its lines do.
struct alignas(64) PackedLine {
  Shared<int64_t> cells[4];
};
static_assert(sizeof(PackedLine) == 64);

// One line past the write capacity aborts on either backend (SimTM counts
// the lines, sw-OCC the cells) and publishes nothing.
TX_TEST_BOTH_BACKENDS(WriteCapacityAbort) {
  std::vector<Line> lines(kWriteCapacityLines + 1);
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    for (Line& l : lines) {
      l.cell.Store(1);
    }
    TxCommit();
  }
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kCapacity);
  for (Line& l : lines) {
    EXPECT_EQ(l.cell.Load(), 0);
  }
}

TEST_F(HtmTest, ReadCapacityAbort) {
  std::vector<Line> lines(kReadCapacityLines + 1);
  for (Line& l : lines) {
    l.cell.Store(1);
  }
  std::jmp_buf env;
  volatile int64_t sum = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    int64_t local = 0;
    for (Line& l : lines) {
      local += l.cell.Load();
    }
    sum = local;
    TxCommit();
  }
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kCapacity);
  EXPECT_EQ(sum, 0);
}

// SimTM's read capacity counts distinct lines: a second cell read on each
// of the first few lines takes the entries past kReadCapacityLines while
// the lines stay at it, and the transaction commits; the abort fires at
// exactly the read that touches one line more (the count of completed reads
// lives outside the rollback).
TEST_F(HtmTest, ReadCapacityCountsLines) {
  constexpr size_t kDoubled = 8;  // lines read at two cells
  std::vector<PackedLine> lines(kReadCapacityLines + 1);
  for (PackedLine& l : lines) {
    l.cells[0].Store(1);
    l.cells[1].Store(1);
  }
  constexpr auto kWithin = static_cast<int64_t>(kReadCapacityLines + kDoubled);
  int64_t sum = 0;
  EXPECT_EQ(RunTx([&] {
              int64_t local = 0;
              for (size_t l = 0; l < kReadCapacityLines; ++l) {
                local += lines[l].cells[0].Load();
                if (l < kDoubled) {
                  local += lines[l].cells[1].Load();
                }
              }
              sum = local;
            }),
            0);
  EXPECT_EQ(sum, kWithin);
  EXPECT_EQ(GlobalTxStats().Aborts(AbortCode::kCapacity), 0u);

  volatile int64_t completed = 0;
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    for (size_t l = 0; l < kReadCapacityLines; ++l) {
      (void)lines[l].cells[0].Load();
      completed = completed + 1;
      if (l < kDoubled) {
        (void)lines[l].cells[1].Load();
        completed = completed + 1;
      }
    }
    (void)lines[kReadCapacityLines].cells[0].Load();
    completed = completed + 1;
    TxCommit();
  }
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kCapacity);
  EXPECT_EQ(completed, kWithin);
}

// The same bound on the write side: every cell of kWriteCapacityLines
// packed lines (four entries per line) commits; one more cell on a fresh
// line aborts at that store and publishes nothing.
TEST_F(HtmTest, WriteCapacityCountsLines) {
  std::vector<PackedLine> lines(kWriteCapacityLines + 1);
  EXPECT_EQ(RunTx([&] {
              for (size_t l = 0; l < kWriteCapacityLines; ++l) {
                for (Shared<int64_t>& c : lines[l].cells) {
                  c.Store(7);
                }
              }
            }),
            0);
  EXPECT_EQ(GlobalTxStats().Aborts(AbortCode::kCapacity), 0u);

  volatile int64_t completed = 0;
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    for (size_t l = 0; l < kWriteCapacityLines; ++l) {
      for (Shared<int64_t>& c : lines[l].cells) {
        c.Store(9);
        completed = completed + 1;
      }
    }
    lines[kWriteCapacityLines].cells[0].Store(9);
    completed = completed + 1;
    TxCommit();
  }
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kCapacity);
  EXPECT_EQ(completed, static_cast<int64_t>(4 * kWriteCapacityLines));
  for (size_t l = 0; l < kWriteCapacityLines; ++l) {
    for (Shared<int64_t>& c : lines[l].cells) {
      EXPECT_EQ(c.Load(), 7);
    }
  }
  EXPECT_EQ(lines[kWriteCapacityLines].cells[0].Load(), 0);
}

// sw-OCC's write capacity counts cells, whatever lines they share:
// kWriteCapacityLines cells packed four to a line commit, and the next
// distinct cell aborts.
TEST_F(HtmSwOccTest, WriteCapacityCountsCells) {
  std::vector<PackedLine> lines(kWriteCapacityLines / 4 + 1);
  auto cell = [&](size_t i) -> Shared<int64_t>& {
    return lines[i / 4].cells[i % 4];
  };
  EXPECT_EQ(RunTx([&] {
              for (size_t i = 0; i < kWriteCapacityLines; ++i) {
                cell(i).Store(7);
              }
            }),
            0);

  volatile int64_t completed = 0;
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    for (size_t i = 0; i <= kWriteCapacityLines; ++i) {
      cell(i).Store(9);
      completed = completed + 1;
    }
    TxCommit();
  }
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kCapacity);
  EXPECT_EQ(completed, static_cast<int64_t>(kWriteCapacityLines));
  for (size_t i = 0; i < kWriteCapacityLines; ++i) {
    EXPECT_EQ(cell(i).Load(), 7);
  }
  EXPECT_EQ(cell(kWriteCapacityLines).Load(), 0);
}

TX_TEST_BOTH_BACKENDS(RepeatedAccessToOneCellDoesNotExhaustCapacity) {
  Shared<int64_t> a(0);
  int aborts = RunTx([&] {
    for (int i = 0; i < 10000; ++i) {
      a.Add(1);
    }
  });
  EXPECT_EQ(aborts, 0);
  EXPECT_EQ(a.Load(), 10000);
}

TX_TEST_BOTH_BACKENDS(NestedCommitDefersToOutermost) {
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

TX_TEST_BOTH_BACKENDS(NestedAbortRollsBackToOutermost) {
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
      CellGuardedUpdate(a.cell(), 0);
    }
    TxCommit();  // first pass must fail read-set validation
    EXPECT_EQ(pass, 1);
  } else {
    EXPECT_EQ(status.abort_code, AbortCode::kConflict);
    pass = 2;
  }
  EXPECT_EQ(pass, 2) << "commit after a conflicting non-tx write must abort";
}

// A read-modify-write over many cells: every read entry of a written cell
// has moved by commit time (the commit holds its lock), and the commit must
// match each to the lock it took at the version first read. A depth-0
// store to one of those cells between the read and the commit still fails
// validation.
TEST_F(HtmTest, WideReadModifyWriteCommitsExactlyAndCatchesARemoteStore) {
  constexpr int kCells = 300;
  auto cells = std::make_unique<Shared<int64_t>[]>(kCells);
  for (int i = 0; i < kCells; ++i) {
    cells[i].Store(i);
  }
  EXPECT_EQ(RunTx([&] {
              for (int i = kCells - 1; i >= 0; --i) {  // unsorted write set
                cells[i].Store(cells[i].Load() + 1000);
              }
            }),
            0);
  for (int i = 0; i < kCells; ++i) {
    ASSERT_EQ(cells[i].Load(), i + 1000) << "cell " << i;
  }

  constexpr int kVictim = kCells / 2 + 1;
  std::jmp_buf env;
  volatile int pass = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    pass = pass + 1;
    for (int i = 0; i < kCells; ++i) {
      cells[i].Store(cells[i].Load() + 1);
    }
    CellGuardedUpdate(cells[kVictim].cell(), -5);
    TxCommit();
  }
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kConflict);
  EXPECT_EQ(pass, 1);
  EXPECT_EQ(GlobalTxStats().Aborts(AbortCode::kConflict), 1u);
  for (int i = 0; i < kCells; ++i) {
    ASSERT_EQ(cells[i].Load(), i == kVictim ? -5 : i + 1000) << "cell " << i;
  }
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
    CellGuardedUpdate(a.cell(), 7);  // remote write after our read
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
      CellGuardedUpdate(a.cell(), 1);
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
  CellGuardedUpdate(a.cell(), 5);
  out.Store(a.Load());
  TxCommit();
  EXPECT_EQ(out.Load(), 5);
  EXPECT_EQ(GlobalTxStats().Aborts(AbortCode::kConflict), 0u);
}

// A subscribed lock word is its own read-set entry (sw-OCC: subscription),
// checked by value: a holder's plain RMW on it (no cell involved) aborts
// the subscriber at its next read...
TX_TEST_BOTH_BACKENDS(SubscribedWordChangeAbortsNextRead) {
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
    EXPECT_EQ(status.abort_code, ValidationAbortCode());
    EXPECT_EQ(state, 1) << "the abort must come at the read of b";
    state = 2;
  }
  EXPECT_EQ(state, 2);
}

// ...and fails a writing commit that reads nothing more.
TX_TEST_BOTH_BACKENDS(SubscribedWordChangeAbortsWritingCommit) {
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
    EXPECT_EQ(status.abort_code, ValidationAbortCode());
    EXPECT_EQ(state, 1);
  }
  EXPECT_EQ(b.Load(), 0);
}

// Arms a 100 % kSpurious rule at `site` and runs `before`, then `access`,
// in one transaction: the abort must come at `access` (the step count
// lives outside the rollback) and leave no transaction open.
template <typename Before, typename Access>
void ExpectSpuriousAbortAt(fault::Site site, Before&& before,
                           Access&& access) {
  fault::FaultPlan plan;
  plan.WithRule(site, 1.0, AbortCode::kSpurious);
  fault::Arm(plan);
  volatile int steps = 0;
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    before();
    steps = 1;
    access();
    steps = 2;
    TxCommit();
  }
  fault::Disarm();
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kSpurious);
  EXPECT_EQ(steps, 1);
  EXPECT_FALSE(InTx());
}

// Spurious aborts come from kSpurious rules, which reach every
// transactional access: a kStore rule aborts the first TxStore, and a kLoad
// rule the first TxLoad, TxSubscribe and TxFetchAdd, each after a buffered
// store that the abort discards.
TX_TEST_BOTH_BACKENDS(SpuriousAbortInjection) {
  std::atomic<uint64_t> word{0};
  Shared<int64_t> a(0);
  Shared<int64_t> b(5);
  ExpectSpuriousAbortAt(fault::Site::kStore, [] {}, [&] { a.Store(1); });
  ExpectSpuriousAbortAt(
      fault::Site::kLoad, [&] { a.Store(1); }, [&] { (void)b.Load(); });
  ExpectSpuriousAbortAt(
      fault::Site::kLoad, [&] { a.Store(1); },
      [&] { (void)TxSubscribe(&word); });
  ExpectSpuriousAbortAt(
      fault::Site::kLoad, [&] { a.Store(1); }, [&] { b.Add(1); });
  EXPECT_EQ(a.Load(), 0);
  EXPECT_EQ(b.Load(), 5);
  EXPECT_EQ(word.load(), 0u);
  EXPECT_EQ(GlobalTxStats().Aborts(AbortCode::kSpurious), 4u);
  EXPECT_EQ(GlobalTxStats().commits.load(), 0u);
}

TX_TEST_BOTH_BACKENDS(StatsCountCommitsAndAborts) {
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

// One per-thread context serves both software backends. A SimTM commit
// that aborts while holding its written cells releases them, and a sw-OCC
// transaction that follows on the same thread starts clean: it commits,
// holds no word afterwards and leaves the cells' version words alone.
TEST_F(HtmTest, SimAbortHoldingCellsLeavesContextCleanForSwOcc) {
  std::atomic<uint64_t> word{0};
  Shared<int64_t> a(0);
  Shared<int64_t> b(0);
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    EXPECT_EQ(TxSubscribe(&word), 0u);
    a.Store(1);
    b.Store(2);
    word.fetch_add(4);  // validation fails once both cells are locked
    TxCommit();
    ADD_FAILURE() << "commit validated a changed subscribed word";
  }
  EXPECT_EQ(status.abort_code, AbortCode::kConflict);
  EXPECT_FALSE(InTx());
  const uint64_t a_version = a.cell()->version.load();
  const uint64_t b_version = b.cell()->version.load();
  EXPECT_EQ(a_version, 0u) << "the aborted commit left a's cell held";
  EXPECT_EQ(b_version, 0u) << "the aborted commit left b's cell held";

  ForceSwOccBackend();
  const int aborts = RunTx([&] {
    EXPECT_EQ(TxSubscribe(&word), 4u);
    a.Store(3);
    b.Add(5);
  });
  EXPECT_EQ(aborts, 0);
  EXPECT_FALSE(InTx());
  EXPECT_FALSE(OccIsExclusive(word.load()));
  EXPECT_EQ(OccVersion(word.load()), OccVersion(4) + 1);
  EXPECT_EQ(a.Load(), 3);
  EXPECT_EQ(b.Load(), 5);
  EXPECT_EQ(a.cell()->version.load(), a_version);
  EXPECT_EQ(b.cell()->version.load(), b_version);
}

// The reverse order: a sw-OCC commit that aborts while holding a lock word
// restores it, and a SimTM transaction that follows on the same thread
// commits and leaves every lock word as it found it.
TEST_F(HtmTest, SwOccAbortHoldingWordLeavesContextCleanForSim) {
  ForceSwOccBackend();
  // Address order is the commit's lock order: words[0] is held when the
  // CAS on the changed words[1] fails.
  std::atomic<uint64_t> words[2] = {0, 0};
  Shared<int64_t> a(0);
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    EXPECT_EQ(TxSubscribe(&words[0]), 0u);
    EXPECT_EQ(TxSubscribe(&words[1]), 0u);
    a.Store(1);
    words[1].fetch_add(4);
    TxCommit();
    ADD_FAILURE() << "commit validated a changed subscribed word";
  }
  EXPECT_EQ(status.abort_code, AbortCode::kOccValidateFail);
  EXPECT_FALSE(InTx());
  EXPECT_EQ(words[0].load(), 0u) << "the aborted commit left words[0] held";
  EXPECT_EQ(a.Load(), 0);

  ForceSimBackend();
  const int aborts = RunTx([&] {
    EXPECT_EQ(TxSubscribe(&words[0]), 0u);
    EXPECT_EQ(TxSubscribe(&words[1]), 4u);
    a.Store(a.Load() + 7);
  });
  EXPECT_EQ(aborts, 0);
  EXPECT_FALSE(InTx());
  EXPECT_EQ(words[0].load(), 0u);
  EXPECT_EQ(words[1].load(), 4u);
  EXPECT_EQ(a.Load(), 7);
  EXPECT_FALSE(CellIsLocked(a.cell()->version.load()));
}

// Each cell carries its own version word: a guarded update bumps that word
// by exactly one version, releases it, and leaves the neighbouring cell's
// word alone.
TEST_F(HtmTest, StripeHelpers) {
  Shared<int64_t> cells[2];
  const uint64_t before = cells[0].cell()->version.load();
  const uint64_t neighbour = cells[1].cell()->version.load();
  CellGuardedUpdate(cells[0].cell(), 0);
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
      CellGuardedUpdate(line.b.cell(), 9);
    }
    out.Store(seen + line.b.Load());
    TxCommit();
  }
  EXPECT_TRUE(status.started) << "a write to the adjacent cell aborted us";
  EXPECT_EQ(pass, 1);
  EXPECT_EQ(out.Load(), 9);
  EXPECT_EQ(GlobalTxStats().Aborts(AbortCode::kConflict), 0u);
}

// The write capacity's boundary, swept over how far the entries run ahead
// of the lines: a transaction writes kWriteCapacityLines distinct lines
// plus GetParam() more cells on lines it already wrote, and commits; the
// same writes plus one cell on a fresh line abort at that store. The extra
// cells go early, so SimTM builds its line set before the lines reach the
// capacity and grows it on every later write.
class CapacityBoundary : public HtmTest,
                         public ::testing::WithParamInterface<int> {};

TEST_P(CapacityBoundary, WriteSetBoundaryIsExact) {
  const size_t extra = static_cast<size_t>(GetParam());
  ASSERT_LE(extra, kWriteCapacityLines);
  std::vector<PackedLine> lines(kWriteCapacityLines + 1);
  auto write_within = [&](int64_t value) {
    for (size_t l = 0; l < kWriteCapacityLines; ++l) {
      lines[l].cells[0].Store(value);
      if (l < extra) {
        lines[l].cells[1].Store(value);
      }
    }
  };

  // Exactly kWriteCapacityLines distinct lines: commits.
  EXPECT_EQ(RunTx([&] { write_within(1); }), 0);

  // One line more: capacity abort at that store.
  volatile int past = 0;
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    write_within(2);
    past = 1;
    lines[kWriteCapacityLines].cells[0].Store(2);
    past = 2;
    TxCommit();
  }
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kCapacity);
  EXPECT_EQ(past, 1);
  EXPECT_EQ(lines[0].cells[0].Load(), 1);
  EXPECT_EQ(lines[kWriteCapacityLines - 1].cells[0].Load(), 1);
  EXPECT_EQ(lines[kWriteCapacityLines].cells[0].Load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CapacityBoundary,
                         ::testing::Values(1, 2, 8, 32, 128));

}  // namespace
}  // namespace gocc::htm
