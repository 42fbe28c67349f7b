// Unit, stress and model-based property tests for the work-stealing
// deques (ABP baseline, the paper's split deque, and the fence-free
// wsmult deque), plus the structural counts of micro_deque's scenarios.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "deque/abp_deque.h"
#include "deque/reclaim.h"
#include "deque/split_deque.h"
#include "deque/wsmult_deque.h"
#include "deque_scenarios.h"
#include "support/rng.h"

namespace lcws {
namespace {

// Tests park integers in a stable arena and push their addresses.
std::vector<int> make_arena(int n) {
  std::vector<int> arena(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) arena[static_cast<std::size_t>(i)] = i;
  return arena;
}

// ---------------------------------------------------------------------------
// ABP deque
// ---------------------------------------------------------------------------

TEST(AbpDeque, EmptyPops) {
  abp_deque<int> d(64);
  EXPECT_EQ(d.pop_bottom(), nullptr);
  EXPECT_EQ(d.pop_top().status, steal_status::empty);
}

TEST(AbpDeque, LifoForOwner) {
  auto arena = make_arena(5);
  abp_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  for (int i = 4; i >= 0; --i) EXPECT_EQ(d.pop_bottom(), &arena[i]);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(AbpDeque, FifoForThieves) {
  auto arena = make_arena(5);
  abp_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  for (int i = 0; i < 5; ++i) {
    const auto r = d.pop_top();
    ASSERT_EQ(r.status, steal_status::stolen);
    EXPECT_EQ(r.task, &arena[i]);
  }
  EXPECT_EQ(d.pop_top().status, steal_status::empty);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(AbpDeque, OwnerAndThiefMeetInTheMiddle) {
  auto arena = make_arena(6);
  abp_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  EXPECT_EQ(d.pop_top().task, &arena[0]);
  EXPECT_EQ(d.pop_bottom(), &arena[5]);
  EXPECT_EQ(d.pop_top().task, &arena[1]);
  EXPECT_EQ(d.pop_bottom(), &arena[4]);
  EXPECT_EQ(d.pop_bottom(), &arena[3]);
  EXPECT_EQ(d.pop_bottom(), &arena[2]);
  EXPECT_EQ(d.pop_bottom(), nullptr);
  EXPECT_EQ(d.pop_top().status, steal_status::empty);
}

TEST(AbpDeque, ResetAfterEmptyAllowsReuse) {
  auto arena = make_arena(8);
  abp_deque<int> d(4);  // tiny capacity: only works if indices reset
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) d.push_bottom(&arena[i]);
    for (int i = 0; i < 4; ++i) EXPECT_NE(d.pop_bottom(), nullptr);
    EXPECT_EQ(d.pop_bottom(), nullptr);
  }
}

TEST(AbpDeque, SizeEstimate) {
  auto arena = make_arena(3);
  abp_deque<int> d(64);
  EXPECT_EQ(d.size_estimate(), 0);
  for (auto& x : arena) d.push_bottom(&x);
  EXPECT_EQ(d.size_estimate(), 3);
  (void)d.pop_top();
  EXPECT_EQ(d.size_estimate(), 2);
}

// ---------------------------------------------------------------------------
// Split deque: basic semantics
// ---------------------------------------------------------------------------

TEST(SplitDeque, FreshTasksArePrivate) {
  auto arena = make_arena(3);
  split_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  EXPECT_EQ(d.private_size(), 3);
  EXPECT_EQ(d.public_size(), 0);
  // Thieves cannot touch private work; they see PRIVATE_WORK.
  EXPECT_EQ(d.pop_top().status, steal_status::private_work);
}

TEST(SplitDeque, PopTopOnEmptyDequeReportsEmpty) {
  split_deque<int> d(64);
  EXPECT_EQ(d.pop_top().status, steal_status::empty);
}

TEST(SplitDeque, ExposeOneMovesOldestPrivateTask) {
  auto arena = make_arena(3);
  split_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  EXPECT_EQ(d.expose_one(), 1);
  EXPECT_EQ(d.public_size(), 1);
  EXPECT_EQ(d.private_size(), 2);
  // The exposed task is the oldest (top-most) private one.
  const auto r = d.pop_top();
  ASSERT_EQ(r.status, steal_status::stolen);
  EXPECT_EQ(r.task, &arena[0]);
}

TEST(SplitDeque, ExposeOneOnEmptyIsNoop) {
  split_deque<int> d(64);
  EXPECT_EQ(d.expose_one(), 0);
  EXPECT_EQ(d.public_size(), 0);
}

TEST(SplitDeque, OwnerPopsNewestPrivateFirst) {
  auto arena = make_arena(4);
  split_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  EXPECT_EQ(d.pop_bottom_original(), &arena[3]);
  EXPECT_EQ(d.pop_bottom_signal_safe(), &arena[2]);
  EXPECT_EQ(d.private_size(), 2);
}

TEST(SplitDeque, PopBottomStopsAtPublicBoundary) {
  auto arena = make_arena(3);
  split_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  d.expose_one();
  d.expose_one();
  // One private task left.
  EXPECT_EQ(d.pop_bottom_original(), &arena[2]);
  EXPECT_EQ(d.pop_bottom_original(), nullptr);  // boundary reached
}

TEST(SplitDeque, PopPublicBottomTakesNewestPublic) {
  auto arena = make_arena(3);
  split_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  d.expose_one();
  d.expose_one();  // public = {arena0, arena1}, private = {arena2}
  EXPECT_EQ(d.pop_bottom_original(), &arena[2]);
  EXPECT_EQ(d.pop_bottom_original(), nullptr);
  EXPECT_EQ(d.pop_public_bottom(), &arena[1]);  // newest public first
  EXPECT_EQ(d.pop_bottom_original(), nullptr);
  EXPECT_EQ(d.pop_public_bottom(), &arena[0]);
  EXPECT_EQ(d.pop_public_bottom(), nullptr);
  EXPECT_EQ(d.size_estimate(), 0);
}

TEST(SplitDeque, SignalSafePopOnEmptyIsRepairedByPublicPop) {
  auto arena = make_arena(2);
  split_deque<int> d(64);
  // Section 4: the signal-safe pop decrements speculatively; the follow-up
  // pop_public_bottom must repair bot. Run several cycles to prove no
  // drift.
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(d.pop_bottom_signal_safe(), nullptr);
    EXPECT_EQ(d.pop_public_bottom(), nullptr);
    d.push_bottom(&arena[0]);
    d.push_bottom(&arena[1]);
    EXPECT_EQ(d.pop_bottom_signal_safe(), &arena[1]);
    EXPECT_EQ(d.pop_bottom_signal_safe(), &arena[0]);
    EXPECT_EQ(d.pop_bottom_signal_safe(), nullptr);
    EXPECT_EQ(d.pop_public_bottom(), nullptr);
  }
}

TEST(SplitDeque, StealsAndOwnerPopsPartitionTheTasks) {
  auto arena = make_arena(6);
  split_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  d.expose_one();
  d.expose_one();
  d.expose_one();  // public = {0,1,2}, private = {3,4,5}
  EXPECT_EQ(d.pop_top().task, &arena[0]);
  EXPECT_EQ(d.pop_bottom_original(), &arena[5]);
  EXPECT_EQ(d.pop_top().task, &arena[1]);
  EXPECT_EQ(d.pop_bottom_original(), &arena[4]);
  EXPECT_EQ(d.pop_bottom_original(), &arena[3]);
  EXPECT_EQ(d.pop_bottom_original(), nullptr);
  EXPECT_EQ(d.pop_public_bottom(), &arena[2]);
  EXPECT_EQ(d.pop_public_bottom(), nullptr);
}

TEST(SplitDeque, IndicesResetWhenEmptiedAllowsTinyCapacity) {
  auto arena = make_arena(4);
  split_deque<int> d(4);
  for (int round = 0; round < 3; ++round) {
    for (auto& x : arena) d.push_bottom(&x);
    for (int i = 3; i >= 0; --i) EXPECT_EQ(d.pop_bottom_original(), &arena[i]);
    EXPECT_EQ(d.pop_bottom_original(), nullptr);
    EXPECT_EQ(d.pop_public_bottom(), nullptr);  // resets indices to zero
  }
}

TEST(SplitDeque, PopPublicBottomRacesLastTaskViaCas) {
  auto arena = make_arena(1);
  split_deque<int> d(64);
  d.push_bottom(&arena[0]);
  d.expose_one();
  // Single exposed task; the owner must win it via the CAS path.
  EXPECT_EQ(d.pop_bottom_original(), nullptr);
  EXPECT_EQ(d.pop_public_bottom(), &arena[0]);
  EXPECT_EQ(d.pop_public_bottom(), nullptr);
  EXPECT_EQ(d.pop_top().status, steal_status::empty);
}

// ---------------------------------------------------------------------------
// Split deque: exposure policies
// ---------------------------------------------------------------------------

TEST(SplitDeque, ConservativeNeverExposesLastTask) {
  auto arena = make_arena(3);
  split_deque<int> d(64);
  d.push_bottom(&arena[0]);
  EXPECT_EQ(d.expose_conservative(), 0);  // one private task: refuse
  d.push_bottom(&arena[1]);
  EXPECT_EQ(d.expose_conservative(), 1);  // two: expose one
  EXPECT_EQ(d.expose_conservative(), 0);  // back to one private: refuse
  d.push_bottom(&arena[2]);
  EXPECT_EQ(d.expose_conservative(), 1);
  EXPECT_EQ(d.private_size(), 1);
  EXPECT_EQ(d.public_size(), 2);
}

TEST(SplitDeque, HasTwoTasksTracksPrivateCount) {
  auto arena = make_arena(3);
  split_deque<int> d(64);
  EXPECT_FALSE(d.has_two_tasks());
  d.push_bottom(&arena[0]);
  EXPECT_FALSE(d.has_two_tasks());
  d.push_bottom(&arena[1]);
  EXPECT_TRUE(d.has_two_tasks());
  d.expose_one();
  EXPECT_FALSE(d.has_two_tasks());  // one private + one public
}

TEST(SplitDeque, ExposeHalfCounts) {
  // r private tasks -> round(r/2) exposed for r >= 3, else min(r, 1).
  const struct {
    int before;
    std::int64_t exposed;
  } cases[] = {{0, 0}, {1, 1}, {2, 1}, {3, 2}, {4, 2},
               {5, 2},  // 2.5 rounds to even -> 2
               {6, 3}, {7, 4},  // 3.5 rounds to even -> 4
               {8, 4}, {9, 4}, {16, 8}, {17, 8}};
  for (const auto& c : cases) {
    auto arena = make_arena(c.before);
    split_deque<int> d(64);
    for (auto& x : arena) d.push_bottom(&x);
    EXPECT_EQ(d.expose_half(), c.exposed) << "r=" << c.before;
    EXPECT_EQ(d.public_size(), c.exposed) << "r=" << c.before;
    EXPECT_EQ(d.private_size(), c.before - c.exposed) << "r=" << c.before;
  }
}

TEST(Double2Int, MatchesRoundHalfToEven) {
  EXPECT_EQ(double2int(0.0), 0);
  EXPECT_EQ(double2int(1.0), 1);
  EXPECT_EQ(double2int(1.4), 1);
  EXPECT_EQ(double2int(1.5), 2);
  EXPECT_EQ(double2int(2.5), 2);  // half-to-even
  EXPECT_EQ(double2int(3.5), 4);
  EXPECT_EQ(double2int(3.49), 3);
  EXPECT_EQ(double2int(1000000.5), 1000000);
  EXPECT_EQ(double2int(-1.5), -2);
  EXPECT_EQ(double2int(-2.5), -2);
}

// ---------------------------------------------------------------------------
// Split deque: model-based property test (single-threaded oracle)
// ---------------------------------------------------------------------------

// Reference model of the split deque's sequential semantics: a deque of
// tasks plus the public/private boundary.
class split_model {
 public:
  void push(int* t) { items_.push_back(t); }

  int* pop_bottom() {
    if (items_.size() == boundary_) return nullptr;
    int* t = items_.back();
    items_.pop_back();
    return t;
  }

  int* pop_public_bottom() {
    if (boundary_ == 0) return nullptr;
    --boundary_;
    int* t = items_.back();
    items_.pop_back();
    return t;
  }

  steal_status steal(int*& out) {
    if (boundary_ > 0) {
      out = items_.front();
      items_.pop_front();
      --boundary_;
      return steal_status::stolen;
    }
    return items_.empty() ? steal_status::empty : steal_status::private_work;
  }

  std::int64_t expose_one() {
    if (boundary_ < items_.size()) {
      ++boundary_;
      return 1;
    }
    return 0;
  }

  std::size_t private_size() const { return items_.size() - boundary_; }
  std::size_t public_size() const { return boundary_; }

 private:
  std::deque<int*> items_;
  std::size_t boundary_ = 0;  // first `boundary_` items are public
};

class SplitDequeModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitDequeModelTest, RandomOpSequenceMatchesModel) {
  xoshiro256 rng(GetParam());
  auto arena = make_arena(10000);
  int next = 0;
  split_deque<int> d(16384);
  split_model model;

  for (int step = 0; step < 20000; ++step) {
    switch (rng.bounded(5)) {
      case 0:
      case 1: {  // push (biased so the deque has content)
        if (next < 10000 && model.private_size() + model.public_size() < 900) {
          d.push_bottom(&arena[next]);
          model.push(&arena[next]);
          ++next;
        }
        break;
      }
      case 2: {  // owner take: pop_bottom, then pop_public on failure
        int* got = d.pop_bottom_original();
        int* want = model.pop_bottom();
        ASSERT_EQ(got, want) << "step " << step;
        if (got == nullptr) {
          got = d.pop_public_bottom();
          want = model.pop_public_bottom();
          ASSERT_EQ(got, want) << "step " << step;
        }
        break;
      }
      case 3: {  // thief steal
        int* want = nullptr;
        const steal_status want_status = model.steal(want);
        const auto r = d.pop_top();
        ASSERT_EQ(r.status, want_status) << "step " << step;
        if (want_status == steal_status::stolen) {
          ASSERT_EQ(r.task, want) << "step " << step;
        }
        break;
      }
      case 4: {  // exposure
        ASSERT_EQ(d.expose_one(), model.expose_one()) << "step " << step;
        break;
      }
    }
    ASSERT_EQ(static_cast<std::size_t>(d.private_size()),
              model.private_size())
        << "step " << step;
    ASSERT_EQ(static_cast<std::size_t>(d.public_size()), model.public_size())
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitDequeModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Same property sweep with the Section 4 signal-safe pop_bottom. Each
// failed pop must be followed by pop_public_bottom (the scheduler's calling
// convention), which repairs the speculative decrement.
class SplitDequeSignalSafeModelTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitDequeSignalSafeModelTest, RandomOpSequenceMatchesModel) {
  xoshiro256 rng(GetParam());
  auto arena = make_arena(10000);
  int next = 0;
  split_deque<int> d(16384);
  split_model model;

  for (int step = 0; step < 20000; ++step) {
    switch (rng.bounded(4)) {
      case 0: {
        if (next < 10000 && model.private_size() + model.public_size() < 900) {
          d.push_bottom(&arena[next]);
          model.push(&arena[next]);
          ++next;
        }
        break;
      }
      case 1: {
        int* got = d.pop_bottom_signal_safe();
        int* want = model.pop_bottom();
        ASSERT_EQ(got, want) << "step " << step;
        if (got == nullptr) {
          got = d.pop_public_bottom();
          want = model.pop_public_bottom();
          ASSERT_EQ(got, want) << "step " << step;
        }
        break;
      }
      case 2: {
        int* want = nullptr;
        const steal_status want_status = model.steal(want);
        const auto r = d.pop_top();
        ASSERT_EQ(r.status, want_status) << "step " << step;
        if (want_status == steal_status::stolen) {
          ASSERT_EQ(r.task, want) << "step " << step;
        }
        break;
      }
      case 3: {
        ASSERT_EQ(d.expose_one(), model.expose_one()) << "step " << step;
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitDequeSignalSafeModelTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

TEST(SplitDeque, UnexposeHalfReclaimsNewestPublicInOrder) {
  auto arena = make_arena(6);
  split_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  for (int i = 0; i < 4; ++i) d.expose_one();  // public {0,1,2,3}
  // Drain the private part first (the Lace policy's precondition).
  EXPECT_EQ(d.pop_bottom_original(), &arena[5]);
  EXPECT_EQ(d.pop_bottom_original(), &arena[4]);
  EXPECT_EQ(d.pop_bottom_original(), nullptr);
  // Reclaim half of the 4 public tasks: the two newest (3, 2).
  EXPECT_EQ(d.unexpose_half(), 2);
  EXPECT_EQ(d.private_size(), 2);
  EXPECT_EQ(d.public_size(), 2);
  // Order preserved: newest private is still task 3.
  EXPECT_EQ(d.pop_bottom_original(), &arena[3]);
  EXPECT_EQ(d.pop_bottom_original(), &arena[2]);
  EXPECT_EQ(d.pop_bottom_original(), nullptr);
  // The remaining public tasks are untouched and still stealable.
  EXPECT_EQ(d.pop_top().task, &arena[0]);
  EXPECT_EQ(d.pop_top().task, &arena[1]);
}

TEST(SplitDeque, UnexposeHalfOnEmptyPublicIsNoop) {
  auto arena = make_arena(2);
  split_deque<int> d(64);
  d.push_bottom(&arena[0]);
  EXPECT_EQ(d.pop_bottom_original(), &arena[0]);
  EXPECT_EQ(d.unexpose_half(), 0);
  EXPECT_EQ(d.size_estimate(), 0);
}

TEST(SplitDeque, UnexposeHalfRoundsUp) {
  auto arena = make_arena(3);
  split_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  for (int i = 0; i < 3; ++i) d.expose_one();
  while (d.pop_bottom_original() != nullptr) {
  }
  EXPECT_EQ(d.unexpose_half(), 2);  // ceil(3/2)
  EXPECT_EQ(d.private_size(), 2);
  EXPECT_EQ(d.public_size(), 1);
}

// Model sweep over the other two exposure policies: conservative (expose
// only with >= 2 private tasks) and half (expose round(r/2) for r >= 3).
class SplitDequePolicyModelTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitDequePolicyModelTest, ConservativeAndHalfMatchTheirSpecs) {
  xoshiro256 rng(GetParam());
  auto arena = make_arena(8000);
  int next = 0;
  split_deque<int> d(16384);
  // Track expected private/public sizes under a mixed policy schedule.
  std::int64_t priv = 0, pub = 0;
  for (int step = 0; step < 15000; ++step) {
    switch (rng.bounded(5)) {
      case 0:
      case 1: {
        if (next < 8000 && priv + pub < 900) {
          d.push_bottom(&arena[next++]);
          ++priv;
        }
        break;
      }
      case 2: {  // conservative exposure
        const std::int64_t expect = priv >= 2 ? 1 : 0;
        ASSERT_EQ(d.expose_conservative(), expect) << "step " << step;
        priv -= expect;
        pub += expect;
        break;
      }
      case 3: {  // half exposure
        std::int64_t expect = 0;
        if (priv >= 3) {
          expect = static_cast<std::int64_t>(
              double2int(static_cast<double>(priv) / 2.0));
        } else if (priv >= 1) {
          expect = 1;
        }
        ASSERT_EQ(d.expose_half(), expect) << "step " << step;
        priv -= expect;
        pub += expect;
        break;
      }
      case 4: {  // owner take (original pop + public fallback)
        int* got = d.pop_bottom_original();
        if (priv > 0) {
          ASSERT_NE(got, nullptr) << "step " << step;
          --priv;
        } else {
          ASSERT_EQ(got, nullptr) << "step " << step;
          got = d.pop_public_bottom();
          if (pub > 0) {
            ASSERT_NE(got, nullptr) << "step " << step;
            --pub;
          } else {
            ASSERT_EQ(got, nullptr) << "step " << step;
          }
        }
        break;
      }
    }
    ASSERT_EQ(d.private_size(), priv) << "step " << step;
    ASSERT_EQ(d.public_size(), pub) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitDequePolicyModelTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// Concurrency stress: every task is consumed exactly once
// ---------------------------------------------------------------------------

// Owner produces and consumes with the given pop variant + exposure policy;
// `thieves` threads hammer pop_top. Every pushed task must be taken exactly
// once across all parties.
//
// With a reclaim domain, the deque must grow while thieves steal. Thieves
// register before the first push and quiesce after every attempt. They are
// paced to at most a quarter of the pushes (plus one in-flight steal each),
// which keeps the owner's backlog growing, so the buffer is replaced
// repeatedly under them. Every thief quiesces after the last possible
// retirement, so the owner's next drain step must free the whole retired
// list.
template <typename Deque, typename OwnerStep>
void exactly_once_stress(Deque& d, int total, int thieves, OwnerStep owner_step,
                         reclaim_domain* domain = nullptr) {
  std::vector<std::atomic<int>> taken(static_cast<std::size_t>(total));
  for (auto& t : taken) t.store(0);
  auto arena = make_arena(total);
  std::atomic<bool> done{false};
  std::atomic<int> consumed{0};
  std::atomic<int> published{0};
  std::atomic<int> stolen{0};

  std::vector<std::thread> pool;
  for (int t = 0; t < thieves; ++t) {
    pool.emplace_back([&] {
      const std::size_t reader =
          domain != nullptr ? domain->register_reader() : 0;
      if (domain != nullptr) domain->quiesce(reader);
      while (!done.load(std::memory_order_acquire)) {
        bool got = false;
        if (domain == nullptr || stolen.load(std::memory_order_relaxed) * 4 <
                                     published.load(std::memory_order_relaxed)) {
          const auto r = d.pop_top();
          got = r.status == steal_status::stolen;
          if (got) {
            taken[static_cast<std::size_t>(*r.task)].fetch_add(1);
            stolen.fetch_add(1);
            consumed.fetch_add(1);
          }
        }
        if (!got) std::this_thread::yield();
        // The buffer pointer is provably dropped here.
        if (domain != nullptr) domain->quiesce(reader);
      }
      if (domain != nullptr) domain->quiesce(reader);
    });
  }
  // The domain contract requires every reader registered before the first
  // growth; hold pushes until all thieves have their slots.
  while (domain != nullptr &&
         domain->reader_count() < static_cast<std::size_t>(thieves)) {
    std::this_thread::yield();
  }

  // Owner: push in batches, interleave exposure and pops.
  xoshiro256 rng(42);
  int pushed = 0;
  while (consumed.load(std::memory_order_relaxed) < total) {
    if (pushed < total && rng.bounded(3) != 0) {
      d.push_bottom(&arena[static_cast<std::size_t>(pushed)]);
      ++pushed;
      published.store(pushed, std::memory_order_relaxed);
    } else {
      if (int* t = owner_step(d)) {
        taken[static_cast<std::size_t>(*t)].fetch_add(1);
        consumed.fetch_add(1);
      } else if (pushed == total) {
        std::this_thread::yield();
      }
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(taken[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
  if (domain != nullptr) {
    EXPECT_GT(d.grow_count(), 0u) << "stress never grew; raise total";
    EXPECT_EQ(owner_step(d), nullptr);  // drained: a collection point
    EXPECT_EQ(d.retired_buffers(), 0u);
  }
}

TEST(AbpDequeStress, ExactlyOnceUnderConcurrentSteals) {
  abp_deque<int> d(1 << 12);
  exactly_once_stress(d, 2000, 3,
                      [](abp_deque<int>& dq) { return dq.pop_bottom(); });
}

TEST(SplitDequeStress, ExactlyOnceWithOwnerExposure) {
  split_deque<int> d(1 << 12);
  xoshiro256 rng(7);
  exactly_once_stress(d, 2000, 3, [&rng](split_deque<int>& dq) -> int* {
    if (rng.bounded(2) == 0) dq.expose_one();
    if (int* t = dq.pop_bottom_original()) return t;
    return dq.pop_public_bottom();
  });
}

TEST(SplitDequeStress, ExactlyOnceWithSignalSafePopAndExposeHalf) {
  split_deque<int> d(1 << 12);
  xoshiro256 rng(11);
  exactly_once_stress(d, 2000, 3, [&rng](split_deque<int>& dq) -> int* {
    if (rng.bounded(4) == 0) dq.expose_half();
    if (int* t = dq.pop_bottom_signal_safe()) return t;
    return dq.pop_public_bottom();
  });
}

TEST(SplitDequeStress, ExactlyOnceWithConservativeExposure) {
  split_deque<int> d(1 << 12);
  xoshiro256 rng(13);
  exactly_once_stress(d, 2000, 3, [&rng](split_deque<int>& dq) -> int* {
    if (rng.bounded(2) == 0) dq.expose_conservative();
    if (int* t = dq.pop_bottom_original()) return t;
    return dq.pop_public_bottom();
  });
}

// ---------------------------------------------------------------------------
// Growth: overflow becomes a slow-path doubling event (DESIGN.md §8)
// ---------------------------------------------------------------------------

TEST(SplitDeque, GrowthPreservesContentsAndOrder) {
  const int n = 1000;
  auto arena = make_arena(n);
  split_deque<int> d(16);
  for (auto& x : arena) d.push_bottom(&x);
  EXPECT_EQ(d.private_size(), n);
  // Geometric doubling identity: capacity == initial << grows.
  EXPECT_EQ(d.capacity(), std::size_t{16} << d.grow_count());
  EXPECT_GE(d.capacity(), static_cast<std::size_t>(n));
  EXPECT_EQ(d.high_water_mark(), n);
  // Without a domain nothing is freed early; every grown-out buffer is
  // parked on the retired list until destruction.
  EXPECT_EQ(d.retired_buffers(), d.grow_count());
  for (int i = n - 1; i >= 0; --i) {
    ASSERT_EQ(d.pop_bottom_original(), &arena[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(d.pop_bottom_original(), nullptr);
}

TEST(SplitDeque, GrowthAcrossThePublicBoundaryKeepsExposedTasksStealable) {
  const int n = 300;
  auto arena = make_arena(n);
  split_deque<int> d(8);
  for (int i = 0; i < 4; ++i) d.push_bottom(&arena[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 4; ++i) d.expose_one();
  // Pushing past capacity with live public slots: growth must carry them.
  for (int i = 4; i < n; ++i) d.push_bottom(&arena[static_cast<std::size_t>(i)]);
  EXPECT_GT(d.grow_count(), 0u);
  for (int i = 0; i < 4; ++i) {
    const auto r = d.pop_top();
    ASSERT_EQ(r.status, steal_status::stolen);
    EXPECT_EQ(r.task, &arena[static_cast<std::size_t>(i)]);
  }
  for (int i = n - 1; i >= 4; --i) {
    ASSERT_EQ(d.pop_bottom_original(), &arena[static_cast<std::size_t>(i)]);
  }
}

// A steal consumes the top slot without lowering bot, so stolen slots stay
// unavailable until the owner drains the deque completely: pushing past
// that drift costs a doubling.
TEST(SplitDeque, StealDriftGrowsInsteadOfThrowing) {
  auto arena = make_arena(9);
  split_deque<int> d(8);
  for (int i = 0; i < 8; ++i) d.push_bottom(&arena[static_cast<std::size_t>(i)]);
  while (d.expose_one() == 1) {
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(d.pop_top().status, steal_status::stolen);
  }
  EXPECT_EQ(d.size_estimate(), 0);
  d.push_bottom(&arena[8]);  // every slot lies behind top
  EXPECT_EQ(d.grow_count(), 1u);
  EXPECT_EQ(d.pop_bottom_original(), &arena[8]);
}

TEST(AbpDeque, GrowthPreservesContentsAndOrder) {
  const int n = 1000;
  auto arena = make_arena(n);
  abp_deque<int> d(16);
  for (auto& x : arena) d.push_bottom(&x);
  EXPECT_EQ(d.size_estimate(), n);
  EXPECT_EQ(d.capacity(), std::size_t{16} << d.grow_count());
  EXPECT_EQ(d.high_water_mark(), n);
  // FIFO half from the top, LIFO half from the bottom.
  for (int i = 0; i < n / 2; ++i) {
    const auto r = d.pop_top();
    ASSERT_EQ(r.status, steal_status::stolen);
    EXPECT_EQ(r.task, &arena[static_cast<std::size_t>(i)]);
  }
  for (int i = n - 1; i >= n / 2; --i) {
    ASSERT_EQ(d.pop_bottom(), &arena[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

// The task ceiling is really gone: push past default_deque_capacity in one
// deque (single-threaded; the scheduler-level equivalent lives in
// deque_growth_test.cpp with a smaller starting capacity).
TEST(SplitDeque, GrowsPastDefaultDequeCapacity) {
  const int n = static_cast<int>(default_deque_capacity) + 1000;
  auto arena = make_arena(n);
  split_deque<int> d(default_deque_capacity);
  for (auto& x : arena) d.push_bottom(&x);
  EXPECT_GE(d.grow_count(), 1u);
  EXPECT_EQ(d.high_water_mark(), n);
  for (int i = n - 1; i >= 0; --i) {
    ASSERT_EQ(d.pop_bottom_original(), &arena[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(d.pop_bottom_original(), nullptr);
}

// ---------------------------------------------------------------------------
// Reclamation: retirement, quiescence, and grow-during-steal races
// ---------------------------------------------------------------------------

TEST(ReclaimDomain, PassesOnlyAfterEveryReaderQuiesces) {
  reclaim_domain dom;
  const std::size_t r0 = dom.register_reader();
  const std::size_t r1 = dom.register_reader();
  ASSERT_EQ(dom.reader_count(), 2u);
  const std::uint64_t token = dom.retire_token();
  EXPECT_FALSE(dom.passed(token));  // nobody has quiesced yet
  dom.quiesce(r0);
  EXPECT_FALSE(dom.passed(token));  // one reader still outstanding
  dom.quiesce(r1);
  EXPECT_TRUE(dom.passed(token));
  // A new token is again blocked until the next quiesce round.
  const std::uint64_t token2 = dom.retire_token();
  EXPECT_FALSE(dom.passed(token2));
  dom.quiesce(r0);
  dom.quiesce(r1);
  EXPECT_TRUE(dom.passed(token2));
}

TEST(SplitDeque, RetiredBuffersAreFreedAtDrainPointsOnceQuiesced) {
  reclaim_domain dom;
  const std::size_t reader = dom.register_reader();
  const int n = 200;
  auto arena = make_arena(n);
  split_deque<int> d(8, &dom);
  for (auto& x : arena) d.push_bottom(&x);
  const std::uint64_t grown = d.grow_count();
  ASSERT_GT(grown, 0u);
  EXPECT_EQ(d.retired_buffers(), grown);  // reader silent: nothing freed
  dom.quiesce(reader);
  // Full drain hits the pop_public_bottom reset, which collects.
  for (int i = 0; i < n; ++i) ASSERT_NE(d.pop_bottom_original(), nullptr);
  EXPECT_EQ(d.pop_bottom_original(), nullptr);
  EXPECT_EQ(d.pop_public_bottom(), nullptr);
  EXPECT_EQ(d.retired_buffers(), 0u);
}

TEST(AbpDeque, RetiredBuffersAreFreedAtDrainPointsOnceQuiesced) {
  reclaim_domain dom;
  const std::size_t reader = dom.register_reader();
  const int n = 200;
  auto arena = make_arena(n);
  abp_deque<int> d(8, &dom);
  for (auto& x : arena) d.push_bottom(&x);
  const std::uint64_t grown = d.grow_count();
  ASSERT_GT(grown, 0u);
  EXPECT_EQ(d.retired_buffers(), grown);  // reader silent: nothing freed
  dom.quiesce(reader);
  // Taking the last task resets the indices, which collects.
  for (int i = 0; i < n; ++i) ASSERT_NE(d.pop_bottom(), nullptr);
  EXPECT_EQ(d.pop_bottom(), nullptr);
  EXPECT_EQ(d.retired_buffers(), 0u);
}

// Thieves steal (quiescing between attempts) while the owner's pushes
// force repeated growth: every task is consumed exactly once, no thief
// ever reads freed storage (ASan/TSan-checked in those CI jobs), and the
// retired list drains once everyone quiesces.
TEST(SplitDequeStress, ExactlyOnceUnderConcurrentStealsAndGrowth) {
  reclaim_domain dom;
  split_deque<int> d(16, &dom);
  xoshiro256 rng(7);
  exactly_once_stress(
      d, 6000, 3,
      [&rng](split_deque<int>& dq) -> int* {
        if (rng.bounded(2) == 0) dq.expose_half();
        if (int* t = dq.pop_bottom_signal_safe()) return t;
        return dq.pop_public_bottom();
      },
      &dom);
}

// The WS baseline's version: thieves CAS through buffers the owner is
// concurrently replacing.
TEST(AbpDequeStress, ExactlyOnceUnderConcurrentStealsAndGrowth) {
  reclaim_domain dom;
  abp_deque<int> d(16, &dom);
  exactly_once_stress(
      d, 6000, 3, [](abp_deque<int>& dq) { return dq.pop_bottom(); }, &dom);
}

// ---------------------------------------------------------------------------
// WS-mult deque (DESIGN.md §9): fence- and CAS-free with multiplicity
// ---------------------------------------------------------------------------

TEST(WsmultDeque, EmptyPops) {
  wsmult_deque<int> d(64);
  EXPECT_EQ(d.pop_bottom(), nullptr);
  EXPECT_EQ(d.pop_top().status, steal_status::empty);
}

TEST(WsmultDeque, LifoForOwner) {
  auto arena = make_arena(5);
  wsmult_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  for (int i = 4; i >= 0; --i) EXPECT_EQ(d.pop_bottom(), &arena[i]);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(WsmultDeque, FifoForThieves) {
  auto arena = make_arena(5);
  wsmult_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  for (int i = 0; i < 5; ++i) {
    const auto r = d.pop_top();
    ASSERT_EQ(r.status, steal_status::stolen);
    EXPECT_EQ(r.task, &arena[i]);
  }
  EXPECT_EQ(d.pop_top().status, steal_status::empty);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(WsmultDeque, OwnerAndThiefMeetInTheMiddle) {
  auto arena = make_arena(6);
  wsmult_deque<int> d(64);
  for (auto& x : arena) d.push_bottom(&x);
  EXPECT_EQ(d.pop_top().task, &arena[0]);
  EXPECT_EQ(d.pop_bottom(), &arena[5]);
  EXPECT_EQ(d.pop_top().task, &arena[1]);
  EXPECT_EQ(d.pop_bottom(), &arena[4]);
  EXPECT_EQ(d.pop_bottom(), &arena[3]);
  EXPECT_EQ(d.pop_bottom(), &arena[2]);
  // The owner's drain walk ends on the two thief-claimed slots.
  EXPECT_EQ(d.pop_bottom(), nullptr);
  EXPECT_EQ(d.pop_top().status, steal_status::empty);
}

// Indices are monotonic within a generation; the owner's drain walk must
// wind the window back so a tiny capacity supports unbounded reuse, with
// steals working again after every reset.
TEST(WsmultDeque, ReuseAfterDrainResetWithTinyCapacity) {
  auto arena = make_arena(4);
  wsmult_deque<int> d(4);
  for (int round = 0; round < 100; ++round) {
    for (auto& x : arena) d.push_bottom(&x);
    const auto r = d.pop_top();
    ASSERT_EQ(r.status, steal_status::stolen);
    EXPECT_EQ(r.task, &arena[0]) << "round " << round;
    for (int i = 0; i < 3; ++i) ASSERT_NE(d.pop_bottom(), nullptr);
    ASSERT_EQ(d.pop_bottom(), nullptr) << "round " << round;
  }
  EXPECT_EQ(d.grow_count(), 0u);
  EXPECT_GT(d.reset_count(), 0u);
}

TEST(WsmultDeque, SizeEstimate) {
  auto arena = make_arena(3);
  wsmult_deque<int> d(64);
  EXPECT_EQ(d.size_estimate(), 0);
  for (auto& x : arena) d.push_bottom(&x);
  EXPECT_EQ(d.size_estimate(), 3);
  (void)d.pop_top();
  EXPECT_EQ(d.size_estimate(), 2);
}

TEST(WsmultDeque, GrowthPreservesContentsAndOrder) {
  const int n = 200;
  auto arena = make_arena(n);
  wsmult_deque<int> d(8);
  for (auto& x : arena) d.push_bottom(&x);
  EXPECT_GT(d.grow_count(), 0u);
  EXPECT_GE(d.capacity(), static_cast<std::size_t>(n));
  // FIFO from the top across every growth boundary.
  for (int i = 0; i < n / 2; ++i) {
    const auto r = d.pop_top();
    ASSERT_EQ(r.status, steal_status::stolen);
    EXPECT_EQ(r.task, &arena[i]);
  }
  // LIFO from the bottom for the rest.
  for (int i = n - 1; i >= n / 2; --i) EXPECT_EQ(d.pop_bottom(), &arena[i]);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(WsmultDeque, RetiredBuffersAreFreedAtDrainPointsOnceQuiesced) {
  reclaim_domain dom;
  const std::size_t reader = dom.register_reader();
  const int n = 200;
  auto arena = make_arena(n);
  wsmult_deque<int> d(8, &dom);
  for (auto& x : arena) d.push_bottom(&x);
  const std::uint64_t grown = d.grow_count();
  ASSERT_GT(grown, 0u);
  EXPECT_EQ(d.retired_buffers(), grown);  // reader silent: nothing freed
  dom.quiesce(reader);
  // The drain walk's empty return is a collection point.
  for (int i = 0; i < n; ++i) ASSERT_NE(d.pop_bottom(), nullptr);
  EXPECT_EQ(d.pop_bottom(), nullptr);
  EXPECT_EQ(d.retired_buffers(), 0u);
}

TEST(WsmultDequeStress, ExactlyOnceUnderConcurrentSteals) {
  wsmult_deque<int> d(1 << 12);
  exactly_once_stress(d, 2000, 3,
                      [](wsmult_deque<int>& dq) { return dq.pop_bottom(); });
}

// The §9 version of the growth race: thieves claim through buffers the
// owner is concurrently replacing, so the copy's slot exchanges must hand
// every task to exactly one party, and quiescence must drain the retired
// list.
TEST(WsmultDequeStress, ExactlyOnceUnderConcurrentStealsAndGrowth) {
  reclaim_domain dom;
  wsmult_deque<int> d(16, &dom);
  exactly_once_stress(
      d, 6000, 3, [](wsmult_deque<int>& dq) { return dq.pop_bottom(); },
      &dom);
}

// ---------------------------------------------------------------------------
// Structural counts: micro_deque's scenarios against BENCH_deque.json
// ---------------------------------------------------------------------------

struct counts {
  std::uint64_t ops, fences, cas, grows, hwm;
};

std::string cell_key(const std::string& scenario, const std::string& deque,
                     const std::string& mode) {
  return scenario + "/" + deque + "/" + mode;
}

// The string value of `key` in one flat JSON object line.
std::string json_string(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":\"";
  const auto at = line.find(tag);
  if (at == std::string::npos) return {};
  const auto begin = at + tag.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

// The integer value of `key` in one flat JSON object line.
std::uint64_t json_count(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const auto at = line.find(tag);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no \"" << key << "\" in " << line;
    return 0;
  }
  return std::stoull(line.substr(at + tag.size()));
}

// The committed baseline, keyed by scenario/deque/mode.
std::map<std::string, counts> committed_counts() {
  std::map<std::string, counts> rows;
  std::ifstream in(LCWS_SOURCE_DIR "/BENCH_deque.json");
  EXPECT_TRUE(in.is_open()) << "BENCH_deque.json not found";
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    rows[cell_key(json_string(line, "scenario"), json_string(line, "deque"),
                  json_string(line, "mode"))] =
        counts{json_count(line, "ops"), json_count(line, "fences"),
               json_count(line, "cas"), json_count(line, "grows"),
               json_count(line, "hwm")};
  }
  return rows;
}

// This run's cells, keyed like committed_counts().
std::map<std::string, counts> measured_counts() {
  std::map<std::string, counts> rows;
  for (const auto& c : deque_scenarios::run_all()) {
    const auto& t = c.delta;
    rows[cell_key(c.scenario, c.deque, c.mode)] =
        counts{static_cast<std::uint64_t>(deque_scenarios::kOps),
               t.fences.get(), t.cas.get(), t.deque_grows.get(),
               t.deque_hwm.get()};
  }
  return rows;
}

// Every count of every cell equals the committed baseline, bit for bit.
TEST(DequeStructural, CountsMatchCommittedBaseline) {
  const auto committed = committed_counts();
  const auto measured = measured_counts();
  EXPECT_EQ(committed.size(), measured.size());
  for (const auto& [key, want] : committed) {
    const auto it = measured.find(key);
    if (it == measured.end()) {
      ADD_FAILURE() << key << ": committed cell not measured";
      continue;
    }
    const counts& got = it->second;
    EXPECT_EQ(got.ops, want.ops) << key;
    EXPECT_EQ(got.fences, want.fences) << key;
    EXPECT_EQ(got.cas, want.cas) << key;
    EXPECT_EQ(got.grows, want.grows) << key;
    EXPECT_EQ(got.hwm, want.hwm) << key;
  }
}

// Growth adds zero fences and zero CAS: each grow cell matches its
// prealloc twin, and 65536 ops from 64 slots is exactly 10 doublings.
TEST(DequeStructural, GrowthAddsNoFencesOrCas) {
  const auto measured = measured_counts();
  for (const char* scenario : {"fill_drain", "steal"}) {
    for (const char* deque : {"split", "abp", "wsmult"}) {
      const std::string grow_key = cell_key(scenario, deque, "grow");
      const std::string pre_key = cell_key(scenario, deque, "prealloc");
      ASSERT_EQ(measured.count(grow_key), 1u) << grow_key;
      ASSERT_EQ(measured.count(pre_key), 1u) << pre_key;
      const counts& grow = measured.at(grow_key);
      const counts& pre = measured.at(pre_key);
      EXPECT_EQ(grow.fences, pre.fences) << grow_key;
      EXPECT_EQ(grow.cas, pre.cas) << grow_key;
      EXPECT_EQ(grow.grows, 10u) << grow_key;
      EXPECT_EQ(pre.grows, 0u) << pre_key;
    }
  }
}

// The split deque's private fill+drain, and the wsmult deque's owner
// put/take and thief steal, perform no fence and no CAS in either mode.
TEST(DequeStructural, SynchronizationFreeCellsStayAtZero) {
  const auto measured = measured_counts();
  const std::pair<const char*, const char*> sync_free[] = {
      {"fill_drain", "split"}, {"fill_drain", "wsmult"}, {"steal", "wsmult"}};
  for (const auto& [scenario, deque] : sync_free) {
    for (const char* mode : {"prealloc", "grow"}) {
      const std::string key = cell_key(scenario, deque, mode);
      ASSERT_EQ(measured.count(key), 1u) << key;
      EXPECT_EQ(measured.at(key).fences, 0u) << key;
      EXPECT_EQ(measured.at(key).cas, 0u) << key;
    }
  }
}

}  // namespace
}  // namespace lcws
