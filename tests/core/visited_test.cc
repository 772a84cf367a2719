#include "core/visited.h"

#include <gtest/gtest.h>

namespace gass::core {
namespace {

TEST(VisitedTableTest, FreshTableAfterEpoch) {
  VisitedTable table(10);
  table.NewEpoch();
  for (VectorId v = 0; v < 10; ++v) {
    EXPECT_FALSE(table.Visited(v));
  }
}

TEST(VisitedTableTest, MarkAndQuery) {
  VisitedTable table(5);
  table.NewEpoch();
  table.MarkVisited(3);
  EXPECT_TRUE(table.Visited(3));
  EXPECT_FALSE(table.Visited(2));
}

TEST(VisitedTableTest, TryVisitReturnsTrueOnce) {
  VisitedTable table(5);
  table.NewEpoch();
  EXPECT_TRUE(table.TryVisit(1));
  EXPECT_FALSE(table.TryVisit(1));
  EXPECT_TRUE(table.Visited(1));
}

TEST(VisitedTableTest, NewEpochResetsWithoutClearing) {
  VisitedTable table(5);
  table.NewEpoch();
  table.MarkVisited(0);
  table.MarkVisited(4);
  table.NewEpoch();
  EXPECT_FALSE(table.Visited(0));
  EXPECT_FALSE(table.Visited(4));
  EXPECT_TRUE(table.TryVisit(0));
}

TEST(VisitedTableTest, ManyEpochsStayCorrect) {
  VisitedTable table(3);
  for (int epoch = 0; epoch < 1000; ++epoch) {
    table.NewEpoch();
    EXPECT_TRUE(table.TryVisit(epoch % 3));
    EXPECT_FALSE(table.TryVisit(epoch % 3));
    EXPECT_FALSE(table.Visited((epoch + 1) % 3));
  }
}

TEST(VisitedTableTest, SizeReported) {
  VisitedTable table(42);
  EXPECT_EQ(table.size(), 42u);
}

TEST(VisitedTableTest, EpochWrapAroundStaysCorrect) {
  // Regression: at epoch 2^32-1 an unwrapped increment would return to 0,
  // making every stale stamp from older epochs look "visited". The table
  // must instead clear its stamps and restart at epoch 1.
  VisitedTable table(6);
  table.NewEpoch();
  table.MarkVisited(2);
  table.MarkVisited(5);

  table.JumpToEpochForTesting(VisitedTable::kMaxEpoch);
  table.NewEpoch();
  EXPECT_EQ(table.epoch(), 1u);
  for (VectorId v = 0; v < 6; ++v) {
    EXPECT_FALSE(table.Visited(v)) << "stale stamp leaked through wrap at " << v;
  }
  EXPECT_TRUE(table.TryVisit(2));
  EXPECT_FALSE(table.TryVisit(2));
}

TEST(VisitedTableTest, EpochsAdvanceNormallyBelowMax) {
  VisitedTable table(3);
  const std::uint32_t start = table.epoch();
  table.NewEpoch();
  EXPECT_EQ(table.epoch(), start + 1);
  table.NewEpoch();
  EXPECT_EQ(table.epoch(), start + 2);
}

TEST(VisitedTableTest, WrapThenContinueManyEpochs) {
  VisitedTable table(4);
  table.JumpToEpochForTesting(VisitedTable::kMaxEpoch - 2);
  for (int i = 0; i < 10; ++i) {
    table.NewEpoch();
    EXPECT_TRUE(table.TryVisit(i % 4));
    EXPECT_FALSE(table.Visited((i + 1) % 4));
  }
}

// Real wrap-arounds, no JumpToEpochForTesting: every epoch stamps the
// vertex numbered by its epoch value (or the next one), so each wrap
// leaves a stale stamp equal to every epoch value of the next cycle unless
// the wrap clears them. Every accessor must agree that none survives.
TEST(VisitedTableTest, NaturalWrapsClearEveryStaleStamp) {
  constexpr std::size_t kCycle = VisitedTable::kMaxEpoch;  // Epochs 1..255.
  VisitedTable table(kCycle + 3);
  const std::size_t epochs = 3 * kCycle + 7;
  std::size_t wraps = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    const std::uint32_t before = table.epoch();
    table.NewEpoch();
    if (table.epoch() < before) {
      ++wraps;
      EXPECT_EQ(table.epoch(), 1u);
    }
    // Every vertex starts the epoch unvisited, whatever it was stamped with.
    for (VectorId v = 0; v < table.size(); ++v) {
      ASSERT_FALSE(table.Visited(v)) << "epoch " << e << " vertex " << v;
    }
    // Stamp the vertex named by this epoch's residue (or its successor),
    // rotating through the accessors that write stamps.
    const auto v = static_cast<VectorId>(table.epoch());
    switch (e % 4) {
      case 0:
        EXPECT_TRUE(table.TryVisit(v));
        EXPECT_FALSE(table.TryVisit(v));
        break;
      case 1:
        // The walk's use: a count advanced by the result.
        EXPECT_EQ(std::size_t{0} + table.TryVisit(v), 1u);
        EXPECT_EQ(std::size_t{0} + table.TryVisit(v), 0u);
        break;
      case 2:
        table.MarkVisited(v);
        EXPECT_TRUE(table.Visited(v));
        EXPECT_FALSE(table.TryVisit(v));
        break;
      default:
        EXPECT_TRUE(table.TryVisit(v + 1));
        EXPECT_FALSE(table.TryVisit(v + 1));
        break;
    }
  }
  EXPECT_EQ(wraps, 3u);
}

}  // namespace
}  // namespace gass::core
