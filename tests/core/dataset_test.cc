#include "core/dataset.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace gass::core {
namespace {

Dataset MakeSequential(std::size_t n, std::size_t dim) {
  Dataset data(n, dim);
  for (VectorId i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) {
      data.MutableRow(i)[d] = static_cast<float>(i * dim + d);
    }
  }
  return data;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(DatasetTest, ConstructionAndAccess) {
  Dataset data = MakeSequential(5, 3);
  EXPECT_EQ(data.size(), 5u);
  EXPECT_EQ(data.dim(), 3u);
  EXPECT_FALSE(data.empty());
  EXPECT_FLOAT_EQ(data.Row(2)[1], 7.0f);
  EXPECT_EQ(data.SizeBytes(), 5u * 3u * sizeof(float));
}

TEST(DatasetTest, DefaultIsEmpty) {
  Dataset data;
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(data.size(), 0u);
}

TEST(DatasetTest, CloneIsDeep) {
  Dataset data = MakeSequential(3, 2);
  Dataset copy = data.Clone();
  copy.MutableRow(0)[0] = 99.0f;
  EXPECT_FLOAT_EQ(data.Row(0)[0], 0.0f);
  EXPECT_FLOAT_EQ(copy.Row(0)[0], 99.0f);
}

TEST(DatasetTest, PrefixTakesLeadingRows) {
  Dataset data = MakeSequential(6, 2);
  Dataset prefix = data.Prefix(2);
  EXPECT_EQ(prefix.size(), 2u);
  EXPECT_FLOAT_EQ(prefix.Row(1)[1], 3.0f);
}

TEST(DatasetTest, SelectReordersRows) {
  Dataset data = MakeSequential(4, 2);
  Dataset selected = data.Select({3, 0});
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_FLOAT_EQ(selected.Row(0)[0], 6.0f);
  EXPECT_FLOAT_EQ(selected.Row(1)[0], 0.0f);
}

TEST(DatasetTest, AppendGrowsDataset) {
  Dataset a = MakeSequential(2, 3);
  Dataset b = MakeSequential(3, 3);
  a.Append(b);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_FLOAT_EQ(a.Row(2)[0], 0.0f);
}

TEST(DatasetTest, AppendIntoEmptyAdoptsDim) {
  Dataset a;
  Dataset b = MakeSequential(2, 4);
  a.Append(b);
  EXPECT_EQ(a.dim(), 4u);
  EXPECT_EQ(a.size(), 2u);
}

bool IsAligned(const float* p) {
  return reinterpret_cast<std::uintptr_t>(p) % Dataset::kAlignment == 0;
}

// The storage alignment contract (see core/dataset.h): data() is 64-byte
// aligned however the dataset was produced, so SIMD kernels and prefetch
// can rely on it.
TEST(DatasetAlignmentTest, ContractIsCacheLineSized) {
  EXPECT_EQ(Dataset::kAlignment, 64u);
}

TEST(DatasetAlignmentTest, AllConstructionPathsAligned) {
  Dataset data = MakeSequential(5, 7);
  EXPECT_TRUE(IsAligned(data.data()));

  Dataset clone = data.Clone();
  EXPECT_TRUE(IsAligned(clone.data()));

  Dataset prefix = data.Prefix(3);
  EXPECT_TRUE(IsAligned(prefix.data()));

  Dataset selected = data.Select({4, 1, 2});
  EXPECT_TRUE(IsAligned(selected.data()));

  Dataset appended = MakeSequential(2, 7);
  appended.Append(data);
  EXPECT_TRUE(IsAligned(appended.data()));

  Dataset moved = std::move(clone);
  EXPECT_TRUE(IsAligned(moved.data()));
}

TEST(DatasetAlignmentTest, LoadedDatasetsAligned) {
  Dataset data = MakeSequential(9, 6);
  const std::string path = TempPath("aligned.fvecs");
  ASSERT_TRUE(WriteFvecs(path, data).ok());
  Dataset loaded;
  ASSERT_TRUE(ReadFvecs(path, &loaded).ok());
  EXPECT_TRUE(IsAligned(loaded.data()));
  std::remove(path.c_str());
}

bool IsHugeAligned(const float* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes == 0;
}

// 64-dim rows: 8192 rows fill exactly one 2 MiB page.
constexpr std::size_t kWideDim = 64;
constexpr std::size_t kRowsPerHugePage =
    kHugePageBytes / (kWideDim * sizeof(float));

// Buffers of 2 MiB or more take the allocator's huge-page path on every
// construction path; one byte less keeps the 64-byte path.
TEST(DatasetAlignmentTest, LargeBuffersAreHugePageAligned) {
  const Dataset data = MakeSequential(kRowsPerHugePage + 300, kWideDim);
  EXPECT_TRUE(IsHugeAligned(data.data()));
  EXPECT_TRUE(IsHugeAligned(Dataset(kRowsPerHugePage, kWideDim).data()));
  EXPECT_TRUE(IsHugeAligned(data.Clone().data()));
  EXPECT_TRUE(IsHugeAligned(data.Prefix(kRowsPerHugePage).data()));

  std::vector<VectorId> ids(kRowsPerHugePage + 1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<VectorId>(data.size() - 1 - i);
  }
  const Dataset selected = data.Select(ids);
  EXPECT_TRUE(IsHugeAligned(selected.data()));
  EXPECT_EQ(selected.Row(0)[0], data.Row(data.size() - 1)[0]);
  const Dataset owned = DatasetView(data, ids).Materialize();
  EXPECT_TRUE(IsHugeAligned(owned.data()));

  const std::string path = TempPath("huge.fvecs");
  ASSERT_TRUE(WriteFvecs(path, data).ok());
  Dataset loaded;
  ASSERT_TRUE(ReadFvecs(path, &loaded).ok());
  EXPECT_TRUE(IsHugeAligned(loaded.data()));
  ASSERT_EQ(loaded.size(), data.size());
  EXPECT_EQ(loaded.Row(kRowsPerHugePage)[5], data.Row(kRowsPerHugePage)[5]);
  std::remove(path.c_str());

  // Just under the threshold: the small path, still cache-line aligned.
  const Dataset small(kHugePageBytes / sizeof(float) - 1, 1);
  EXPECT_TRUE(IsAligned(small.data()));
}

// Append moves a buffer from the small path to the huge path; the old
// buffer must be freed through the small path (the sanitizer builds flag
// a mismatched aligned delete).
TEST(DatasetAlignmentTest, AppendAcrossThresholdSwitchesPath) {
  Dataset grown = MakeSequential(kRowsPerHugePage - 100, kWideDim);
  EXPECT_TRUE(IsAligned(grown.data()));
  const Dataset more = MakeSequential(200, kWideDim);
  grown.Append(more);
  ASSERT_EQ(grown.size(), kRowsPerHugePage + 100);
  EXPECT_TRUE(IsHugeAligned(grown.data()));
  const auto last_old = static_cast<VectorId>(kRowsPerHugePage - 101);
  EXPECT_EQ(grown.Row(last_old)[0], static_cast<float>(last_old * kWideDim));
  EXPECT_EQ(grown.Row(kRowsPerHugePage + 99)[3], more.Row(199)[3]);
}

#if defined(__linux__)
// One mapping of /proc/self/smaps: its range, its name ("" if anonymous)
// and its VmFlags line.
struct Mapping {
  std::uintptr_t start = 0;
  std::uintptr_t end = 0;
  std::string name;
  std::string flags;
};

std::vector<Mapping> Mappings() {
  std::ifstream smaps("/proc/self/smaps");
  std::vector<Mapping> maps;
  std::string line;
  while (std::getline(smaps, line)) {
    Mapping m;
    char dash = 0;
    std::string perms, offset, dev, inode;
    std::istringstream header(line);
    if (header >> std::hex >> m.start >> dash >> m.end && dash == '-' &&
        header >> perms >> offset >> dev >> inode) {
      header >> m.name;
      maps.push_back(m);
    } else if (!maps.empty() && line.rfind("VmFlags:", 0) == 0) {
      maps.back().flags = line;
    }
  }
  return maps;
}

// The mapping holding `p`; an empty one if none does.
Mapping MappingOf(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  for (const Mapping& m : Mappings()) {
    if (m.start <= addr && addr < m.end) return m;
  }
  return {};
}

std::string VmFlagsOf(const void* p) { return MappingOf(p).flags; }

TEST(DatasetAlignmentTest, LargeBuffersAdviseHugePages) {
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  if (!std::getline(thp, mode) || mode.find("[never]") != std::string::npos) {
    GTEST_SKIP() << "no transparent huge pages";
  }
  const Dataset data(2 * kRowsPerHugePage + 1, kWideDim);
  EXPECT_NE(VmFlagsOf(data.data()).find(" hg"), std::string::npos)
      << VmFlagsOf(data.data());
}

// A huge buffer lives in a mapping of its own, never on the heap. glibc
// serves a few-MiB aligned request from the heap once freeing a larger
// chunk has raised its mmap threshold; advice given to such a buffer would
// stay on heap ranges that later hold small objects.
TEST(DatasetAlignmentTest, HugeAdviceStaysOffTheHeap) {
  { const Dataset freed(4 * kRowsPerHugePage, kWideDim); }  // 8 MiB.
  {
    const Dataset data(3 * kRowsPerHugePage / 2, kWideDim);  // 3 MiB.
    const Mapping holder = MappingOf(data.data());
    EXPECT_NE(holder.name, "[heap]");
    EXPECT_EQ(holder.start, reinterpret_cast<std::uintptr_t>(data.data()));
  }
  for (const Mapping& m : Mappings()) {
    if (m.name == "[heap]") {
      EXPECT_EQ(m.flags.find(" hg"), std::string::npos) << m.flags;
    }
  }
}
#endif

TEST(DatasetViewTest, DefaultIsEmpty) {
  DatasetView view;
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.size(), 0u);
  EXPECT_EQ(view.dim(), 0u);
  EXPECT_EQ(view.parent(), nullptr);
}

TEST(DatasetViewTest, RowsAliasParentStorage) {
  const Dataset data = MakeSequential(8, 5);
  const DatasetView view(data, {6, 2, 2, 0});
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view.dim(), 5u);
  // Pointer equality, not value equality: a view row IS the parent row.
  EXPECT_EQ(view.Row(0), data.Row(6));
  EXPECT_EQ(view.Row(1), data.Row(2));
  EXPECT_EQ(view.Row(2), data.Row(2));  // Duplicates allowed, still aliased.
  EXPECT_EQ(view.Row(3), data.Row(0));
  EXPECT_EQ(view.GlobalId(0), 6u);
  EXPECT_EQ(view.GlobalId(3), 0u);
  EXPECT_EQ(view.parent(), &data);
}

TEST(DatasetViewTest, AllIsIdentityOverParent) {
  const Dataset data = MakeSequential(5, 3);
  const DatasetView view = DatasetView::All(data);
  ASSERT_EQ(view.size(), data.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.Row(i), data.Row(static_cast<VectorId>(i)));
    EXPECT_EQ(view.GlobalId(i), i);
  }
}

TEST(DatasetViewTest, MaterializeCopiesIntoAlignedDataset) {
  const Dataset data = MakeSequential(8, 5);
  const DatasetView view(data, {7, 1, 4});
  Dataset owned = view.Materialize();
  ASSERT_EQ(owned.size(), 3u);
  ASSERT_EQ(owned.dim(), 5u);
  EXPECT_TRUE(IsAligned(owned.data()));
  for (std::size_t i = 0; i < owned.size(); ++i) {
    for (std::size_t d = 0; d < owned.dim(); ++d) {
      EXPECT_FLOAT_EQ(owned.Row(static_cast<VectorId>(i))[d],
                      view.Row(i)[d]);
    }
    // A real copy, not an alias.
    EXPECT_NE(owned.Row(static_cast<VectorId>(i)), view.Row(i));
  }
  owned.MutableRow(0)[0] = -1.0f;
  EXPECT_FLOAT_EQ(data.Row(7)[0], 35.0f);  // Parent untouched.
}

TEST(DatasetViewTest, AlignmentCarriesOverForPaddedDims) {
  // When dim is a multiple of 16 floats every parent row sits on a 64-byte
  // boundary, and a view row — being the same pointer — inherits that.
  const Dataset data = MakeSequential(6, 16);
  const DatasetView view(data, {5, 3, 1});
  for (std::size_t i = 0; i < view.size(); ++i) {
    ASSERT_TRUE(IsAligned(view.Row(i)));
  }
  const Dataset owned = view.Materialize();
  ASSERT_TRUE(IsAligned(owned.data()));
  for (std::size_t i = 0; i < owned.size(); ++i) {
    ASSERT_TRUE(IsAligned(owned.Row(static_cast<VectorId>(i))));
  }
}

TEST(DatasetIoTest, FvecsRoundTrip) {
  Dataset data = MakeSequential(7, 5);
  const std::string path = TempPath("roundtrip.fvecs");
  ASSERT_TRUE(WriteFvecs(path, data).ok());
  Dataset loaded;
  ASSERT_TRUE(ReadFvecs(path, &loaded).ok());
  ASSERT_EQ(loaded.size(), 7u);
  ASSERT_EQ(loaded.dim(), 5u);
  for (VectorId i = 0; i < 7; ++i) {
    for (std::size_t d = 0; d < 5; ++d) {
      EXPECT_FLOAT_EQ(loaded.Row(i)[d], data.Row(i)[d]);
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetIoTest, ReadMissingFileFails) {
  Dataset out;
  const Status status = ReadFvecs("/nonexistent/path/file.fvecs", &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cannot open"), std::string::npos);
}

TEST(DatasetIoTest, BvecsWidensToFloat) {
  // Hand-write a bvecs file: two 3-dimensional byte vectors.
  const std::string path = TempPath("test.bvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::int32_t dim = 3;
  const std::uint8_t row1[3] = {1, 2, 255};
  const std::uint8_t row2[3] = {0, 128, 64};
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fwrite(row1, 1, 3, f);
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fwrite(row2, 1, 3, f);
  std::fclose(f);

  Dataset loaded;
  ASSERT_TRUE(ReadBvecs(path, &loaded).ok());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_FLOAT_EQ(loaded.Row(0)[2], 255.0f);
  EXPECT_FLOAT_EQ(loaded.Row(1)[1], 128.0f);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, IvecsRoundTrip) {
  const std::vector<std::vector<std::int32_t>> rows = {
      {1, 2, 3}, {}, {42}};
  const std::string path = TempPath("test.ivecs");
  ASSERT_TRUE(WriteIvecs(path, rows).ok());
  std::vector<std::vector<std::int32_t>> loaded;
  ASSERT_TRUE(ReadIvecs(path, &loaded).ok());
  EXPECT_EQ(loaded, rows);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, TruncatedFvecsFails) {
  const std::string path = TempPath("truncated.fvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::int32_t dim = 8;
  const float partial[2] = {1.0f, 2.0f};
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fwrite(partial, sizeof(float), 2, f);  // Only 2 of 8 values.
  std::fclose(f);

  Dataset out;
  EXPECT_FALSE(ReadFvecs(path, &out).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gass::core
