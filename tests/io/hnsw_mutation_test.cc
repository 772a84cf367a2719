// Seeded mutation test for the HNSW snapshot decoder.
//
// A small HNSW snapshot is taken apart into its sections; the "meta"
// (entry point, levels) and "layers" (upper-layer lists) payloads are then
// mutated — seeded random byte flips, the level, degree and entry fields
// forced to 0 or to their maximum, truncations — and re-sealed with valid
// checksums, so the decoder itself must cope. Every mutant must either be
// refused with a non-OK Status or load into an index whose searches return
// only valid ids (run under the asan preset, a read outside a layer block
// fails the test too).

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "io/snapshot.h"
#include "methods/hnsw_index.h"
#include "synth/generators.h"

namespace gass::io {
namespace {

using core::VectorId;

constexpr std::size_t kN = 400;
constexpr std::size_t kM = 8;

// Byte offsets inside the "meta" payload.
constexpr std::size_t kEntryAt = 0;
constexpr std::size_t kEntryLevelAt = 4;
constexpr std::size_t kInsertedAt = 8;
constexpr std::size_t kNumLayersAt = 16;
constexpr std::size_t kLevelCountAt = 24;
constexpr std::size_t kLevelsAt = 32;

using Bytes = std::vector<std::uint8_t>;

void PutU32(Bytes* bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes->data() + at, &v, sizeof(v));
}
void PutU64(Bytes* bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes->data() + at, &v, sizeof(v));
}
std::uint32_t GetU32(const Bytes& bytes, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

// One list of the "layers" payload: where its degree field sits.
struct ListField {
  std::size_t layer = 0;
  VectorId node = 0;
  std::size_t degree_at = 0;
  std::uint32_t degree = 0;
};

class HnswMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = synth::UniformHypercube(kN, 8, 5);
    params_.m = kM;
    params_.seed = 21;
    methods::HnswIndex index(params_);
    index.Build(data_);
    ASSERT_GE(index.num_layers(), 2u);
    num_layers_ = index.num_layers();
    entry_ = index.entry_point();
    for (VectorId v = 0; v < kN; ++v) level_.push_back(index.level(v));

    const std::string base = std::string(::testing::TempDir()) +
                             "/hnsw_mutation_" + std::to_string(::getpid());
    clean_path_ = base + ".gass";
    mutant_path_ = base + ".mutant.gass";
    ASSERT_TRUE(methods::SaveIndex(index, clean_path_).ok());
    SnapshotReader reader;
    ASSERT_TRUE(SnapshotReader::Open(clean_path_, &reader).ok());
    method_ = reader.method();
    fingerprint_ = reader.params_fingerprint();
    for (const SectionInfo& section : reader.sections()) {
      AlignedBytes payload;
      ASSERT_TRUE(reader.ReadSection(section.name, &payload).ok());
      sections_.emplace_back(section.name,
                             Bytes(payload.begin(), payload.end()));
    }

    // Walk the dense per-layer format: a u64 node count, then per node a
    // u32 degree and its ids.
    const Bytes& layers = Section("layers");
    std::size_t at = 0;
    for (std::size_t l = 1; l <= num_layers_; ++l) {
      layer_count_at_.push_back(at);
      at += sizeof(std::uint64_t);
      for (VectorId v = 0; v < kN; ++v) {
        ListField field{l, v, at, GetU32(layers, at)};
        lists_.push_back(field);
        at += sizeof(std::uint32_t) * (1 + field.degree);
      }
    }
    ASSERT_EQ(at, layers.size());
  }

  void TearDown() override {
    std::remove(clean_path_.c_str());
    std::remove(mutant_path_.c_str());
  }

  const Bytes& Section(const std::string& name) const {
    for (const auto& [section, payload] : sections_) {
      if (section == name) return payload;
    }
    ADD_FAILURE() << "no section " << name;
    return sections_.front().second;
  }

  // Re-seals the snapshot with `name`'s payload replaced, loads it and
  // checks the outcome. Returns the load status.
  core::Status LoadMutant(const std::string& name, const Bytes& payload,
                          const std::string& what) {
    SnapshotWriter writer(method_, fingerprint_, data_.size(), data_.dim());
    for (const auto& [section, clean] : sections_) {
      const Bytes& bytes = section == name ? payload : clean;
      Encoder enc;
      enc.Bytes(bytes.data(), bytes.size());
      EXPECT_TRUE(writer.AddSection(section, std::move(enc)).ok());
    }
    EXPECT_TRUE(writer.WriteTo(mutant_path_).ok());

    methods::HnswIndex index(params_);
    const core::Status status =
        methods::LoadIndex(&index, data_, mutant_path_);
    if (!status.ok()) {
      EXPECT_FALSE(status.message().empty()) << what;
      return status;
    }
    methods::SearchParams search;
    search.k = 10;
    search.beam_width = 32;
    for (VectorId q = 0; q < kN; q += 23) {
      const methods::SearchResult result = index.Search(data_.Row(q), search);
      for (const core::Neighbor& nb : result.neighbors) {
        EXPECT_LT(nb.id, kN) << what;
      }
    }
    return status;
  }

  // The first list of `layer` that holds ids.
  const ListField& FirstLinkedList(std::size_t layer) const {
    for (const ListField& field : lists_) {
      if (field.layer == layer && field.degree > 0) return field;
    }
    ADD_FAILURE() << "layer " << layer << " has no links";
    return lists_.front();
  }

  core::Dataset data_;
  methods::HnswParams params_;
  std::size_t num_layers_ = 0;
  VectorId entry_ = 0;
  std::vector<std::uint32_t> level_;
  std::string clean_path_;
  std::string mutant_path_;
  std::string method_;
  std::uint64_t fingerprint_ = 0;
  std::vector<std::pair<std::string, Bytes>> sections_;
  std::vector<std::size_t> layer_count_at_;
  std::vector<ListField> lists_;
};

TEST_F(HnswMutationTest, UnmutatedSectionsLoad) {
  EXPECT_TRUE(LoadMutant("meta", Section("meta"), "clean").ok());
}

TEST_F(HnswMutationTest, SeededByteFlips) {
  core::Rng rng(2024);
  for (const std::string name : {"meta", "layers"}) {
    std::size_t rejected = 0;
    for (int trial = 0; trial < 150; ++trial) {
      Bytes bytes = Section(name);
      const std::uint64_t flips = 1 + rng.UniformInt(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        bytes[rng.UniformInt(bytes.size())] ^=
            static_cast<std::uint8_t>(1 + rng.UniformInt(255));
      }
      const std::string what =
          name + " flip trial " + std::to_string(trial);
      if (!LoadMutant(name, bytes, what).ok()) ++rejected;
    }
    EXPECT_GT(rejected, 0u) << name;
  }
}

TEST_F(HnswMutationTest, MetaFieldsForcedToZeroOrMax) {
  const std::uint32_t max32 = std::numeric_limits<std::uint32_t>::max();
  const std::uint64_t max64 = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint32_t value : {0u, max32}) {
    for (const std::size_t at : {kEntryAt, kEntryLevelAt}) {
      Bytes bytes = Section("meta");
      PutU32(&bytes, at, value);
      LoadMutant("meta", bytes, "meta u32 at " + std::to_string(at));
    }
  }
  for (const std::uint64_t value : {std::uint64_t{0}, max64}) {
    for (const std::size_t at : {kInsertedAt, kNumLayersAt, kLevelCountAt}) {
      Bytes bytes = Section("meta");
      PutU64(&bytes, at, value);
      LoadMutant("meta", bytes, "meta u64 at " + std::to_string(at));
    }
  }
  // Levels: the entry, every upper-layer node and a sample of base-only
  // nodes, forced to 0, to the top layer and to the maximum.
  for (VectorId v = 0; v < kN; ++v) {
    if (level_[v] == 0 && v % 17 != 0) continue;
    for (const std::uint32_t value :
         {0u, static_cast<std::uint32_t>(num_layers_), max32}) {
      Bytes bytes = Section("meta");
      PutU32(&bytes, kLevelsAt + v * sizeof(std::uint32_t), value);
      LoadMutant("meta", bytes,
                 "level of node " + std::to_string(v) + " set to " +
                     std::to_string(value));
    }
  }
}

TEST_F(HnswMutationTest, LayerFieldsForcedToZeroOrMax) {
  const std::uint32_t max32 = std::numeric_limits<std::uint32_t>::max();
  for (const std::size_t at : layer_count_at_) {
    for (const std::uint64_t value :
         {std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max()}) {
      Bytes bytes = Section("layers");
      PutU64(&bytes, at, value);
      LoadMutant("layers", bytes, "layer node count at " + std::to_string(at));
    }
  }
  // Degrees: every linked list and a sample of empty ones.
  for (const ListField& field : lists_) {
    if (field.degree == 0 && field.node % 29 != 0) continue;
    for (const std::uint32_t value : {0u, 1u, max32}) {
      if (value == field.degree) continue;
      Bytes bytes = Section("layers");
      PutU32(&bytes, field.degree_at, value);
      LoadMutant("layers", bytes,
                 "layer " + std::to_string(field.layer) + " node " +
                     std::to_string(field.node) + " degree set to " +
                     std::to_string(value));
    }
  }
}

TEST_F(HnswMutationTest, TruncatedSectionsRejected) {
  for (const std::string name : {"meta", "layers"}) {
    const std::size_t size = Section(name).size();
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, size / 3, size / 2,
          size - 4, size - 1}) {
      Bytes bytes = Section(name);
      bytes.resize(cut);
      EXPECT_FALSE(
          LoadMutant(name, bytes, name + " cut to " + std::to_string(cut))
              .ok())
          << name << " cut to " << cut;
    }
  }
}

// The four layouts the decoder must refuse because the compact layer stack
// would otherwise read outside a node's blocks.
TEST_F(HnswMutationTest, OutOfBlockLayoutsRejectedByName) {
  const ListField& first = FirstLinkedList(1);
  ASSERT_NE(first.node, entry_);
  VectorId base_only = 0;
  while (level_[base_only] != 0) ++base_only;

  {
    // The first linked node of layer 1 drops to level 0: no earlier list
    // names it, so its own list is the first fault.
    Bytes bytes = Section("meta");
    PutU32(&bytes, kLevelsAt + first.node * sizeof(std::uint32_t), 0);
    const core::Status status = LoadMutant("meta", bytes, "list above level");
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("list above its level"),
              std::string::npos)
        << status.message();
  }
  {
    Bytes bytes = Section("layers");
    PutU32(&bytes, first.degree_at, kM + 1);
    const core::Status status = LoadMutant("layers", bytes, "long list");
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("exceeds the bound"), std::string::npos)
        << status.message();
  }
  {
    Bytes bytes = Section("layers");
    PutU32(&bytes, first.degree_at + sizeof(std::uint32_t), base_only);
    const core::Status status = LoadMutant("layers", bytes, "edge below");
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("below the layer"), std::string::npos)
        << status.message();
  }
  {
    Bytes bytes = Section("meta");
    PutU32(&bytes, kEntryAt, base_only);
    const core::Status status = LoadMutant("meta", bytes, "low entry");
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("entry point's level"), std::string::npos)
        << status.message();
  }
}

}  // namespace
}  // namespace gass::io
