#include "methods/hnsw_index.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "eval/ground_truth.h"
#include "eval/recall.h"
#include "io/snapshot.h"
#include "methods/fingerprint.h"
#include "synth/generators.h"

namespace gass::methods {
namespace {

using core::Dataset;
using core::VectorId;

TEST(HnswTest, LayersExistOnModerateData) {
  const Dataset data = synth::UniformHypercube(2000, 8, 1);
  HnswParams params;
  params.m = 8;
  HnswIndex index(params);
  index.Build(data);
  // With n = 2000 and M = 8, Eq. 1 yields several hierarchical layers.
  EXPECT_GE(index.num_layers(), 1u);
  EXPECT_LT(index.entry_point(), data.size());
}

TEST(HnswTest, BaseLayerDegreesBounded) {
  const Dataset data = synth::UniformHypercube(800, 8, 3);
  HnswParams params;
  params.m = 8;
  HnswIndex index(params);
  index.Build(data);
  EXPECT_LE(index.graph().MaxDegree(), params.m * 2);
}

TEST(HnswTest, HighRecallAtWideBeam) {
  synth::ClusterParams cluster_params;
  const Dataset data = synth::GaussianClusters(1000, 16, cluster_params, 5);
  const Dataset queries = synth::GaussianClusters(20, 16, cluster_params, 6);
  const auto truth = eval::BruteForceKnn(data, queries, 10, 1);

  HnswIndex index(HnswParams{});
  index.Build(data);
  SearchParams params;
  params.k = 10;
  params.beam_width = 100;
  std::vector<std::vector<core::Neighbor>> results;
  for (VectorId q = 0; q < queries.size(); ++q) {
    results.push_back(index.Search(queries.Row(q), params).neighbors);
  }
  EXPECT_GE(eval::MeanRecall(results, truth, 10), 0.95);
}

TEST(HnswTest, RecallImprovesWithBeamWidth) {
  const Dataset data = synth::UniformHypercube(1500, 12, 7);
  const Dataset queries = synth::UniformHypercube(25, 12, 8);
  const auto truth = eval::BruteForceKnn(data, queries, 10, 1);

  HnswIndex index(HnswParams{});
  index.Build(data);
  auto recall_at = [&](std::size_t beam) {
    SearchParams params;
    params.k = 10;
    params.beam_width = beam;
    std::vector<std::vector<core::Neighbor>> results;
    for (VectorId q = 0; q < queries.size(); ++q) {
      results.push_back(index.Search(queries.Row(q), params).neighbors);
    }
    return eval::MeanRecall(results, truth, 10);
  };
  const double narrow = recall_at(10);
  const double wide = recall_at(200);
  EXPECT_GE(wide, narrow);
  EXPECT_GE(wide, 0.9);
}

TEST(HnswTest, DeterministicAcrossRebuilds) {
  const Dataset data = synth::UniformHypercube(400, 8, 9);
  HnswParams params;
  params.seed = 77;
  HnswIndex a(params), b(params);
  a.Build(data);
  b.Build(data);
  for (VectorId v = 0; v < data.size(); ++v) {
    EXPECT_EQ(a.graph().Neighbors(v), b.graph().Neighbors(v));
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace

// Builds on an explicit number of workers; BuildPrefix always uses
// core::DefaultThreadCount().
class HnswIndexTestPeer {
 public:
  static BuildStats BuildOn(HnswIndex* index, const Dataset& data,
                            std::size_t threads) {
    return index->BuildPrefixOn(data, data.size(), threads);
  }
};

namespace {

TEST(HnswTest, BatchBuildIdenticalAcrossThreadCounts) {
  // n = 3000 gives batches up to 60 nodes, so every thread count splits
  // the batch searches and the reverse-edge targets differently.
  const Dataset data = synth::UniformHypercube(3000, 8, 31);
  std::string reference;
  std::uint64_t reference_dists = 0;
  for (const std::size_t threads : {1, 2, 3, 4}) {
    HnswParams params;
    params.seed = 19;
    HnswIndex index(params);
    const BuildStats stats = HnswIndexTestPeer::BuildOn(&index, data, threads);
    const std::string path = std::string(::testing::TempDir()) +
                             "/hnsw_threads" + std::to_string(threads) +
                             ".bin";
    ASSERT_TRUE(SaveIndex(index, path).ok());
    const std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    ASSERT_FALSE(bytes.empty());
    if (threads == 1) {
      reference = bytes;
      reference_dists = stats.distance_computations;
      continue;
    }
    EXPECT_EQ(bytes, reference) << threads << " build threads";
    EXPECT_EQ(stats.distance_computations, reference_dists)
        << threads << " build threads";
  }
}

TEST(HnswTest, FingerprintPinsConstructionVersion) {
  HnswParams params;
  params.seed = 3;
  const std::uint64_t fingerprint = HnswIndex(params).ParamsFingerprint();

  // The one-node-at-a-time builder encoded (m, ef_construction, seed) with
  // no version; its snapshots must not bind to a batch-built index.
  io::Encoder serial;
  serial.U64(params.m);
  serial.U64(params.ef_construction);
  serial.U64(params.seed);
  EXPECT_NE(FingerprintBytes(serial), fingerprint);
}

TEST(HnswTest, SaveLoadRoundTripPreservesSearchExactly) {
  const Dataset data = synth::UniformHypercube(500, 8, 23);
  HnswParams params;
  params.seed = 5;
  HnswIndex original(params);
  original.Build(data);

  const std::string path =
      std::string(::testing::TempDir()) + "/hnsw_full_index.bin";
  ASSERT_TRUE(original.Save(path).ok());

  HnswIndex restored(params);
  ASSERT_TRUE(restored.Load(path, data).ok());
  EXPECT_EQ(restored.num_layers(), original.num_layers());
  EXPECT_EQ(restored.entry_point(), original.entry_point());
  EXPECT_EQ(restored.inserted_count(), original.inserted_count());

  SearchParams search;
  search.k = 10;
  search.beam_width = 64;
  for (VectorId q = 0; q < 10; ++q) {
    const auto a = original.Search(data.Row(q * 31), search);
    const auto b = restored.Search(data.Row(q * 31), search);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".base").c_str());
  for (std::size_t l = 0; l < original.num_layers(); ++l) {
    std::remove((path + ".layer" + std::to_string(l)).c_str());
  }
}

TEST(HnswTest, LoadRejectsMismatchedData) {
  const Dataset data = synth::UniformHypercube(200, 8, 29);
  HnswIndex index(HnswParams{});
  index.Build(data);
  const std::string path =
      std::string(::testing::TempDir()) + "/hnsw_mismatch.bin";
  ASSERT_TRUE(index.Save(path).ok());

  const Dataset other = synth::UniformHypercube(100, 8, 29);
  HnswIndex restored(HnswParams{});
  EXPECT_FALSE(restored.Load(path, other).ok());
  std::remove(path.c_str());
  std::remove((path + ".base").c_str());
  for (std::size_t l = 0; l < index.num_layers(); ++l) {
    std::remove((path + ".layer" + std::to_string(l)).c_str());
  }
}

TEST(HnswTest, ExtendMatchesFullBuildBehaviour) {
  // Streaming insertion: index half the rows, Extend with the rest, and
  // verify searches cover the late insertions.
  const Dataset data = synth::UniformHypercube(600, 8, 13);
  HnswIndex index(HnswParams{});
  index.BuildPrefix(data, 300);
  EXPECT_EQ(index.inserted_count(), 300u);

  // A query equal to a not-yet-inserted row must not return that row.
  SearchParams params;
  params.k = 1;
  params.beam_width = 64;
  {
    const auto result = index.Search(data.Row(450), params);
    ASSERT_FALSE(result.neighbors.empty());
    EXPECT_LT(result.neighbors[0].id, 300u);
  }

  index.Extend(600);
  EXPECT_EQ(index.inserted_count(), 600u);
  {
    const auto result = index.Search(data.Row(450), params);
    ASSERT_FALSE(result.neighbors.empty());
    EXPECT_EQ(result.neighbors[0].id, 450u);
    EXPECT_FLOAT_EQ(result.neighbors[0].distance, 0.0f);
  }
}

TEST(HnswTest, ExtendedIndexStillHighRecall) {
  const Dataset data = synth::UniformHypercube(800, 12, 17);
  HnswIndex streamed(HnswParams{});
  streamed.BuildPrefix(data, 400);
  streamed.Extend(800);

  const Dataset queries = synth::UniformHypercube(20, 12, 18);
  const auto truth = eval::BruteForceKnn(data, queries, 10, 1);
  SearchParams params;
  params.k = 10;
  params.beam_width = 120;
  std::vector<std::vector<core::Neighbor>> results;
  for (VectorId q = 0; q < queries.size(); ++q) {
    results.push_back(streamed.Search(queries.Row(q), params).neighbors);
  }
  EXPECT_GE(eval::MeanRecall(results, truth, 10), 0.9);
}

TEST(HnswTest, SearchStatsPopulated) {
  const Dataset data = synth::UniformHypercube(300, 8, 11);
  HnswIndex index(HnswParams{});
  index.Build(data);
  SearchParams params;
  const SearchResult result = index.Search(data.Row(0), params);
  EXPECT_GT(result.stats.distance_computations, 0u);
  EXPECT_GT(result.stats.hops, 0u);
  EXPECT_GE(result.stats.elapsed_seconds, 0.0);
  ASSERT_FALSE(result.neighbors.empty());
  EXPECT_EQ(result.neighbors[0].id, 0u);  // Query is a dataset point.
}

TEST(HnswTest, LayersSectionMatchesDenseReferenceEncoding) {
  const Dataset data = synth::UniformHypercube(3000, 8, 41);
  HnswParams params;
  params.m = 8;
  params.seed = 3;
  HnswIndex index(params);
  index.Build(data);
  ASSERT_GE(index.num_layers(), 2u);

  const std::string path =
      std::string(::testing::TempDir()) + "/hnsw_layers_section.gass";
  ASSERT_TRUE(SaveIndex(index, path).ok());
  io::SnapshotReader reader;
  ASSERT_TRUE(io::SnapshotReader::Open(path, &reader).ok());
  io::AlignedBytes saved;
  ASSERT_TRUE(reader.ReadSection("layers", &saved).ok());
  std::remove(path.c_str());

  // One dense graph per layer, as the snapshot format was defined.
  io::Encoder reference;
  for (std::size_t l = 1; l <= index.num_layers(); ++l) {
    core::Graph dense(data.size());
    for (VectorId v = 0; v < data.size(); ++v) {
      if (index.level(v) < l) continue;
      std::size_t degree = 0;
      const VectorId* ids = index.layers().Neighbors(l, v, &degree);
      dense.SetNeighbors(v, std::vector<VectorId>(ids, ids + degree));
    }
    io::EncodeGraph(dense, &reference);
  }
  ASSERT_EQ(saved.size(), reference.size());
  EXPECT_TRUE(std::equal(saved.begin(), saved.end(),
                         reference.bytes().begin()));
}

TEST(HnswTest, ExtendGrowsANewTopLayer) {
  const Dataset data = synth::UniformHypercube(1500, 8, 43);
  HnswParams params;
  params.m = 8;
  params.seed = 11;
  HnswIndex full(params);
  full.Build(data);
  // Levels are drawn in id order and the entry point is the first node to
  // reach the top level, so every node before it sits below that layer.
  const VectorId first_top = full.entry_point();
  ASSERT_GE(first_top, 50u);

  HnswIndex streamed(params);
  streamed.BuildPrefix(data, first_top);
  const std::size_t prefix_layers = streamed.num_layers();
  EXPECT_LT(prefix_layers, full.num_layers());
  streamed.Extend(data.size());
  EXPECT_EQ(streamed.num_layers(), full.num_layers());
  EXPECT_EQ(streamed.entry_point(), full.entry_point());

  for (VectorId v = 0; v < data.size(); ++v) {
    ASSERT_EQ(streamed.level(v), full.level(v)) << v;
    for (std::size_t l = 1; l <= streamed.level(v); ++l) {
      std::size_t degree = 0;
      const VectorId* ids = streamed.layers().Neighbors(l, v, &degree);
      EXPECT_LE(degree, params.m);
      for (std::size_t i = 0; i < degree; ++i) {
        EXPECT_NE(ids[i], v);
        EXPECT_GE(streamed.level(ids[i]), l) << "layer " << l;
      }
    }
  }
  // The first layer that appeared during Extend links its members.
  const std::size_t new_layer = prefix_layers + 1;
  std::size_t members = 0;
  std::size_t links = 0;
  for (VectorId v = 0; v < data.size(); ++v) {
    if (streamed.level(v) < new_layer) continue;
    std::size_t degree = 0;
    streamed.layers().Neighbors(new_layer, v, &degree);
    ++members;
    links += degree;
  }
  ASSERT_GE(members, 2u);
  EXPECT_GT(links, 0u);

  const Dataset queries = synth::UniformHypercube(25, 8, 44);
  const auto truth = eval::BruteForceKnn(data, queries, 10, 1);
  SearchParams search;
  search.k = 10;
  search.beam_width = 80;
  std::vector<std::vector<core::Neighbor>> streamed_results, full_results;
  for (VectorId q = 0; q < queries.size(); ++q) {
    streamed_results.push_back(
        streamed.Search(queries.Row(q), search).neighbors);
    full_results.push_back(full.Search(queries.Row(q), search).neighbors);
  }
  const double streamed_recall = eval::MeanRecall(streamed_results, truth, 10);
  EXPECT_GE(streamed_recall, 0.9);
  EXPECT_NEAR(streamed_recall, eval::MeanRecall(full_results, truth, 10),
              0.05);
  const auto self = streamed.Search(data.Row(data.size() - 1), search);
  ASSERT_FALSE(self.neighbors.empty());
  EXPECT_EQ(self.neighbors[0].id, data.size() - 1);
}

TEST(HnswTest, IndexBytesCountUpperLayerMembersOnly) {
  const Dataset data = synth::UniformHypercube(4000, 8, 47);
  HnswParams params;
  params.m = 16;
  HnswIndex index(params);
  const BuildStats stats = index.Build(data);
  EXPECT_EQ(stats.index_bytes, index.IndexBytes());

  std::size_t memberships = 0;
  for (VectorId v = 0; v < data.size(); ++v) memberships += index.level(v);
  ASSERT_GT(memberships, 0u);
  const std::size_t n = data.size();
  const std::size_t word = sizeof(std::uint32_t);
  // Level table, one pool offset per node, one [count | M + 1 ids] block
  // per (node, upper layer).
  const std::size_t upper = n * word + n * word +
                            memberships * (params.m + 2) * word;
  EXPECT_LE(index.IndexBytes(), index.graph().MemoryBytes() + upper);
  // Less than the empty list headers of a single dense layer.
  EXPECT_LT(index.IndexBytes() - index.graph().MemoryBytes(),
            n * sizeof(std::vector<VectorId>));
}

}  // namespace
}  // namespace gass::methods
