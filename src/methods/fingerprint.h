// Helpers for GraphIndex::ParamsFingerprint overrides: each method encodes
// its construction parameters (field by field, fixed widths, including the
// build seed) into an io::Encoder and hashes the bytes. Any parameter change
// therefore changes the fingerprint stored in snapshot headers, and
// LoadIndex() refuses to bind the snapshot to a differently-configured
// index.

#ifndef GASS_METHODS_FINGERPRINT_H_
#define GASS_METHODS_FINGERPRINT_H_

#include <cstdint>

#include "hash/lsh.h"
#include "io/hash.h"
#include "io/serialize.h"
#include "knngraph/nndescent.h"
#include "methods/hnsw_index.h"

namespace gass::methods {

inline std::uint64_t FingerprintBytes(const io::Encoder& enc) {
  return io::Hash64(enc.bytes().data(), enc.size(), /*seed=*/0x464E47ULL);
}

inline void EncodeParams(io::Encoder* enc,
                         const knngraph::NnDescentParams& p) {
  enc->U64(p.k);
  enc->U64(p.iterations);
  enc->U64(p.sample);
  enc->F64(p.delta);
}

inline void EncodeParams(io::Encoder* enc, const hash::LshParams& p) {
  enc->U64(p.num_tables);
  enc->U64(p.hash_bits);
  enc->F32(p.bucket_width);
  enc->U64(p.projection_dim);
}

/// Version of HNSW's construction algorithm, folded into every fingerprint
/// that encodes HnswParams (HNSW, HVS, LSH-APG, ELPIS, LIVE-HNSW): the same
/// parameters built a different graph under the one-node-at-a-time builder
/// (whose fingerprints carry no version), so its snapshots must fail the
/// fingerprint check rather than be adopted. Version 2 is deterministic
/// batch insertion. The build thread count is not encoded: it never
/// changes the graph.
inline constexpr std::uint32_t kHnswConstructionVersion = 2;

inline void EncodeParams(io::Encoder* enc, const HnswParams& p) {
  enc->U32(kHnswConstructionVersion);
  enc->U64(p.m);
  enc->U64(p.ef_construction);
  enc->U64(p.seed);
}

}  // namespace gass::methods

#endif  // GASS_METHODS_FINGERPRINT_H_
