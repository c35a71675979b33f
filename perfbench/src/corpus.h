// Seeded synthetic corpus: the inputs every workload analyzes.
//
// Each generated source composes 1-8 uniquely named kernels plus a
// `driver(int n)` that calls them all. A kernel is either an affine loop
// nest (rectangular, inclusive, triangular or strided loops, optionally
// guarded by an affine or congruence condition) or a unit-stride FP
// array pipeline the vectorizer may or may not take, so source size,
// loop shape and vectorization all vary with the seed. The 15 embedded
// sources of the repository (ten Table I coverage kernels and the five
// fig-series workloads) ride along unchanged. Mira only ever sees the
// generated text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct CorpusSource {
  std::string name;
  std::string source;
  bool generated = false;
  /// Kernels taking `(int n)`, and array kernels taking
  /// `(double *a, double *b, double *c, int n)`; both are called once by
  /// `driver(n)`. Empty for embedded sources.
  std::vector<std::string> affineKernels;
  std::vector<std::string> arrayKernels;
};

/// `generated` seeded sources followed by the 15 embedded ones. The same
/// (seed, generated) always yields the same corpus, byte for byte.
std::vector<CorpusSource> buildCorpus(std::uint64_t seed,
                                      std::size_t generated);

} // namespace perfbench
