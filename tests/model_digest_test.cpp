// Golden model digests: the serialized model and the rendered
// diagnostics of every embedded source and of 220 seeded kernels, pinned
// as FNV-1a digests recorded from a known-good build. The serialized
// object of each of those sources is pinned the same way, so emitted
// machine code (register choice, instruction selection, encoding) is
// pinned directly, not only through the opcode counts a model carries.
//
// The other byte pins compare two paths through the same binary (batch
// against core::analyze, a cache hit against a fresh compute). This one
// compares against a previous version of the code, so an optimization of
// any pipeline stage that moves a single model byte fails here.
//
// If a change is *meant* to change models, re-record the constants from
// the failure messages and say why in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/artifacts.h"
#include "core/compiler.h"
#include "model/serialize.h"
#include "support/hash.h"
#include "workloads/coverage_suite.h"
#include "workloads/random_kernels.h"
#include "workloads/workloads.h"

namespace mira {
namespace {

/// Digest of one analysis: the ok flag, the serialized model and the
/// rendered diagnostics, in that order.
std::uint64_t analysisDigest(const std::string &name,
                             const std::string &source) {
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = source;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics;
  core::Artifacts arts = core::analyze(spec);
  std::string bytes(1, arts.ok ? '1' : '0');
  if (arts.model)
    model::serializeModel(*arts.model, bytes);
  return fnv1a(arts.diagnostics, fnv1a(bytes));
}

/// Digest of the serialized object, optimized then unoptimized (the
/// unoptimized build runs register allocation and codegen on MIR that
/// copy propagation and DCE have not touched). A source that fails to
/// compile contributes a fixed marker.
std::uint64_t objectDigest(const std::string &name,
                           const std::string &source) {
  std::uint64_t digest = kFnvOffsetBasis;
  for (bool optimize : {true, false}) {
    core::CompileOptions options;
    options.compiler.optimize = optimize;
    DiagnosticEngine diags;
    auto program = core::compileProgram(source, name, options, diags);
    if (!program) {
      digest = hashCombine(digest, fnv1a(std::string("no object")));
      continue;
    }
    const std::vector<std::uint8_t> bytes = program->object.serialize();
    digest = hashCombine(digest, fnv1a(bytes.data(), bytes.size()));
  }
  return digest;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value << "ull";
  return out.str();
}

struct Golden {
  const char *name;
  std::uint64_t digest;
};

// The ten Table I coverage kernels, then the five fig-series workloads.
const Golden kEmbedded[] = {
    {"applu", 0xdc5c9306a9d1de22ull},
    {"apsi", 0xf7c5d6aa62dd8dc0ull},
    {"mdg", 0x4d26c172ae6efedaull},
    {"lucas", 0x9c18f26c7c5bc2c6ull},
    {"mgrid", 0x48a9f3c833839c39ull},
    {"quake", 0x772be91468c7113bull},
    {"swim", 0x5df57210e09de61full},
    {"adm", 0xf46c4a43340a2033ull},
    {"dyfesm", 0x29283a6e0265263full},
    {"mg3d", 0xa5c15788cd5b8d41ull},
    {"stream", 0x19065df8ec3b04ebull},
    {"dgemm", 0x21363b21fa2985ebull},
    {"minife", 0x80033ff6bd563f83ull},
    {"fig5", 0x9c023d292a057fa6ull},
    {"listings", 0xcf2d2620651aba84ull},
};

/// The ten Table I coverage kernels, then the five fig-series workloads.
std::vector<std::pair<std::string, const std::string *>> embeddedSources() {
  std::vector<std::pair<std::string, const std::string *>> sources;
  for (const auto &kernel : workloads::coverageSuite())
    sources.emplace_back(kernel.name, &kernel.source);
  for (const auto &workload : workloads::figSeriesWorkloads())
    sources.emplace_back(workload.name, workload.source);
  return sources;
}

TEST(ModelDigest, EmbeddedSourcesMatchTheRecordedModels) {
  const auto sources = embeddedSources();
  ASSERT_EQ(sources.size(), std::size(kEmbedded));
  for (std::size_t i = 0; i < sources.size(); ++i) {
    ASSERT_EQ(sources[i].first, kEmbedded[i].name);
    const std::uint64_t digest =
        analysisDigest("@" + sources[i].first, *sources[i].second);
    EXPECT_EQ(digest, kEmbedded[i].digest)
        << sources[i].first << ": recorded " << hex(kEmbedded[i].digest)
        << ", got " << hex(digest);
  }
}

/// One chained digest (analysisDigest or objectDigest) over `count`
/// kernels drawn from one seeded engine.
template <typename Generator, typename Digest>
std::uint64_t kernelBatchDigest(Generator generate, unsigned seed, int count,
                                Digest digestOf) {
  std::mt19937 rng(seed);
  std::uint64_t digest = kFnvOffsetBasis;
  for (int i = 0; i < count; ++i)
    digest = hashCombine(digest, digestOf("random.mc", generate(rng)));
  return digest;
}

// makeKernel: 15 seeds x 8 kernels.
const std::uint64_t kAffineKernels[] = {
    0x7304841d95e90865ull, 0x1814fbc5283b57b4ull, 0x35f77479933c35caull,
    0x58d2a440f5e99e83ull, 0xc7a66d023cc6418dull, 0x553e5ecabe9328c6ull,
    0x8858379c4c149de8ull, 0x555468636df1b2a3ull, 0x78ab5c30bd62f9f5ull,
    0x72c1a32981b992cfull, 0xd7d33d375302b653ull, 0xfb1fac5de427a2f7ull,
    0x4cd5544b79ed30e5ull, 0xeec315ff1fa55587ull, 0x51bc970894d1cf29ull,
};

// makeArrayKernel: 10 seeds x 10 kernels.
const std::uint64_t kArrayKernels[] = {
    0x88b78cf1127cb96ull, 0x529ce91b99c9d30aull, 0xf97485264c8c4e4aull,
    0xbe7276e57d41ab26ull, 0xa377dd504844f953ull, 0xa325a95e18bd3e0dull,
    0x110f4a1571e2c5ceull, 0x3bc914ca095d35a5ull, 0x234fd1be18d487d8ull,
    0xd4a04207de534ffull,
};

TEST(ModelDigest, SeededAffineKernelsMatchTheRecordedModels) {
  for (unsigned seed = 1; seed <= std::size(kAffineKernels); ++seed) {
    const std::uint64_t digest =
        kernelBatchDigest(workloads::makeKernel, seed, 8, analysisDigest);
    EXPECT_EQ(digest, kAffineKernels[seed - 1])
        << "seed " << seed << ": recorded " << hex(kAffineKernels[seed - 1])
        << ", got " << hex(digest);
  }
}

TEST(ModelDigest, SeededArrayKernelsMatchTheRecordedModels) {
  for (unsigned seed = 1; seed <= std::size(kArrayKernels); ++seed) {
    const std::uint64_t digest =
        kernelBatchDigest(workloads::makeArrayKernel, seed, 10, analysisDigest);
    EXPECT_EQ(digest, kArrayKernels[seed - 1])
        << "seed " << seed << ": recorded " << hex(kArrayKernels[seed - 1])
        << ", got " << hex(digest);
  }
}

// Object digests of the same sources, in the same order.
const Golden kEmbeddedObjects[] = {
    {"applu", 0x4b586dbdb473c547ull},
    {"apsi", 0x1ebfc4abb3efa0deull},
    {"mdg", 0x71fd2daa1669677eull},
    {"lucas", 0x481f59e95335e189ull},
    {"mgrid", 0x9c9fb839eb790cacull},
    {"quake", 0xd961ecda275f3616ull},
    {"swim", 0xda56f9eed564e76dull},
    {"adm", 0xd2108797eba8179eull},
    {"dyfesm", 0x644be19534369a73ull},
    {"mg3d", 0x8c4f7e327f663772ull},
    {"stream", 0x17fdaa2162033246ull},
    {"dgemm", 0x5fafebeb9aafbdf8ull},
    {"minife", 0x41c88d0a9db3d8d5ull},
    {"fig5", 0x33f386811c7b3455ull},
    {"listings", 0xa2a8aca04400f3e5ull},
};

// makeKernel: 15 seeds x 8 kernels.
const std::uint64_t kAffineKernelObjects[] = {
    0x8efd3183f16ede36ull, 0x8f28369b4a5f830full, 0x1ad3cf6e7782f09ull,
    0xafbe00090823ccffull, 0xf5e03d90556589b6ull, 0x5bb7fb209d89dc1full,
    0xc8ed402e6208ff93ull, 0x78a6b1985250eaaull, 0x3df17a46645f304bull,
    0xace3e31e2d3b5016ull, 0x7e22949866a29ab1ull, 0x5b33883526bd8e44ull,
    0x59663492a32c187cull, 0xa69b754a31d53646ull, 0xc50376461ac2afc5ull,
};

// makeArrayKernel: 10 seeds x 10 kernels.
const std::uint64_t kArrayKernelObjects[] = {
    0x8cca09877327f331ull, 0x8497afcaf2a06373ull, 0xb9fca25cadd5107dull,
    0xc5ed6c747bc21749ull, 0xb79b464f685bfa6ull, 0x60a04fa0467d886eull,
    0xa070897a2281bdbaull, 0x805a1ac4a5bbeb4dull, 0x1660c8565b163ca9ull,
    0xb41dca46349e1672ull,
};

TEST(ObjectDigest, EmbeddedSourcesMatchTheRecordedObjects) {
  const auto sources = embeddedSources();
  ASSERT_EQ(sources.size(), std::size(kEmbeddedObjects));
  for (std::size_t i = 0; i < sources.size(); ++i) {
    ASSERT_EQ(sources[i].first, kEmbeddedObjects[i].name);
    const std::uint64_t digest =
        objectDigest("@" + sources[i].first, *sources[i].second);
    EXPECT_EQ(digest, kEmbeddedObjects[i].digest)
        << sources[i].first << ": recorded "
        << hex(kEmbeddedObjects[i].digest) << ", got " << hex(digest);
  }
}

TEST(ObjectDigest, SeededAffineKernelsMatchTheRecordedObjects) {
  for (unsigned seed = 1; seed <= std::size(kAffineKernelObjects); ++seed) {
    const std::uint64_t digest =
        kernelBatchDigest(workloads::makeKernel, seed, 8, objectDigest);
    EXPECT_EQ(digest, kAffineKernelObjects[seed - 1])
        << "seed " << seed << ": recorded "
        << hex(kAffineKernelObjects[seed - 1]) << ", got " << hex(digest);
  }
}

TEST(ObjectDigest, SeededArrayKernelsMatchTheRecordedObjects) {
  for (unsigned seed = 1; seed <= std::size(kArrayKernelObjects); ++seed) {
    const std::uint64_t digest =
        kernelBatchDigest(workloads::makeArrayKernel, seed, 10, objectDigest);
    EXPECT_EQ(digest, kArrayKernelObjects[seed - 1])
        << "seed " << seed << ": recorded "
        << hex(kArrayKernelObjects[seed - 1]) << ", got " << hex(digest);
  }
}

} // namespace
} // namespace mira
