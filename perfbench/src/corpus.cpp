#include "corpus.h"

#include <random>
#include <sstream>

#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

/// An affine nest of depth 1-3 over a parametric bound with an optional
/// innermost guard and an FP body. Stride plus guard is never emitted:
/// that combination needs a user annotation to count exactly.
std::string affineKernel(const std::string &name, std::mt19937_64 &rng) {
  std::uniform_int_distribution<int> depthDist(1, 3);
  std::uniform_int_distribution<int> styleDist(0, 3);
  std::uniform_int_distribution<int> smallDist(0, 3);

  const int depth = depthDist(rng);
  std::ostringstream out;
  out << "double " << name << "(int n) {\n";
  out << "  double acc = 0.0;\n";
  const char *vars[] = {"i", "j", "k"};
  std::string indent = "  ";
  bool innerStrided = false;
  for (int d = 0; d < depth; ++d) {
    const char *v = vars[d];
    const int style = styleDist(rng);
    if (d + 1 == depth)
      innerStrided = style == 3;
    out << indent << "for (int " << v << " = ";
    switch (style) {
    case 0: // rectangular 0..n-1
      out << "0; " << v << " < n; " << v << "++";
      break;
    case 1: // inclusive 1..n
      out << "1; " << v << " <= n; " << v << "++";
      break;
    case 2: // triangular on the enclosing variable
      if (d > 0)
        out << vars[d - 1] << "; " << v << " < n; " << v << "++";
      else
        out << "0; " << v << " < n; " << v << "++";
      break;
    default: // strided
      out << "0; " << v << " < n; " << v << " += " << (2 + smallDist(rng));
      break;
    }
    out << ") {\n";
    indent += "  ";
  }

  const int guard = innerStrided ? 0 : styleDist(rng);
  const char *inner = vars[depth - 1];
  if (guard == 1) {
    out << indent << "if (" << inner << " >= " << (1 + smallDist(rng))
        << ") {\n";
    indent += "  ";
  } else if (guard == 2) {
    out << indent << "if (" << inner << " % " << (2 + smallDist(rng))
        << " != 0) {\n";
    indent += "  ";
  }

  out << indent << "acc = acc + 1.5;\n";
  out << indent << "acc = acc * 1.000001;\n";

  if (guard == 1 || guard == 2) {
    indent.resize(indent.size() - 2);
    out << indent << "}\n";
  }
  for (int d = depth - 1; d >= 0; --d) {
    indent.resize(indent.size() - 2);
    out << indent << "}\n";
  }
  out << "  return acc;\n";
  out << "}\n";
  return out.str();
}

/// A unit-stride FP pipeline `c[i] = a[i] op b[i] op b[i] ...`.
std::string arrayKernel(const std::string &name, std::mt19937_64 &rng) {
  std::uniform_int_distribution<int> opsDist(1, 3);
  std::uniform_int_distribution<int> opDist(0, 3);
  const char *ops[] = {"+", "-", "*", "/"};
  std::ostringstream out;
  out << "void " << name << "(double* a, double* b, double* c, int n) {\n";
  out << "  for (int i = 0; i < n; i++) {\n";
  out << "    c[i] = a[i]";
  const int nops = opsDist(rng);
  for (int k = 0; k < nops; ++k)
    out << " " << ops[opDist(rng)] << " b[i]";
  out << ";\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

CorpusSource generatedSource(std::size_t index, std::mt19937_64 &rng) {
  std::uniform_int_distribution<int> kernelsDist(1, 8);
  std::bernoulli_distribution arrayDist(0.4);

  CorpusSource out;
  out.name = "gen_" + std::to_string(index) + ".mc";
  out.generated = true;
  std::ostringstream text;
  const int kernels = kernelsDist(rng);
  for (int k = 0; k < kernels; ++k) {
    const std::string name =
        "s" + std::to_string(index) + "_k" + std::to_string(k);
    if (arrayDist(rng)) {
      text << arrayKernel(name, rng) << "\n";
      out.arrayKernels.push_back(name);
    } else {
      text << affineKernel(name, rng) << "\n";
      out.affineKernels.push_back(name);
    }
  }
  text << "double driver(int n) {\n";
  if (!out.arrayKernels.empty()) {
    text << "  double a[n];\n  double b[n];\n  double c[n];\n";
    text << "  for (int i = 0; i < n; i++) {\n";
    text << "    a[i] = 2.0;\n    b[i] = 4.0;\n    c[i] = 0.0;\n  }\n";
  }
  text << "  double acc = 0.0;\n";
  for (const std::string &name : out.affineKernels)
    text << "  acc = acc + " << name << "(n);\n";
  for (const std::string &name : out.arrayKernels)
    text << "  " << name << "(a, b, c, n);\n";
  text << (out.arrayKernels.empty() ? "  return acc;\n"
                                    : "  return acc + c[0];\n");
  text << "}\n";
  out.source = text.str();
  return out;
}

} // namespace

std::vector<CorpusSource> buildCorpus(std::uint64_t seed,
                                      std::size_t generated) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x6d697261ull);
  std::vector<CorpusSource> corpus;
  corpus.reserve(generated + 15);
  for (std::size_t i = 0; i < generated; ++i)
    corpus.push_back(generatedSource(i, rng));
  for (const auto &kernel : mira::workloads::coverageSuite()) {
    CorpusSource source;
    source.name = "@" + kernel.name;
    source.source = kernel.source;
    corpus.push_back(std::move(source));
  }
  for (const auto &workload : mira::workloads::figSeriesWorkloads()) {
    CorpusSource source;
    source.name = "@" + workload.name;
    source.source = *workload.source;
    corpus.push_back(std::move(source));
  }
  return corpus;
}

} // namespace perfbench
