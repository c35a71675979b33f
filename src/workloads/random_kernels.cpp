#include "workloads/random_kernels.h"

#include <sstream>

namespace mira::workloads {

std::string makeKernel(std::mt19937 &rng) {
  std::uniform_int_distribution<int> depthDist(1, 3);
  std::uniform_int_distribution<int> styleDist(0, 3);
  std::uniform_int_distribution<int> smallDist(0, 3);

  int depth = depthDist(rng);
  std::ostringstream out;
  out << "double kernel(int n) {\n";
  out << "  double acc = 0.0;\n";
  const char *vars[] = {"i", "j", "k"};
  std::string indent = "  ";
  bool innerStrided = false;
  for (int d = 0; d < depth; ++d) {
    const char *v = vars[d];
    int style = styleDist(rng);
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
    case 2: // triangular on the previous variable
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

  // Optional guard at the innermost level. Stride + guard needs a user
  // annotation (an arithmetic-progression/congruence intersection the
  // counter deliberately refuses to guess), so exactness is only
  // expected without that combination.
  int guard = innerStrided ? 0 : styleDist(rng);
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

std::string makeArrayKernel(std::mt19937 &rng) {
  std::uniform_int_distribution<int> opsDist(1, 3);
  std::uniform_int_distribution<int> opDist(0, 3);
  const char *ops[] = {"+", "-", "*", "/"};
  std::ostringstream out;
  out << "void kernel(double* a, double* b, double* c, int n) {\n";
  out << "  for (int i = 0; i < n; i++) {\n";
  int nops = opsDist(rng);
  out << "    c[i] = a[i]";
  for (int k = 0; k < nops; ++k)
    out << " " << ops[opDist(rng)] << " b[i]";
  out << ";\n";
  out << "  }\n";
  out << "}\n";
  out << "double driver(int n) {\n";
  out << "  double a[n];\n";
  out << "  double b[n];\n";
  out << "  double c[n];\n";
  out << "  for (int i = 0; i < n; i++) {\n";
  out << "    a[i] = 2.0;\n";
  out << "    b[i] = 4.0;\n";
  out << "    c[i] = 0.0;\n";
  out << "  }\n";
  out << "  kernel(a, b, c, n);\n";
  out << "  return c[0];\n";
  out << "}\n";
  return out.str();
}

} // namespace mira::workloads
