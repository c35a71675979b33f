// Seeded MiniC kernel generators: the one in-tree copy of the random
// programs the property, golden-digest and binast suites analyze.
//
// Both generators draw only from the given engine, so a seed always
// yields the same source text.
#pragma once

#include <random>
#include <string>

namespace mira::workloads {

/// A random but well-formed kernel `double kernel(int n)`: up to 3
/// nested affine loops over a parametric bound (rectangular, inclusive,
/// triangular or strided), an optional affine or congruence guard on
/// the innermost level, and a body accumulating FP work.
std::string makeKernel(std::mt19937 &rng);

/// A random unit-stride FP pipeline `kernel(a, b, c, n)` with 1-3
/// operators from `+ - * /`, which the vectorizer may or may not take,
/// plus a `double driver(int n)` that allocates, fills and calls it.
std::string makeArrayKernel(std::mt19937 &rng);

} // namespace mira::workloads
