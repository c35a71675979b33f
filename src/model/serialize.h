// Binary serialization of PerformanceModel for the on-disk analysis
// cache (support/cache_store.h).
//
// The encoding is a straightforward length-prefixed tree walk: strings
// are u32-length + bytes, containers are u32-count + elements, and
// symbolic::Expr nodes are a one-byte kind tag followed by their
// children. Deserialization decodes each expression once, children
// first, interning every node as it is read into one arena per payload.
// Interning keeps the structure exactly (it bypasses the canonicalizing
// builders), so a cached model's emitted Python is byte-identical to the
// freshly computed one — the property the batch determinism tests pin.
// A top-level expression whose bytes repeat an earlier one in the same
// payload reuses that one's node.
//
// Robustness: deserializeModel never throws and never trusts a length —
// every read is bounds-checked against the remaining buffer, no reserve
// exceeds what the remaining bytes could encode, opcode tags are
// validated against the ISA, and expression nesting is depth-capped.
// A malformed buffer yields `false` (the cache layer then treats the
// entry as corrupt and recomputes). The byte format carries no version
// of its own: cache_store.h's schema-version header versions the whole
// payload, so any layout change here must bump kCacheSchemaVersion.
#pragma once

#include <string>

#include "model/model.h"

namespace mira::model {

/// Append the serialized form of `model` to `out`.
void serializeModel(const PerformanceModel &model, std::string &out);

/// Parse a buffer produced by serializeModel, starting at `offset` and
/// advancing it past the model. Returns false (leaving `out` in an
/// unspecified state) on any structural problem.
bool deserializeModel(const std::string &bytes, std::size_t &offset,
                      PerformanceModel &out);

} // namespace mira::model
