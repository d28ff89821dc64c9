#pragma once
// AIGER format I/O (combinational subset, formats "aag" ASCII and "aig"
// binary, per the AIGER 1.9 specification).
//
// AIGER is the lingua franca of AIG-based tools (ABC, model checkers, SAT
// sweeping utilities); supporting it lets instances move between this
// library and the wider ecosystem. Latches are rejected — the ECO problem
// is combinational.

#include <cstdint>
#include <string>

#include "aig/aig.h"

namespace eco::io {

/// Largest maximum variable index M, and input count I, that parseAiger
/// accepts. A binary header sizes the input and literal tables from I and
/// M before any data follows, and binary inputs take no bytes, so the
/// input length cannot bound them. Under this limit every literal 2 * v + 1
/// fits in 32 bits.
inline constexpr std::uint32_t kAigerMaxVars = std::uint32_t{1} << 24;

/// Parses an AIGER file (auto-detects "aag" vs "aig" from the header).
/// Symbol-table input/output names are applied when present. Throws
/// std::runtime_error on malformed input, sequential designs, or a header
/// above kAigerMaxVars.
Aig parseAiger(const std::string& data);

/// Serializes to ASCII AIGER ("aag"). Node indices are reassigned densely.
std::string writeAigerAscii(const Aig& aig);

/// Serializes to binary AIGER ("aig").
std::string writeAigerBinary(const Aig& aig);

}  // namespace eco::io
