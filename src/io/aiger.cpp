#include "io/aiger.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "base/check.h"

namespace eco::io {
namespace {

/// Where a parse error is: lineAt() in the ASCII sections, byteAt() from
/// the binary AND section on, whose bytes may contain newlines.
struct Where {
  const char* unit;
  std::uint64_t at;
};

/// A 1-based line number.
Where lineAt(std::uint64_t line) { return {"line", line}; }

/// A 0-based byte offset into the input.
Where byteAt(std::uint64_t offset) { return {"byte", offset}; }

[[noreturn]] void fail(Where where, const std::string& msg) {
  throw std::runtime_error("aiger: " + std::string(where.unit) + " " +
                           std::to_string(where.at) + ": " + msg);
}

/// Parses all of `text` as a decimal number that fits in 32 bits; anything
/// else (empty, a sign, trailing bytes, overflow) fails naming `what`.
std::uint32_t parseU32(const std::string& text, const std::string& what,
                       Where where) {
  std::uint32_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    fail(where, "bad " + what + " '" + text.substr(0, 32) + "'");
  }
  return value;
}

struct Layout {
  std::vector<std::uint32_t> index_of_var;  ///< AIG var -> dense AIGER var
  std::vector<std::uint32_t> and_vars;      ///< AIG AND vars, ascending
};

Layout layoutOf(const Aig& aig) {
  Layout lay;
  lay.index_of_var.assign(aig.numNodes(), 0);
  std::uint32_t next = 1;
  for (std::uint32_t i = 0; i < aig.numPis(); ++i) {
    lay.index_of_var[aig.piVar(i)] = next++;
  }
  for (std::uint32_t v = 1; v < aig.numNodes(); ++v) {
    if (aig.isAnd(v)) {
      lay.index_of_var[v] = next++;
      lay.and_vars.push_back(v);
    }
  }
  return lay;
}

std::uint32_t aigerLit(const Layout& lay, Lit l) {
  return 2 * lay.index_of_var[l.var()] + (l.complemented() ? 1 : 0);
}

void writeSymbols(const Aig& aig, std::ostringstream& os) {
  for (std::uint32_t i = 0; i < aig.numPis(); ++i) {
    if (!aig.piName(i).empty()) os << "i" << i << " " << aig.piName(i) << "\n";
  }
  for (std::uint32_t i = 0; i < aig.numPos(); ++i) {
    if (!aig.poName(i).empty()) os << "o" << i << " " << aig.poName(i) << "\n";
  }
}

void pushVarint(std::string& out, std::uint32_t x) {
  while (x & ~0x7Fu) {
    out.push_back(static_cast<char>(0x80 | (x & 0x7F)));
    x >>= 7;
  }
  out.push_back(static_cast<char>(x));
}

/// Decodes the varint at `pos`; errors name its first byte.
std::uint32_t readVarint(const std::string& data, std::size_t& pos) {
  const std::size_t start = pos;
  std::uint32_t x = 0;
  int shift = 0;
  for (;;) {
    if (pos >= data.size()) fail(byteAt(start), "truncated binary and-gate section");
    const auto byte = static_cast<unsigned char>(data[pos++]);
    x |= static_cast<std::uint32_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 28) fail(byteAt(start), "varint overflow");
  }
  return x;
}

}  // namespace

std::string writeAigerAscii(const Aig& aig) {
  const Layout lay = layoutOf(aig);
  const std::uint32_t M = aig.numPis() + static_cast<std::uint32_t>(lay.and_vars.size());
  std::ostringstream os;
  os << "aag " << M << " " << aig.numPis() << " 0 " << aig.numPos() << " "
     << lay.and_vars.size() << "\n";
  for (std::uint32_t i = 0; i < aig.numPis(); ++i) {
    os << 2 * (i + 1) << "\n";
  }
  for (std::uint32_t i = 0; i < aig.numPos(); ++i) {
    os << aigerLit(lay, aig.poDriver(i)) << "\n";
  }
  for (const std::uint32_t v : lay.and_vars) {
    os << 2 * lay.index_of_var[v] << " " << aigerLit(lay, aig.fanin0(v)) << " "
       << aigerLit(lay, aig.fanin1(v)) << "\n";
  }
  writeSymbols(aig, os);
  return os.str();
}

std::string writeAigerBinary(const Aig& aig) {
  const Layout lay = layoutOf(aig);
  const std::uint32_t M = aig.numPis() + static_cast<std::uint32_t>(lay.and_vars.size());
  std::ostringstream head;
  head << "aig " << M << " " << aig.numPis() << " 0 " << aig.numPos() << " "
       << lay.and_vars.size() << "\n";
  for (std::uint32_t i = 0; i < aig.numPos(); ++i) {
    head << aigerLit(lay, aig.poDriver(i)) << "\n";
  }
  std::string out = head.str();
  for (const std::uint32_t v : lay.and_vars) {
    const std::uint32_t lhs = 2 * lay.index_of_var[v];
    std::uint32_t rhs0 = aigerLit(lay, aig.fanin0(v));
    std::uint32_t rhs1 = aigerLit(lay, aig.fanin1(v));
    if (rhs0 < rhs1) std::swap(rhs0, rhs1);
    ECO_CHECK_MSG(lhs > rhs0, "AND ordering violated in binary AIGER");
    pushVarint(out, lhs - rhs0);
    pushVarint(out, rhs0 - rhs1);
  }
  std::ostringstream sym;
  writeSymbols(aig, sym);
  out += sym.str();
  return out;
}

Aig parseAiger(const std::string& data) {
  std::size_t pos = 0;
  std::uint64_t line = 0;  // of the ASCII line last read, 1-based
  const auto here = [&] { return lineAt(line); };
  const auto readLine = [&]() -> std::string {
    const std::size_t nl = data.find('\n', pos);
    ++line;
    if (nl == std::string::npos) fail(here(), "unexpected end of file");
    std::string line = data.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };

  std::istringstream hs(readLine());
  std::string magic, counts[5];
  if (!(hs >> magic >> counts[0] >> counts[1] >> counts[2] >> counts[3] >> counts[4])) {
    fail(here(), "malformed header");
  }
  const std::uint32_t M = parseU32(counts[0], "header count", here());
  const std::uint32_t I = parseU32(counts[1], "header count", here());
  const std::uint32_t L = parseU32(counts[2], "header count", here());
  const std::uint32_t O = parseU32(counts[3], "header count", here());
  const std::uint32_t A = parseU32(counts[4], "header count", here());
  const bool binary = magic == "aig";
  if (!binary && magic != "aag") fail(here(), "unknown magic '" + magic + "'");
  if (L != 0) fail(here(), "sequential designs (latches) are not supported");
  if (std::max(M, I) > kAigerMaxVars) {
    fail(here(), "header count " + std::to_string(std::max(M, I)) +
         " exceeds the reader limit of " + std::to_string(kAigerMaxVars) +
         " variables");
  }
  // Header counts are 32-bit; add them in 64 bits so they cannot wrap.
  if (std::uint64_t{M} < std::uint64_t{I} + A) fail(here(), "inconsistent header counts");
  // M sizes the literal table before any definition is read. Bound it by
  // the implicit binary inputs plus one variable per input byte; no real
  // file numbers its variables more sparsely than that.
  if (std::uint64_t{M} > std::uint64_t{binary ? I : 0} + data.size()) {
    fail(here(), "maximum variable index " + std::to_string(M) +
         " exceeds what the input can define");
  }

  Aig aig;
  // aiger var -> our literal. Var 0 is constant FALSE in both encodings.
  std::vector<Lit> lit_of(std::size_t{M} + 1, Lit());
  lit_of[0] = kFalse;
  const auto litOf = [&](std::uint32_t l, Where where) -> Lit {
    if (l / 2 > M) fail(where, "literal out of range");
    const Lit base = lit_of[l / 2];
    if (!base.valid()) fail(where, "literal " + std::to_string(l) + " used before defined");
    return base ^ ((l & 1) != 0);
  };

  // Every ASCII input and every output takes one line; check that the
  // input has that many lines left before sizing tables by the counts.
  const std::uint64_t lines_needed = std::uint64_t{O} + (binary ? 0 : I);
  const auto lines_left = static_cast<std::uint64_t>(
      std::count(data.begin() + static_cast<std::ptrdiff_t>(pos), data.end(), '\n'));
  if (lines_needed > lines_left) {
    fail(here(), "header counts need " + std::to_string(lines_needed) +
         " input/output lines but only " + std::to_string(lines_left) + " follow");
  }
  std::vector<std::uint32_t> input_lits(I), output_lits(O);
  if (binary) {
    for (std::uint32_t i = 0; i < I; ++i) input_lits[i] = 2 * (i + 1);
  } else {
    for (std::uint32_t i = 0; i < I; ++i) {
      input_lits[i] = parseU32(readLine(), "input literal", here());
      if (input_lits[i] != 2 * (i + 1)) fail(here(), "non-canonical input numbering");
    }
  }
  for (std::uint32_t i = 0; i < I; ++i) {
    lit_of[input_lits[i] / 2] = aig.addPi();
  }
  const std::uint64_t first_output_line = line + 1;
  for (std::uint32_t i = 0; i < O; ++i) {
    output_lits[i] = parseU32(readLine(), "output literal", here());
  }

  if (binary) {
    for (std::uint32_t a = 0; a < A; ++a) {
      const Where where = byteAt(pos);
      const std::uint32_t lhs = 2 * (I + L + a + 1);
      const std::uint32_t delta0 = readVarint(data, pos);
      const std::uint32_t delta1 = readVarint(data, pos);
      if (delta0 > lhs) fail(where, "invalid delta");
      const std::uint32_t rhs0 = lhs - delta0;
      if (delta1 > rhs0) fail(where, "invalid delta");
      const std::uint32_t rhs1 = rhs0 - delta1;
      lit_of[lhs / 2] = aig.addAnd(litOf(rhs0, where), litOf(rhs1, where));
    }
  } else {
    // ASCII AND definitions may reference later definitions only in
    // non-standard files; require the canonical ascending order.
    for (std::uint32_t a = 0; a < A; ++a) {
      std::istringstream ls(readLine());
      std::string fields[3];
      if (!(ls >> fields[0] >> fields[1] >> fields[2])) fail(here(), "malformed and line");
      const std::uint32_t lhs = parseU32(fields[0], "and literal", here());
      const std::uint32_t rhs0 = parseU32(fields[1], "and literal", here());
      const std::uint32_t rhs1 = parseU32(fields[2], "and literal", here());
      if ((lhs & 1) != 0 || lhs / 2 > M) fail(here(), "bad and lhs");
      if (lit_of[lhs / 2].valid()) fail(here(), "redefinition of " + std::to_string(lhs));
      lit_of[lhs / 2] = aig.addAnd(litOf(rhs0, here()), litOf(rhs1, here()));
    }
  }

  for (std::uint32_t i = 0; i < O; ++i) {
    aig.addPo(litOf(output_lits[i], lineAt(first_output_line + i)));
  }

  // Symbol table (and comments, ignored).
  std::vector<std::string> pi_names(I), po_names(O);
  while (pos < data.size()) {
    // After a binary AND section the line count is lost.
    ++line;
    const Where where = binary ? byteAt(pos) : here();
    const std::size_t nl = data.find('\n', pos);
    const std::string text =
        data.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? data.size() : nl + 1;
    if (text.empty()) continue;
    if (text[0] == 'c') break;  // comment section
    if (text[0] != 'i' && text[0] != 'o') fail(where, "bad symbol line '" + text + "'");
    const std::size_t sp = text.find(' ');
    if (sp == std::string::npos) fail(where, "bad symbol line '" + text + "'");
    const std::uint32_t idx = parseU32(text.substr(1, sp - 1), "symbol index", where);
    const std::string name = text.substr(sp + 1);
    if (text[0] == 'i') {
      if (idx >= I) fail(where, "input symbol out of range");
      pi_names[idx] = name;
    } else {
      if (idx >= O) fail(where, "output symbol out of range");
      po_names[idx] = name;
    }
  }
  // Rebuild with names (names are fixed at PI creation).
  Aig named;
  {
    std::unordered_map<std::uint32_t, Lit> map;
    map[0] = kFalse;
    for (std::uint32_t i = 0; i < I; ++i) {
      map[aig.piVar(i)] = named.addPi(pi_names[i]);
    }
    for (std::uint32_t v = 1; v < aig.numNodes(); ++v) {
      if (!aig.isAnd(v)) continue;
      const Lit f0 = aig.fanin0(v);
      const Lit f1 = aig.fanin1(v);
      map[v] = named.addAnd(map.at(f0.var()) ^ f0.complemented(),
                            map.at(f1.var()) ^ f1.complemented());
    }
    for (std::uint32_t j = 0; j < O; ++j) {
      const Lit d = aig.poDriver(j);
      named.addPo(map.at(d.var()) ^ d.complemented(), po_names[j]);
    }
  }
  return named;
}

}  // namespace eco::io
