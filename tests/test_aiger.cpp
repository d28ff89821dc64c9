// Tests for AIGER I/O: ASCII and binary round trips, symbol tables, error
// handling, and a known-bytes golden vector for the binary delta encoding.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "base/rng.h"
#include "io/aiger.h"

namespace eco::io {
namespace {

Aig sampleAig() {
  Aig aig;
  const Lit a = aig.addPi("a");
  const Lit b = aig.addPi("b");
  const Lit c = aig.addPi("c");
  aig.addPo(aig.mkXor(aig.addAnd(a, b), c), "y0");
  aig.addPo(!aig.mkOr(a, c), "y1");
  return aig;
}

void expectSameFunction(const Aig& x, const Aig& y) {
  ASSERT_EQ(x.numPis(), y.numPis());
  ASSERT_EQ(x.numPos(), y.numPos());
  for (std::uint32_t m = 0; m < (1u << x.numPis()); ++m) {
    std::vector<bool> in(x.numPis());
    for (std::uint32_t i = 0; i < x.numPis(); ++i) in[i] = (m >> i) & 1;
    ASSERT_EQ(x.evaluate(in), y.evaluate(in)) << "m=" << m;
  }
}

TEST(Aiger, AsciiRoundTrip) {
  const Aig aig = sampleAig();
  const Aig back = parseAiger(writeAigerAscii(aig));
  expectSameFunction(aig, back);
  EXPECT_EQ(back.piName(0), "a");
  EXPECT_EQ(back.poName(1), "y1");
}

TEST(Aiger, BinaryRoundTrip) {
  const Aig aig = sampleAig();
  const Aig back = parseAiger(writeAigerBinary(aig));
  expectSameFunction(aig, back);
  EXPECT_EQ(back.piName(2), "c");
  EXPECT_EQ(back.poName(0), "y0");
}

TEST(Aiger, ParsesHandWrittenAag) {
  // Half adder from the AIGER spec family: s = a ^ b, c = a & b.
  const std::string text =
      "aag 7 2 0 2 3\n"
      "2\n"
      "4\n"
      "10\n"   // output: s encoded below
      "6\n"    // output: carry = a & b
      "6 2 4\n"
      "8 3 5\n"
      "10 7 9\n"
      "i0 a\ni1 b\no0 s\no1 c\n";
  const Aig aig = parseAiger(text);
  ASSERT_EQ(aig.numPis(), 2u);
  for (int m = 0; m < 4; ++m) {
    const bool a = m & 1, b = (m >> 1) & 1;
    const auto out = aig.evaluate({a, b});
    EXPECT_EQ(out[0], a != b);
    EXPECT_EQ(out[1], a && b);
  }
}

TEST(Aiger, ConstantOutputs) {
  Aig aig;
  aig.addPi("a");
  aig.addPo(kFalse, "zero");
  aig.addPo(kTrue, "one");
  for (const std::string& text : {writeAigerAscii(aig), writeAigerBinary(aig)}) {
    const Aig back = parseAiger(text);
    EXPECT_EQ(back.evaluate({false})[0], false);
    EXPECT_EQ(back.evaluate({false})[1], true);
  }
}

TEST(Aiger, RejectsLatches) {
  EXPECT_THROW(parseAiger("aag 1 0 1 0 0\n2 0\n"), std::runtime_error);
}

TEST(Aiger, RejectsBadMagic) {
  EXPECT_THROW(parseAiger("agg 0 0 0 0 0\n"), std::runtime_error);
}

TEST(Aiger, RejectsHeaderCountsThatWrap) {
  // M + 1 wraps to 0 in 32 bits: the table for M would be empty.
  EXPECT_THROW(parseAiger("aag 4294967295 0 0 0 0\n"), std::runtime_error);
  // I + A wraps to 1, which would let M = 1 pass the consistency check.
  EXPECT_THROW(parseAiger("aag 1 4294967295 0 0 2\n"), std::runtime_error);
  // An M far beyond anything the input defines.
  EXPECT_THROW(parseAiger("aig 100000 0 0 0 0\n"), std::runtime_error);
}

TEST(Aiger, RejectsHeaderAboveReaderLimit) {
  // 32 bytes whose binary header asks for a billion inputs: rejected as a
  // parse error before the input and literal tables are sized (~8 GB).
  try {
    (void)parseAiger("aig 1000000000 1000000000 0 0 0\n");
    FAIL() << "accepted a header above the reader limit";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("aiger:", 0), 0u) << e.what();
  }
  EXPECT_THROW(parseAiger("aig " + std::to_string(kAigerMaxVars + 1) + " 0 0 0 0\n"),
               std::runtime_error);
}

TEST(Aiger, RejectsMalformedNumbers) {
  // Each of these must fail as an aiger parse error, not leak a bare
  // std::invalid_argument / std::out_of_range or truncate silently.
  const char* const inputs[] = {
      "aag 1 1 0 0 0\nxyz\n",              // input literal is not a number
      "aag 1 1 0 1 0\n2\n4294967298\n",    // 2^32 + 2 would truncate to 2
      "aag 1 1 0 1 0\n2\n2 \n",            // trailing byte
      "aag 1 1 0 1 0\n2\n-2\n",            // sign
      "aag 1 1 0 1 0\n2\n\n",              // empty
      "aag 1 1 0 1 0\n2\n2\nix a\n",      // symbol index is not a number
      "aag 1 1 0 -0 0\n2\n",                // sign in a header count
      "aag 2 1 0 1 1\n2\n4\n4 2 -1\n",     // -1 would wrap to 2^32 - 1
      "aag 2 1 0 1 1\n2\n4\n4 2 3x\n",     // trailing byte in an and line
  };
  for (const char* text : inputs) {
    try {
      (void)parseAiger(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("aiger: ", 0), 0u) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "wrong exception for " << text << ": " << e.what();
    }
  }
}

TEST(Aiger, RejectsMoreOutputsThanLines) {
  // The output table must not be sized from the header alone: 4e9 outputs
  // would ask for 16 GB before the first output line is read.
  EXPECT_THROW(parseAiger("aag 0 0 0 4000000000 0\n"), std::runtime_error);
  EXPECT_THROW(parseAiger("aag 1 1 0 1 0\n2\n"), std::runtime_error);
  EXPECT_THROW(parseAiger("aig 1 1 0 4000000000 0\n"), std::runtime_error);
  // Exactly enough lines still parses.
  const Aig aig = parseAiger("aag 1 1 0 1 0\n2\n3\n");
  EXPECT_EQ(aig.numPis(), 1u);
  EXPECT_EQ(aig.numPos(), 1u);
}

TEST(Aiger, RejectsTruncatedBinary) {
  Aig aig;
  const Lit a = aig.addPi("a");
  const Lit b = aig.addPi("b");
  aig.addPo(aig.addAnd(a, b), "o");
  std::string bin = writeAigerBinary(aig);
  bin.resize(bin.size() > 4 ? bin.size() - 4 : 0);
  EXPECT_THROW(parseAiger(bin), std::runtime_error);
}

class AigerRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AigerRandom, RandomRoundTripsBothFormats) {
  Rng rng(GetParam());
  Aig aig;
  const std::uint32_t n = 6;
  std::vector<Lit> pool;
  for (std::uint32_t i = 0; i < n; ++i) {
    pool.push_back(aig.addPi("x" + std::to_string(i)));
  }
  for (int i = 0; i < 80; ++i) {
    const Lit x = pool[rng.below(pool.size())] ^ rng.chance(1, 2);
    const Lit y = pool[rng.below(pool.size())] ^ rng.chance(1, 2);
    pool.push_back(aig.addAnd(x, y));
  }
  for (int j = 0; j < 3; ++j) {
    aig.addPo(pool[pool.size() - 1 - j] ^ rng.chance(1, 2), "o" + std::to_string(j));
  }
  expectSameFunction(aig, parseAiger(writeAigerAscii(aig)));
  expectSameFunction(aig, parseAiger(writeAigerBinary(aig)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, AigerRandom, ::testing::Values(10, 20, 30, 40, 50));

}  // namespace
}  // namespace eco::io
