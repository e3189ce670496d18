#include "tmatch/comm_matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/fixtures.hpp"
#include "support/error.hpp"

namespace lama {
namespace {

TEST(CommMatrix, SymmetricAccumulation) {
  CommMatrix m(4);
  m.add(0, 1, 100);
  m.add(1, 0, 50);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 150.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 150.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
}

TEST(CommMatrix, DiagonalIgnored) {
  CommMatrix m(3);
  m.add(1, 1, 999);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.row_sum(1), 0.0);
}

TEST(CommMatrix, FromPattern) {
  const CommMatrix m = CommMatrix::from_pattern(make_pairs(4, 100));
  // Pairs sends both directions: 200 per pair.
  EXPECT_DOUBLE_EQ(m.at(0, 1), 200.0);
  EXPECT_DOUBLE_EQ(m.at(2, 3), 200.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
  EXPECT_EQ(m.np(), 4);
}

TEST(CommMatrix, RowSumAndAffinity) {
  CommMatrix m(4);
  m.add(0, 1, 10);
  m.add(0, 2, 20);
  m.add(0, 3, 30);
  EXPECT_DOUBLE_EQ(m.row_sum(0), 60.0);
  EXPECT_DOUBLE_EQ(m.affinity(0, {1, 3}), 40.0);
  EXPECT_DOUBLE_EQ(m.affinity(2, {1, 3}), 0.0);
}

TEST(CommMatrix, SerializeParseRoundTrip) {
  const CommMatrix m =
      CommMatrix::from_pattern(make_random_sparse(8, 3, 512, 4));
  const CommMatrix back = CommMatrix::parse(m.serialize());
  ASSERT_EQ(back.np(), m.np());
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      EXPECT_DOUBLE_EQ(back.at(a, b), m.at(a, b)) << a << "," << b;
    }
  }
}

TEST(CommMatrix, ParseFormat) {
  const CommMatrix m = CommMatrix::parse(
      "# profiled volumes\n"
      "np 4\n"
      "0 1 1000\n"
      "2 3 500   # hot pair\n"
      "0 1 24\n");
  EXPECT_EQ(m.np(), 4);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 1024.0);
  EXPECT_DOUBLE_EQ(m.at(3, 2), 500.0);
}

TEST(CommMatrix, ParseErrors) {
  EXPECT_THROW(CommMatrix::parse(""), ParseError);
  EXPECT_THROW(CommMatrix::parse("0 1 10\n"), ParseError);       // no header
  EXPECT_THROW(CommMatrix::parse("np 2\nnp 2\n"), ParseError);   // duplicate
  EXPECT_THROW(CommMatrix::parse("np 2\n0 1\n"), ParseError);    // short edge
  EXPECT_THROW(CommMatrix::parse("np 2\n0 5 10\n"), ParseError); // out of range
  EXPECT_THROW(CommMatrix::parse("np 0\n"), ParseError);
}

TEST(CommMatrix, InvalidSizeThrows) {
  EXPECT_THROW(CommMatrix(0), MappingError);
  EXPECT_THROW(CommMatrix(-2), MappingError);
}

TEST(CommMatrix, SerializeParseKeepsDigest) {
  const CommMatrix m =
      CommMatrix::from_pattern(make_random_sparse(12, 4, 4096, 7));
  const CommMatrix back = CommMatrix::parse(m.serialize());
  EXPECT_EQ(back.digest(), m.digest());
}

TEST(CommMatrix, DigestIgnoresEdgeOrder) {
  CommMatrix a(4);
  a.add(0, 1, 100);
  a.add(2, 3, 50);
  a.add(1, 3, 25);
  CommMatrix b(4);
  b.add(3, 1, 25);  // reversed direction, reversed listing order
  b.add(2, 3, 50);
  b.add(0, 1, 60);
  b.add(1, 0, 40);  // split across two accumulating adds
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(CommMatrix, DigestMatchesAcrossRowAndEdgeForm) {
  const CommMatrix edges = CommMatrix::parse(
      "np 3\n"
      "0 1 10\n"
      "1 2 20\n");
  const CommMatrix rows = CommMatrix::parse(
      "np 3\n"
      "row 0 0 10 0\n"
      "row 1 10 0 20\n"
      "row 2 0 20 0\n");
  EXPECT_EQ(edges.digest(), rows.digest());
}

TEST(CommMatrix, DigestDistinguishesContent) {
  CommMatrix a(4);
  a.add(0, 1, 100);
  CommMatrix b(4);
  b.add(0, 2, 100);  // same volume, different pair
  CommMatrix c(5);
  c.add(0, 1, 100);  // same edge, different np
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(CommMatrix, RejectsNonSquareRows) {
  // A dense row with too few values is a non-square matrix.
  EXPECT_THROW(CommMatrix::parse("np 3\nrow 0 1 2\n"), ParseError);
  // Too many values is just as non-square.
  EXPECT_THROW(CommMatrix::parse("np 3\nrow 0 1 2 3 4\n"), ParseError);
  // Row index out of range.
  EXPECT_THROW(CommMatrix::parse("np 3\nrow 3 0 0 0\n"), ParseError);
}

TEST(CommMatrix, RejectsAsymmetricDenseInput) {
  EXPECT_THROW(CommMatrix::parse("np 2\n"
                                 "row 0 0 10\n"
                                 "row 1 20 0\n"),
               ParseError);
}

TEST(CommMatrix, RejectsNegativeAndNonFiniteWeights) {
  EXPECT_THROW(CommMatrix::parse("np 2\n0 1 -5\n"), ParseError);
  EXPECT_THROW(CommMatrix::parse("np 2\n0 1 nan\n"), ParseError);
  EXPECT_THROW(CommMatrix::parse("np 2\n0 1 inf\n"), ParseError);
  EXPECT_THROW(CommMatrix::parse("np 2\nrow 0 0 -1\n"), ParseError);
  CommMatrix m(2);
  EXPECT_THROW(m.add(0, 1, -1.0), MappingError);
}

TEST(CommGraph, RowsListNonzeroCellsInAscendingOrder) {
  CommMatrix m(5);
  m.add(3, 0, 7);
  m.add(1, 3, 2);
  m.add(4, 3, 5);
  m.add(2, 2, 9);  // diagonal: absent
  const CommGraph g(m);
  ASSERT_EQ(g.np(), 5);
  ASSERT_EQ(g.row(3).size(), 3u);
  EXPECT_EQ(g.row(3)[0].peer, 0);
  EXPECT_EQ(g.row(3)[1].peer, 1);
  EXPECT_EQ(g.row(3)[2].peer, 4);
  EXPECT_DOUBLE_EQ(g.row(3)[2].bytes, 5.0);
  EXPECT_TRUE(g.row(2).empty());
  ASSERT_EQ(g.row(0).size(), 1u);
  EXPECT_EQ(g.row(0)[0].peer, 3);
}

TEST(CommGraph, RowsAreTheDenseRowsWithoutZeros) {
  // Edge and dense-row payloads, fractional weights: every row is the
  // dense row's nonzero cells in column order, so sums over it have the
  // bits of row_sum.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SplitMix64 rng(seed);
    const int np = 2 + static_cast<int>(rng.next_below(60));
    const int degree =
        std::min(np - 1, 1 + static_cast<int>(rng.next_below(8)));
    const CommMatrix m = test::random_comm_matrix(np, degree, rng);
    const CommGraph g(m);
    for (int p = 0; p < np; ++p) {
      std::size_t k = 0;
      double sum = 0.0;
      for (int q = 0; q < np; ++q) {
        if (m.at(p, q) <= 0.0) continue;
        ASSERT_LT(k, g.row(p).size()) << "seed=" << seed << " row " << p;
        EXPECT_EQ(g.row(p)[k].peer, q);
        EXPECT_EQ(g.row(p)[k].bytes, m.at(p, q));
        sum += g.row(p)[k].bytes;
        ++k;
      }
      EXPECT_EQ(k, g.row(p).size()) << "seed=" << seed << " row " << p;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sum),
                std::bit_cast<std::uint64_t>(m.row_sum(p)));
    }
  }
}

}  // namespace
}  // namespace lama
