// Consistency analysis and repetition vector (§2.2 of the paper).
//
// A CSDFG is consistent iff there is a positive integer vector q with
// q_t * i_b = q_t' * o_b for every buffer b = (t, t'). We compute the
// smallest such vector per weakly-connected component by exact rational
// propagation over a spanning tree, then verify every buffer (including
// the non-tree ones).
//
// Two paths compute the same vector. The word path (the default) runs on
// machine words: it propagates each task's rate as an i64 fraction reduced
// with std::gcd, with every product overflow-checked, checks every buffer
// as it relaxes it, and scales each connected component in passes over
// that component's own tasks (they form one contiguous run of its
// breadth-first visit order). Its scratch lives per thread, so a caller
// that reuses its output allocates nothing once warm. Any i64 overflow or
// any inconsistency sends the graph to the Rational path
// (compute_repetition_vector_rational), which is the reference: a
// consistent graph has one minimal q whatever the path, and every
// inconsistent or overflowing graph gets the reference's failure_reason
// or OverflowError, byte for byte.
#pragma once

#include <string>
#include <vector>

#include "model/csdf.hpp"
#include "util/rational.hpp"

namespace kp {

struct RepetitionVector {
  bool consistent = false;
  std::string failure_reason;  // set when !consistent

  /// Smallest positive integer repetition vector (valid iff consistent).
  std::vector<i64> q;

  /// Sum over tasks of q_t (the tables' Σq column).
  i128 sum = 0;

  [[nodiscard]] i64 of(TaskId t) const { return q.at(static_cast<std::size_t>(t)); }
};

/// Computes the repetition vector into `out`, reusing its storage (every
/// field is rewritten). Never throws on inconsistent graphs (reported in
/// the result), but does throw OverflowError if the minimal vector cannot
/// be represented in 64 bits; `out` is then unspecified.
void compute_repetition_vector_into(const CsdfGraph& g, RepetitionVector& out);

/// By-value form of compute_repetition_vector_into.
[[nodiscard]] RepetitionVector compute_repetition_vector(const CsdfGraph& g);

/// The reference path on exact Rational arithmetic (i128, checked), which
/// the word path falls back to; same contract.
[[nodiscard]] RepetitionVector compute_repetition_vector_rational(const CsdfGraph& g);

}  // namespace kp
