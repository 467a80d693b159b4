// The incremental constraint-graph engine (core/constraints.hpp,
// ConstraintGraphCache):
//
//   1. Round-by-round equivalence on 100+ random CSDFGs driven through the
//      real K-Iter K sequences: after every round the patched graph is
//      byte-identical (same arc ids, payloads, node maps, CSR
//      out-adjacency) to a fresh stride build, arc-multiset-identical to
//      the brute-force reference build,
//      and its MCRP value matches the reference solve.
//   2. The worst case — a critical circuit covering every task — falls back
//      to a recorded full rebuild and still matches.
//   3. kiter_throughput with incremental on is bit-identical to the
//      non-incremental path (status, period, K, rounds, schedule).
//   4. A warm patched round performs zero heap allocations (the
//      KIterWorkspace contract extends to the ping-pong splice target).
//   5. KIterResult::rounds counts completed rounds only, identically on
//      mid-build and mid-patch aborts (== trace.size()).
//   6. Serialization as generator input: a build of (g, extra) with the
//      self-loops of serialization_buffers_into(g) is arc for arc the build
//      of add_serialization_buffers(g), round by round and through
//      kiter_throughput, with identical pricing, repetition vector and
//      content snapshot words — including graphs where some task already
//      has its own self-loop.
//   7. Same-layout rounds (no task's K changes) under marking, duration and
//      q-preserving rate deltas, alone and mixed: every build matches a
//      fresh one, both the in-place rewrite and the splice from the aside
//      graph occur, and a warm MCRP solve on each in-place graph — which
//      keeps the cyclic core by topology and rescales H — equals a cold
//      solve of the fresh build down to the circuit and iteration counts.
//
// After every round of 1 and 6 the cache's content snapshot is the
// result cache's encoding of what it encodes: append_content_snapshot of
// (g, extra), with q per task beside it.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "alloc_hook.hpp"
#include "core/constraints.hpp"
#include "core/kiter.hpp"
#include "core/kperiodic.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/random_csdf.hpp"
#include "mcrp/cycle_ratio.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"

namespace kp {
namespace {

using ArcTuple = std::tuple<std::int32_t, std::int32_t, i64, Rational>;

/// Sorted (src, dst, cost, time) tuples — the arc multiset.
std::vector<ArcTuple> canonical_arcs(const ConstraintGraph& cg) {
  std::vector<ArcTuple> out;
  out.reserve(static_cast<std::size_t>(cg.graph.arc_count()));
  for (std::int32_t a = 0; a < cg.graph.arc_count(); ++a) {
    const auto& arc = cg.graph.graph().arc(a);
    out.emplace_back(arc.src, arc.dst, cg.graph.cost(a), cg.graph.time(a));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The patched graph must be arc-FOR-arc identical to a fresh stride build:
/// same arc ids in the same order with the same payloads, the same node
/// maps and the same CSR out-adjacency — the strongest form of the
/// equivalence the engine promises.
void expect_identical(const ConstraintGraph& patched, const ConstraintGraph& fresh,
                      const std::string& context) {
  ASSERT_EQ(patched.graph.node_count(), fresh.graph.node_count()) << context;
  ASSERT_EQ(patched.graph.arc_count(), fresh.graph.arc_count()) << context;
  EXPECT_EQ(patched.k, fresh.k) << context;
  EXPECT_EQ(patched.task_first_node, fresh.task_first_node) << context;
  EXPECT_EQ(patched.node_task, fresh.node_task) << context;
  EXPECT_EQ(patched.node_phase, fresh.node_phase) << context;
  EXPECT_EQ(patched.node_iter, fresh.node_iter) << context;
  for (std::int32_t a = 0; a < fresh.graph.arc_count(); ++a) {
    const auto& pa = patched.graph.graph().arc(a);
    const auto& fa = fresh.graph.graph().arc(a);
    ASSERT_TRUE(pa.src == fa.src && pa.dst == fa.dst &&
                patched.graph.cost(a) == fresh.graph.cost(a) &&
                patched.graph.time(a) == fresh.graph.time(a))
        << context << " arc " << a;
  }
  for (std::int32_t v = 0; v < fresh.graph.node_count(); ++v) {
    const auto po = patched.graph.graph().out_arcs(v);
    const auto fo = fresh.graph.graph().out_arcs(v);
    ASSERT_TRUE(std::equal(po.begin(), po.end(), fo.begin(), fo.end()))
        << context << " out-adjacency of node " << v;
  }
}

/// The cache's snapshot must be the words append_content_snapshot writes
/// for (g, extra), with q per task beside them.
void expect_snapshot_of(const ConstraintGraphCache& cache, const CsdfGraph& g,
                        const RepetitionVector& rv, std::span<const Buffer> extra,
                        const std::string& context) {
  ASSERT_TRUE(cache.valid) << context;
  std::vector<i64> words;
  append_content_snapshot(g, words, extra);
  EXPECT_EQ(cache.key, words) << context;
  EXPECT_EQ(cache.key_q, rv.q) << context;
}

RandomCsdfOptions small_graphs() {
  RandomCsdfOptions options;
  options.min_tasks = 2;
  options.max_tasks = 8;
  options.max_phases = 3;
  options.max_q = 8;
  return options;
}

// ---- 1. round-by-round equivalence on real K-Iter sequences ----------------

TEST(Incremental, RandomizedRoundByRoundEquivalence) {
  KIterWorkspace ws;  // shared across graphs: also exercises invalidation
  i64 total_patched = 0;
  i64 total_rebuilt = 0;
  int checked = 0;
  for (u64 seed = 1; checked < 110; ++seed) {
    Rng rng(seed);
    const CsdfGraph g = random_csdf(rng, small_graphs());
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);

    // The real K sequence this graph goes through, from the full-rebuild
    // path (ground truth, no cache involved).
    KIterOptions trace_options;
    trace_options.incremental = false;
    trace_options.record_trace = true;
    const KIterResult traced = kiter_throughput(g, rv, trace_options);
    if (traced.trace.empty()) continue;

    ws.cache.invalidate();  // new graph through the shared workspace
    const i64 patched_before = ws.cache.patched_rounds;
    const i64 rebuilt_before = ws.cache.rebuilt_rounds;
    for (std::size_t round = 0; round < traced.trace.size(); ++round) {
      const std::vector<i64>& k = traced.trace[round].k;
      const KEvalStatus status =
          evaluate_k_periodic_round_incremental(g, rv, k, McrpOptions{}, ws);
      ASSERT_NE(status, KEvalStatus::Aborted);

      const std::string context =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      const ConstraintGraph fresh = build_constraint_graph(g, rv, k);
      expect_identical(ws.constraints, fresh, context);
      expect_snapshot_of(ws.cache, g, rv, {}, context);

      const ConstraintGraph reference = build_constraint_graph_reference(g, rv, k);
      EXPECT_EQ(canonical_arcs(ws.constraints), canonical_arcs(reference)) << context;

      const McrpResult ref_solved = solve_max_cycle_ratio(reference.graph);
      EXPECT_EQ(ws.solved.status, ref_solved.status) << context;
      if (ref_solved.status == McrpStatus::Optimal) {
        EXPECT_EQ(ws.solved.ratio, ref_solved.ratio) << context;
      }
    }
    total_patched += ws.cache.patched_rounds - patched_before;
    total_rebuilt += ws.cache.rebuilt_rounds - rebuilt_before;
    ++checked;
  }
  // The suite must exercise the splice path, not keep falling back.
  EXPECT_GT(total_patched, 0);
  EXPECT_GT(total_rebuilt, 0);
}

// ---- 2. worst case: every task on the critical circuit ---------------------

TEST(Incremental, FullCoverageRoundFallsBackToRebuildAndMatches) {
  // Two tasks in one cycle: any K update touches both, so every buffer is
  // touched and the patch degenerates to a recorded full rebuild.
  CsdfGraph g;
  const TaskId a = g.add_task("a", std::vector<i64>{2, 1});
  const TaskId b = g.add_task("b", 3);
  g.add_buffer("ab", a, b, std::vector<i64>{2, 1}, std::vector<i64>{1}, 0);
  g.add_buffer("ba", b, a, std::vector<i64>{1}, std::vector<i64>{1, 2}, 3);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);

  KIterWorkspace ws;
  const std::vector<std::vector<i64>> ks = {{1, 1}, {2, 3}, {4, 9}, {8, 9}};
  for (std::size_t round = 0; round < ks.size(); ++round) {
    const i64 rebuilt_before = ws.cache.rebuilt_rounds;
    const KEvalStatus status =
        evaluate_k_periodic_round_incremental(g, rv, ks[round], McrpOptions{}, ws);
    ASSERT_NE(status, KEvalStatus::Aborted);
    const std::string context = "round " + std::to_string(round);
    expect_identical(ws.constraints, build_constraint_graph(g, rv, ks[round]), context);
    EXPECT_EQ(canonical_arcs(ws.constraints),
              canonical_arcs(build_constraint_graph_reference(g, rv, ks[round])))
        << context;
    if (round > 0) {
      // Both K entries changed: no buffer survives, so this must have been
      // a full rebuild, and the cache must be valid again afterwards.
      EXPECT_EQ(ws.cache.rebuilt_rounds, rebuilt_before + 1) << context;
    }
  }
  EXPECT_EQ(ws.cache.patched_rounds, 0);
}

TEST(Incremental, PartialCoverageUsesThePatchPath) {
  // gcd_ring: bumping only task b's K leaves buffers ca and sc untouched.
  const CsdfGraph g = gcd_ring(12);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);

  KIterWorkspace ws;
  ASSERT_NE(evaluate_k_periodic_round_incremental(g, rv, {1, 3, 4}, McrpOptions{}, ws),
            KEvalStatus::Aborted);
  ASSERT_NE(evaluate_k_periodic_round_incremental(g, rv, {1, 6, 4}, McrpOptions{}, ws),
            KEvalStatus::Aborted);
  EXPECT_EQ(ws.cache.patched_rounds, 1);
  expect_identical(ws.constraints, build_constraint_graph(g, rv, {1, 6, 4}), "patched");
}

// ---- 3. K-Iter results bit-identical with and without the engine -----------

TEST(Incremental, KIterMatchesNonIncrementalOnRandomGraphs) {
  KIterWorkspace ws_inc;
  KIterWorkspace ws_full;
  int checked = 0;
  for (u64 seed = 100; checked < 60; ++seed) {
    Rng rng(seed);
    const CsdfGraph g = random_csdf(rng, small_graphs());
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);

    KIterOptions inc;
    inc.incremental = true;
    KIterOptions full;
    full.incremental = false;
    const KIterResult a = kiter_throughput(g, rv, inc, ws_inc);
    const KIterResult b = kiter_throughput(g, rv, full, ws_full);
    EXPECT_EQ(a.status, b.status) << "seed " << seed;
    EXPECT_EQ(a.period, b.period) << "seed " << seed;
    EXPECT_EQ(a.throughput, b.throughput) << "seed " << seed;
    EXPECT_EQ(a.k, b.k) << "seed " << seed;
    EXPECT_EQ(a.rounds, b.rounds) << "seed " << seed;
    EXPECT_EQ(a.critical_tasks, b.critical_tasks) << "seed " << seed;
    EXPECT_EQ(a.schedule.starts, b.schedule.starts) << "seed " << seed;
    EXPECT_EQ(a.schedule.task_periods, b.schedule.task_periods) << "seed " << seed;
    ++checked;
  }
}

TEST(Incremental, DeadlockAndUnboundedMatchToo) {
  Rng rng(42);
  RandomCsdfOptions options = small_graphs();
  options.starve_one_cycle = true;  // deadlock-heavy population
  for (int round = 0; round < 25; ++round) {
    const CsdfGraph g = random_csdf(rng, options);
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);
    KIterOptions inc;
    inc.incremental = true;
    KIterOptions full;
    full.incremental = false;
    const KIterResult a = kiter_throughput(g, rv, inc);
    const KIterResult b = kiter_throughput(g, rv, full);
    EXPECT_EQ(a.status, b.status) << "round " << round;
    EXPECT_EQ(a.period, b.period) << "round " << round;
    EXPECT_EQ(a.k, b.k) << "round " << round;
    EXPECT_EQ(a.rounds, b.rounds) << "round " << round;
  }
}

// ---- 4. zero allocations on warm patched rounds ----------------------------

TEST(Incremental, WarmPatchedRoundDoesNotAllocate) {
  const CsdfGraph g = gcd_ring(32);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  // Only task b's K flips between the two vectors, so every round after the
  // first is a patch. Four warm-up rounds fill both sides of the ping-pong
  // (each side serves every other round) at both sizes.
  const std::vector<i64> ka{1, 16, 32};
  const std::vector<i64> kb{1, 32, 32};
  const McrpOptions mcrp;

  KIterWorkspace ws;
  (void)evaluate_k_periodic_round_incremental(g, rv, ka, mcrp, ws);
  (void)evaluate_k_periodic_round_incremental(g, rv, kb, mcrp, ws);
  (void)evaluate_k_periodic_round_incremental(g, rv, ka, mcrp, ws);
  (void)evaluate_k_periodic_round_incremental(g, rv, kb, mcrp, ws);
  ASSERT_GE(ws.cache.patched_rounds, 3);

  const std::uint64_t before = g_alloc_count.load();
  const KEvalStatus sa = evaluate_k_periodic_round_incremental(g, rv, ka, mcrp, ws);
  const KEvalStatus sb = evaluate_k_periodic_round_incremental(g, rv, kb, mcrp, ws);
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(sa, KEvalStatus::Feasible);
  EXPECT_EQ(sb, KEvalStatus::Feasible);
  EXPECT_EQ(after - before, 0u) << "a warm patch+solve round must not touch the heap";

  // The same rounds with the serialization self-loop of task a as extra
  // generator input (b and c have their own): refilling the warm loop
  // vector and patching over g plus the loop stay off the heap too.
  std::vector<Buffer> loops;
  const std::span<const Buffer> extra = serialization_buffers_into(g, loops);
  ASSERT_EQ(extra.size(), 1u);
  KIterWorkspace ws_extra;
  for (int warm = 0; warm < 2; ++warm) {
    (void)evaluate_k_periodic_round_incremental(g, rv, ka, mcrp, ws_extra, nullptr, extra);
    (void)evaluate_k_periodic_round_incremental(g, rv, kb, mcrp, ws_extra, nullptr, extra);
  }
  ASSERT_GE(ws_extra.cache.patched_rounds, 3);

  const std::uint64_t before_extra = g_alloc_count.load();
  (void)serialization_buffers_into(g, loops);
  const KEvalStatus ea =
      evaluate_k_periodic_round_incremental(g, rv, ka, mcrp, ws_extra, nullptr, extra);
  const KEvalStatus eb =
      evaluate_k_periodic_round_incremental(g, rv, kb, mcrp, ws_extra, nullptr, extra);
  const std::uint64_t after_extra = g_alloc_count.load();

  EXPECT_EQ(ea, KEvalStatus::Feasible);
  EXPECT_EQ(eb, KEvalStatus::Feasible);
  EXPECT_EQ(after_extra - before_extra, 0u)
      << "a warm patch+solve round with extra buffers must not touch the heap";
  expect_identical(ws_extra.constraints,
                   build_constraint_graph(add_serialization_buffers(g), rv, kb), "extra");
}

// ---- 5. rounds accounting across abort paths (mid-build == mid-patch) ------

TEST(Incremental, AbortedRoundIsNeverCountedOnEitherPath) {
  // Fire the cancel hook at every possible poll index and check, for both
  // generation paths, that KIterResult::rounds equals the number of rounds
  // that actually completed (== trace.size()).
  const CsdfGraph g = gcd_ring(24);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);

  struct FireAt {
    i64 polls_left;
    static bool hook(void* ctx) { return --static_cast<FireAt*>(ctx)->polls_left < 0; }
  };

  for (const bool incremental : {false, true}) {
    // An unbounded run to learn how many polls a full run makes.
    FireAt probe{1 << 30};
    KIterOptions options;
    options.incremental = incremental;
    options.record_trace = true;
    options.poll = &FireAt::hook;
    options.poll_ctx = &probe;
    options.poll_row_stride = 1;  // poll every producer row: max abort points
    const KIterResult complete = kiter_throughput(g, rv, options);
    ASSERT_NE(complete.status, ThroughputStatus::ResourceLimit);
    const i64 total_polls = (1 << 30) - probe.polls_left;
    ASSERT_GT(total_polls, 2);

    for (i64 fire = 0; fire < total_polls; ++fire) {
      FireAt state{fire};
      options.poll_ctx = &state;
      const KIterResult r = kiter_throughput(g, rv, options);
      ASSERT_EQ(r.status, ThroughputStatus::ResourceLimit)
          << "incremental=" << incremental << " fire=" << fire;
      EXPECT_TRUE(r.cancelled);
      EXPECT_EQ(r.rounds, static_cast<int>(r.trace.size()))
          << "incremental=" << incremental << " fire=" << fire;
      EXPECT_LE(r.rounds, complete.rounds);
    }
  }
}

// ---- 6. serialization self-loops as generator input -------------------------

/// A random graph with tight buffer capacities (so serialized K-Iter runs
/// take several rounds) where, for odd seeds, one task already carries its
/// own self-loop (equal prod/cons vectors keep it consistent), which the
/// serialization rule must skip.
CsdfGraph random_graph_maybe_self_loop(u64 seed) {
  Rng rng(seed);
  CsdfGraph g = random_csdf(rng, small_graphs());
  if (seed % 2 == 1) {
    const auto t = static_cast<TaskId>(rng.uniform(0, g.task_count() - 1));
    std::vector<i64> rates;
    for (std::int32_t p = 0; p < g.phases(t); ++p) rates.push_back(rng.uniform(1, 3));
    g.add_buffer("own", t, t, rates, rates, rng.uniform(1, 4));
  }
  return apply_default_buffer_capacities(g, 1, 1);
}

TEST(Incremental, SerializationExtraMatchesSerializedCopyRoundByRound) {
  KIterWorkspace ws_extra;  // (g, extra) through the incremental engine
  KIterWorkspace ws_copy;   // the serialized copy, in lockstep
  std::vector<Buffer> loops;  // reused across graphs, as the service does
  i64 patched = 0;
  int with_own_loop = 0;
  int checked = 0;
  for (u64 seed = 300; checked < 80; ++seed) {
    const CsdfGraph g = random_graph_maybe_self_loop(seed);
    const CsdfGraph s = add_serialization_buffers(g);
    const std::span<const Buffer> extra = serialization_buffers_into(g, loops);
    ASSERT_EQ(static_cast<std::size_t>(s.buffer_count()), g.buffer_count() + extra.size());
    with_own_loop += extra.size() < static_cast<std::size_t>(g.task_count()) ? 1 : 0;
    std::vector<i64> words_extra;
    std::vector<i64> words_copy;
    append_content_snapshot(g, words_extra, extra);
    append_content_snapshot(s, words_copy);
    EXPECT_EQ(words_extra, words_copy) << "seed " << seed;

    const RepetitionVector rv = compute_repetition_vector(g);
    const RepetitionVector rv_copy = compute_repetition_vector(s);
    ASSERT_TRUE(rv.consistent) << "seed " << seed;
    ASSERT_TRUE(rv_copy.consistent) << "seed " << seed;
    EXPECT_EQ(rv.q, rv_copy.q) << "seed " << seed;

    KIterOptions trace_options;
    trace_options.incremental = false;
    trace_options.record_trace = true;
    const KIterResult traced = kiter_throughput(s, rv_copy, trace_options);
    if (traced.trace.empty()) continue;

    const i64 patched_before = ws_extra.cache.patched_rounds;
    for (std::size_t round = 0; round < traced.trace.size(); ++round) {
      const std::vector<i64>& k = traced.trace[round].k;
      const std::string context =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);

      EXPECT_EQ(constraint_pair_count(g, k, extra), constraint_pair_count(s, k)) << context;
      EXPECT_EQ(constraint_work_estimate(g, k, extra), constraint_work_estimate(s, k)) << context;
      EXPECT_EQ(constraint_patch_work_estimate(g, rv, ws_extra.constraints.k, k, ws_extra.cache,
                                               extra),
                constraint_patch_work_estimate(s, rv_copy, ws_copy.constraints.k, k,
                                               ws_copy.cache))
          << context;

      const KEvalStatus got =
          evaluate_k_periodic_round_incremental(g, rv, k, McrpOptions{}, ws_extra, nullptr, extra);
      const KEvalStatus want =
          evaluate_k_periodic_round_incremental(s, rv_copy, k, McrpOptions{}, ws_copy);
      ASSERT_EQ(got, want) << context;

      const ConstraintGraph fresh = build_constraint_graph(s, rv_copy, k);
      expect_identical(ws_extra.constraints, fresh, context + " incremental");
      expect_snapshot_of(ws_extra.cache, g, rv, extra, context);
      expect_identical(build_constraint_graph(g, rv, k, extra), fresh, context + " full");
      EXPECT_EQ(ws_extra.solved.status, ws_copy.solved.status) << context;
      EXPECT_EQ(ws_extra.solved.ratio, ws_copy.solved.ratio) << context;
      EXPECT_EQ(ws_extra.critical_tasks, ws_copy.critical_tasks) << context;
    }
    patched += ws_extra.cache.patched_rounds - patched_before;
    ++checked;
  }
  EXPECT_GT(patched, 0) << "the splice path must run with extra buffers";
  EXPECT_GT(with_own_loop, 0) << "some task must already carry its own self-loop";
}

TEST(Incremental, KIterWithSerializationExtraMatchesSerializedCopy) {
  KIterWorkspace ws_extra;
  KIterWorkspace ws_copy;
  std::vector<Buffer> loops;  // reused across graphs, as the service does
  int bound_exits = 0;
  for (u64 seed = 400; seed < 460; ++seed) {
    const CsdfGraph g = random_graph_maybe_self_loop(seed);
    const CsdfGraph s = add_serialization_buffers(g);
    const std::span<const Buffer> extra = serialization_buffers_into(g, loops);
    const RepetitionVector rv = compute_repetition_vector(g);
    const RepetitionVector rv_copy = compute_repetition_vector(s);
    ASSERT_TRUE(rv.consistent) << "seed " << seed;

    // A full run, and one cut after the first round: a structural
    // ResourceLimit exit re-evaluates the best K for its schedule, which
    // must see the extra buffers too.
    KIterOptions full;
    KIterOptions one_round;
    one_round.max_rounds = 1;
    one_round.want_schedule = true;
    for (const KIterOptions* options : {&full, &one_round}) {
      const std::string context =
          "seed " + std::to_string(seed) + (options == &full ? " full" : " max_rounds=1");
      const KIterResult a = kiter_throughput(g, rv, *options, ws_extra, extra);
      const KIterResult b = kiter_throughput(s, rv_copy, *options, ws_copy);
      EXPECT_EQ(a.status, b.status) << context;
      EXPECT_EQ(a.period, b.period) << context;
      EXPECT_EQ(a.has_feasible_bound, b.has_feasible_bound) << context;
      EXPECT_EQ(a.k, b.k) << context;
      EXPECT_EQ(a.rounds, b.rounds) << context;
      EXPECT_EQ(a.mcrp_iterations, b.mcrp_iterations) << context;
      EXPECT_EQ(a.critical_tasks, b.critical_tasks) << context;
      EXPECT_EQ(a.schedule.starts, b.schedule.starts) << context;
      EXPECT_EQ(a.schedule.task_periods, b.schedule.task_periods) << context;
      if (options == &one_round && a.status == ThroughputStatus::ResourceLimit &&
          a.has_feasible_bound) {
        ++bound_exits;
        EXPECT_FALSE(a.schedule.starts.empty()) << context;
      }
    }
  }
  EXPECT_GT(bound_exits, 0) << "some run must exit on max_rounds with a feasible bound";
}

// ---- workspace reuse across graphs (cache must re-key) ---------------------

TEST(Incremental, WorkspaceReuseAcrossDifferentGraphsMatchesFreshRuns) {
  KIterWorkspace shared;
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const CsdfGraph g = random_csdf(rng, small_graphs());
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);
    const KIterResult with_shared = kiter_throughput(g, rv, KIterOptions{}, shared);
    const KIterResult fresh = kiter_throughput(g, rv, KIterOptions{});
    EXPECT_EQ(with_shared.status, fresh.status) << "round " << round;
    EXPECT_EQ(with_shared.period, fresh.period) << "round " << round;
    EXPECT_EQ(with_shared.k, fresh.k) << "round " << round;
    EXPECT_EQ(with_shared.rounds, fresh.rounds) << "round " << round;
  }
}


// ---- 7. same-layout rounds: in place, or spliced from the aside graph --------

/// A random positive divisor of q.
i64 random_divisor(Rng& rng, i64 q) {
  std::vector<i64> divisors;
  for (i64 d = 1; d <= q; ++d) {
    if (q % d == 0) divisors.push_back(d);
  }
  return divisors[static_cast<std::size_t>(rng.uniform(0, static_cast<i64>(divisors.size()) - 1))];
}

/// A delta of `g` that keeps its repetition vector: a marking edit (kind
/// 0), one task's durations (1), one buffer's rates scaled by a common
/// factor or rotated by a phase — both keep the balance equations (2) — or
/// all three (3).
GraphDelta same_layout_delta(Rng& rng, const CsdfGraph& g, int kind) {
  GraphDelta d;
  if (kind == 0 || kind == 3) {
    const auto b = static_cast<BufferId>(rng.uniform(0, g.buffer_count() - 1));
    d.markings.push_back({b, std::max<i64>(0, g.buffer(b).initial_tokens + rng.uniform(-2, 3))});
  }
  if (kind == 1 || kind == 3) {
    const auto t = static_cast<TaskId>(rng.uniform(0, g.task_count() - 1));
    std::vector<i64> durations;
    for (std::int32_t p = 0; p < g.phases(t); ++p) durations.push_back(rng.uniform(0, 9));
    d.exec_times.push_back({t, durations});
  }
  if (kind == 2 || kind == 3) {
    const auto b = static_cast<BufferId>(rng.uniform(0, g.buffer_count() - 1));
    std::vector<i64> prod = g.buffer(b).prod;
    std::vector<i64> cons = g.buffer(b).cons;
    if (rng.uniform(0, 1) == 0) {
      const i64 factor = rng.uniform(2, 3);
      for (i64& r : prod) r *= factor;
      for (i64& r : cons) r *= factor;
    } else {
      std::rotate(prod.begin(), prod.begin() + 1, prod.end());
      std::rotate(cons.begin(), cons.begin() + 1, cons.end());
    }
    d.rates.push_back({b, prod, cons});
  }
  return d;
}

TEST(Incremental, SameLayoutRoundsRewriteInPlaceOrSpliceFromAside) {
  McrpOptions warm_options;
  warm_options.howard_warm_start = true;
  McrpOptions cold_options = warm_options;
  cold_options.howard_warm_start = false;

  i64 in_place = 0;  // in-place rounds that rewrote a re-enumerated span
  i64 spliced = 0;   // same-layout rounds that fell back to the splice
  int checked = 0;
  for (u64 seed = 500; checked < 60; ++seed) {
    Rng rng(seed);
    const CsdfGraph base = apply_default_buffer_capacities(random_csdf(rng, small_graphs()), 1, 1);
    const RepetitionVector rv = compute_repetition_vector(base);
    ASSERT_TRUE(rv.consistent);
    // One K of random divisors of q for every variant: the node layout
    // never changes, so every round after the first is a same-layout one.
    std::vector<i64> k;
    for (TaskId t = 0; t < base.task_count(); ++t) k.push_back(random_divisor(rng, rv.of(t)));
    if (constraint_pair_count(base, k) > 20000) continue;

    ConstraintGraph cg;
    ConstraintGraphCache cache;
    McrpScratch warm;
    McrpResult solved;
    ASSERT_TRUE(build_constraint_graph_incremental(base, rv, k, cg, cache));
    solve_max_cycle_ratio(cg.graph, warm_options, warm, solved);
    ConstraintGraph fresh;
    for (int step = 0; step < 16; ++step) {
      const std::string context = "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const CsdfGraph variant = make_variant(base, same_layout_delta(rng, base, step % 4));
      ASSERT_EQ(compute_repetition_vector(variant).q, rv.q) << context;

      const i64 in_place_before = cache.payload_rounds;
      const i64 spliced_before = cache.patched_rounds;
      const i64 rebuilt_before = cache.rebuilt_rounds;
      ASSERT_TRUE(build_constraint_graph_incremental(variant, rv, k, cg, cache)) << context;
      ASSERT_TRUE(build_constraint_graph_into(variant, rv, k, fresh));
      expect_identical(cg, fresh, context);
      if (cache.rebuilt_rounds != rebuilt_before) {
        EXPECT_EQ(cache.last_regenerated_buffers, variant.buffer_count())
            << context << ": a same-layout round rebuilds only when every buffer moved";
      }

      if (cache.payload_rounds == in_place_before) {
        spliced += cache.patched_rounds - spliced_before;
        solve_max_cycle_ratio(cg.graph, warm_options, warm, solved);
        continue;
      }
      in_place += cache.last_regenerated_buffers > 0 ? 1 : 0;
      // Warm on structure, not on the seed: the scratch still holds the
      // previous graph's core under this topology stamp, and with the seed
      // dropped the iteration counts are comparable with a cold solve.
      warm.critical.clear();
      solve_max_cycle_ratio(cg.graph, warm_options, warm, solved);
      McrpScratch cold_scratch;
      McrpResult cold;
      solve_max_cycle_ratio(fresh.graph, cold_options, cold_scratch, cold);
      EXPECT_EQ(solved.status, cold.status) << context;
      EXPECT_EQ(solved.ratio, cold.ratio) << context;
      EXPECT_EQ(solved.critical_cycle, cold.critical_cycle) << context;
      EXPECT_EQ(solved.iterations, cold.iterations) << context;
      EXPECT_EQ(solved.exact_iterations, cold.exact_iterations) << context;
    }
    ++checked;
  }
  EXPECT_GT(in_place, 0) << "some re-enumerated span must keep its shape";
  EXPECT_GT(spliced, 0) << "some re-enumerated span must change its shape";
}

}  // namespace
}  // namespace kp
