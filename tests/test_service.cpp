// Tests for the batch/async ThroughputService (api/service.hpp) and the
// cooperative deadline/cancellation plumbing underneath it:
//
//   * analyze_batch is deterministic: 1, 2 and 8 worker threads return
//     byte-identical outcome/period/K sequences, equal to sequential
//     analyze_throughput, on a 200-graph random sweep that mixes Value,
//     Deadlock, Unbounded and (deterministic) Budget requests — all served
//     through long-lived per-worker workspaces;
//   * submit()/wait() returns the same results asynchronously;
//   * a CancelToken fired mid-run (from inside the poll chain, so the test
//     is deterministic) stops K-Iter with Outcome::Budget and does not
//     disturb the other requests of the batch;
//   * a zero deadline returns Budget without running a full round;
//   * 20,000 one-request batches on a 3-worker pool all complete: the
//     worker finishing a job is done with the batch's completion
//     rendezvous before the dispatcher can return and free it (run under
//     -fsanitize=thread to see the use-after-scope this guards);
//   * the ConstraintPoll aborts constraint generation mid-round;
//   * method_from_name is the inverse of method_name.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "core/constraints.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "model/repetition.hpp"

namespace kp {
namespace {

// ---- method_from_name -------------------------------------------------------

TEST(MethodFromName, InvertsMethodName) {
  for (const Method m : {Method::KIter, Method::Periodic, Method::SymbolicExecution,
                         Method::Expansion}) {
    const auto parsed = method_from_name(method_name(m));
    ASSERT_TRUE(parsed.has_value()) << method_name(m);
    EXPECT_EQ(*parsed, m);
  }
}

TEST(MethodFromName, AcceptsCommonAliases) {
  EXPECT_EQ(method_from_name("kiter"), Method::KIter);
  EXPECT_EQ(method_from_name("K-ITER"), Method::KIter);
  EXPECT_EQ(method_from_name("periodic"), Method::Periodic);
  EXPECT_EQ(method_from_name("1-periodic"), Method::Periodic);
  EXPECT_EQ(method_from_name("symbolic"), Method::SymbolicExecution);
  EXPECT_EQ(method_from_name("sim"), Method::SymbolicExecution);
  EXPECT_EQ(method_from_name("expansion"), Method::Expansion);
  EXPECT_EQ(method_from_name("hsdf"), Method::Expansion);
}

TEST(MethodFromName, RejectsUnknown) {
  EXPECT_FALSE(method_from_name("").has_value());
  EXPECT_FALSE(method_from_name("montecarlo").has_value());
  EXPECT_FALSE(method_from_name("k iter extra").has_value());
}

// ---- batch determinism ------------------------------------------------------

/// The 200-request sweep of the acceptance criteria: mostly random live
/// CSDFGs, with deterministic Deadlock / Unbounded / Budget requests mixed
/// in at fixed positions.
std::vector<AnalysisRequest> make_sweep_requests(int count) {
  Rng rng(20260729);
  RandomCsdfOptions gen;
  gen.min_tasks = 2;
  gen.max_tasks = 6;
  gen.max_phases = 2;
  gen.max_q = 4;

  std::vector<AnalysisRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    AnalysisRequest req;
    req.method = Method::KIter;
    if (i % 17 == 5) {
      req.graph = figure2_deadlocked();  // -> Outcome::Deadlock
    } else if (i % 17 == 11) {
      // Acyclic pipeline without serialization -> Outcome::Unbounded.
      CsdfGraph g;
      const TaskId a = g.add_task("a", 3);
      const TaskId b = g.add_task("b", 5);
      g.add_buffer("", a, b, 1, 1, 0);
      req.graph = std::move(g);
      req.options.serialize_tasks = false;
    } else if (i % 17 == 14) {
      // A size budget that blocks even round 1 -> deterministic Budget.
      req.graph = figure2_graph();
      req.options.kiter.max_constraint_pairs = 10;
    } else {
      req.graph = random_csdf(rng, gen);
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

/// The determinism contract: everything except the timing/worker metadata.
void expect_same_analysis(const Analysis& a, const Analysis& b, int index) {
  EXPECT_EQ(a.outcome, b.outcome) << "request " << index;
  EXPECT_EQ(a.quality, b.quality) << "request " << index;
  EXPECT_EQ(a.period, b.period) << "request " << index;
  EXPECT_EQ(a.throughput, b.throughput) << "request " << index;
  EXPECT_EQ(a.detail, b.detail) << "request " << index;  // rounds= + final K
}

TEST(ThroughputService, BatchMatchesSequentialAcrossThreadCounts) {
  const std::vector<AnalysisRequest> requests = make_sweep_requests(200);

  // Sequential reference through the one-shot wrapper (fresh workspace per
  // call — the strictest comparison against warm per-worker workspaces).
  std::vector<Analysis> sequential;
  sequential.reserve(requests.size());
  for (const AnalysisRequest& req : requests) {
    sequential.push_back(analyze_throughput(req.graph, req.method, req.options));
  }
  int value_count = 0;
  int deadlock_count = 0;
  int unbounded_count = 0;
  int budget_count = 0;
  for (const Analysis& a : sequential) {
    value_count += (a.outcome == Outcome::Value);
    deadlock_count += (a.outcome == Outcome::Deadlock);
    unbounded_count += (a.outcome == Outcome::Unbounded);
    budget_count += (a.outcome == Outcome::Budget);
  }
  // The sweep must actually exercise the mixed-outcome paths.
  EXPECT_GT(value_count, 100);
  EXPECT_GE(deadlock_count, 11);
  EXPECT_GE(unbounded_count, 11);
  EXPECT_GE(budget_count, 11);

  for (const int threads : {1, 2, 8}) {
    ThroughputService service(ServiceOptions{.threads = threads});
    const std::vector<Analysis> batch = service.analyze_batch(requests);
    ASSERT_EQ(batch.size(), requests.size()) << threads << " threads";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_same_analysis(batch[i], sequential[i], static_cast<int>(i));
      EXPECT_EQ(batch[i].request_id, static_cast<i64>(i));
      EXPECT_GE(batch[i].worker_id, 0);
      EXPECT_LT(batch[i].worker_id, threads);
    }
  }
}

TEST(ThroughputService, RepeatedBatchOnWarmWorkspacesIsIdentical) {
  const std::vector<AnalysisRequest> requests = make_sweep_requests(40);
  ThroughputService service(ServiceOptions{.threads = 2});
  const std::vector<Analysis> first = service.analyze_batch(requests);
  const std::vector<Analysis> second = service.analyze_batch(requests);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_same_analysis(first[i], second[i], static_cast<int>(i));
  }
}

// ---- async submit/wait ------------------------------------------------------

TEST(ThroughputService, SubmitWaitMatchesOneShot) {
  ThroughputService service(ServiceOptions{.threads = 2});
  std::vector<i64> tickets;
  const std::vector<AnalysisRequest> requests = make_sweep_requests(20);
  for (const AnalysisRequest& req : requests) {
    AnalysisRequest copy = req;
    tickets.push_back(service.submit(std::move(copy)));
  }
  // Collect in reverse order: wait() must work regardless of completion
  // or collection order.
  for (std::size_t i = requests.size(); i-- > 0;) {
    const Analysis a = service.wait(tickets[i]);
    const Analysis ref =
        analyze_throughput(requests[i].graph, requests[i].method, requests[i].options);
    expect_same_analysis(a, ref, static_cast<int>(i));
    EXPECT_EQ(a.request_id, tickets[i]);
  }
  EXPECT_THROW((void)service.wait(tickets[0]), SolverError);  // already collected
  EXPECT_THROW((void)service.wait(99999), SolverError);       // never issued
}

TEST(ThroughputService, InlineModeServesEverything) {
  ThroughputService service(ServiceOptions{.threads = 0});
  EXPECT_TRUE(service.inline_mode());
  EXPECT_EQ(service.worker_count(), 1);
  const i64 ticket = service.submit(AnalysisRequest{.graph = figure2_graph()});
  const Analysis a = service.wait(ticket);
  EXPECT_EQ(a.outcome, Outcome::Value);
  EXPECT_EQ(a.period, Rational{13});
}

TEST(ThroughputService, ExceptionsPropagateFromWorkers) {
  // Expansion on CSDF throws ModelError; the worker must forward it.
  ThroughputService service(ServiceOptions{.threads = 2});
  const i64 ticket = service.submit(
      AnalysisRequest{.graph = figure2_graph(), .method = Method::Expansion});
  EXPECT_THROW((void)service.wait(ticket), ModelError);
}

// ---- cancellation and deadlines ---------------------------------------------

TEST(CancelToken, DefaultIsInert) {
  const CancelToken inert;
  EXPECT_FALSE(inert.cancellable());
  EXPECT_FALSE(inert.cancelled());
  inert.cancel();  // no-op, must not crash
  EXPECT_FALSE(inert.cancelled());

  const CancelToken token = CancelToken::create();
  const CancelToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.cancel();
  EXPECT_TRUE(copy.cancelled());  // all copies observe the same flag
}

TEST(ThroughputService, PreCancelledRequestSkipsExecution) {
  ThroughputService service(ServiceOptions{.threads = 1});
  AnalysisRequest req{.graph = figure2_graph()};
  req.cancel = CancelToken::create();
  req.cancel.cancel();
  const std::vector<Analysis> results = service.analyze_batch({&req, 1});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, Outcome::Budget);
  EXPECT_NE(results[0].detail.find("cancelled"), std::string::npos);
}

/// Cancels its token after `fire_after` poll-hook calls: a deterministic
/// "the user clicks cancel mid-run" stand-in (the service polls the token
/// between K-Iter rounds and inside constraint generation).
struct MidRunCanceller {
  CancelToken token = CancelToken::create();
  std::atomic<int> polls{0};
  int fire_after = 3;

  static bool hook(void* ctx) {
    auto& self = *static_cast<MidRunCanceller*>(ctx);
    if (++self.polls >= self.fire_after) self.token.cancel();
    return false;  // the cancellation travels via the token, not the hook
  }
};

TEST(ThroughputService, MidRunCancellationReturnsBudgetWithoutAbortingOthers) {
  // A graph with enough rounds/rows that the poll chain fires several
  // times: the gcd ring needs a K-growth round over a 64x64 pair space.
  MidRunCanceller canceller;
  canceller.fire_after = 2;

  std::vector<AnalysisRequest> requests;
  for (int i = 0; i < 6; ++i) {
    AnalysisRequest req{.graph = figure2_graph()};
    requests.push_back(std::move(req));
  }
  AnalysisRequest doomed{.graph = gcd_ring(64)};
  doomed.cancel = canceller.token;
  doomed.options.kiter.poll = &MidRunCanceller::hook;
  doomed.options.kiter.poll_ctx = &canceller;
  doomed.options.kiter.poll_row_stride = 8;
  requests.insert(requests.begin() + 3, std::move(doomed));

  ThroughputService service(ServiceOptions{.threads = 2});
  const std::vector<Analysis> results = service.analyze_batch(requests);
  ASSERT_EQ(results.size(), 7u);

  EXPECT_EQ(results[3].outcome, Outcome::Budget);
  EXPECT_NE(results[3].detail.find("cancelled"), std::string::npos);
  EXPECT_GE(canceller.polls.load(), canceller.fire_after);

  // Every other request of the batch still completed normally.
  for (const std::size_t i : {0u, 1u, 2u, 4u, 5u, 6u}) {
    EXPECT_EQ(results[i].outcome, Outcome::Value) << "request " << i;
    EXPECT_EQ(results[i].period, Rational{13}) << "request " << i;
  }
}

TEST(ThroughputService, SymbolicExecutionCancelsMidExploration) {
  // The token is polled once per explored state inside the symbolic
  // engine's sweep (not just before execution starts): cancel it from the
  // sim's own poll hook and the exploration must stop as Budget with the
  // cancellation noted, well under the state budget.
  MidRunCanceller canceller;
  ThroughputService service(ServiceOptions{.threads = 0});
  AnalysisOptions options;
  options.sim.poll = &MidRunCanceller::hook;
  options.sim.poll_ctx = &canceller;
  const Analysis a = service.analyze(gcd_ring(24), Method::SymbolicExecution, options, -1.0,
                                     canceller.token);
  EXPECT_EQ(a.outcome, Outcome::Budget);
  EXPECT_NE(a.detail.find("cancelled"), std::string::npos) << a.detail;
  EXPECT_GE(canceller.polls.load(), canceller.fire_after);
}

TEST(ThroughputService, ZeroDeadlineReturnsBudget) {
  ThroughputService service(ServiceOptions{.threads = 1});
  AnalysisRequest req{.graph = gcd_ring(64)};
  req.deadline_ms = 0.0;  // over budget at the very first poll
  const std::vector<Analysis> results = service.analyze_batch({&req, 1});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, Outcome::Budget);
}

TEST(KIter, PollHookCancelsBetweenRoundsAndSetsCancelled) {
  MidRunCanceller canceller;
  canceller.fire_after = 2;
  KIterOptions options;
  // Route the cancellation through the hook directly (no service): the
  // hook returning true must stop the run and mark it cancelled.
  options.poll = +[](void* ctx) {
    auto& self = *static_cast<MidRunCanceller*>(ctx);
    return ++self.polls >= self.fire_after;
  };
  options.poll_ctx = &canceller;
  options.poll_row_stride = 8;
  const CsdfGraph g = gcd_ring(64);
  const KIterResult r = kiter_throughput(g, compute_repetition_vector(g), options);
  EXPECT_EQ(r.status, ThroughputStatus::ResourceLimit);
  EXPECT_TRUE(r.cancelled);
}

// ---- batch completion rendezvous ---------------------------------------------

TEST(ThroughputService, SingleRequestBatchStressNeverOutlivesItsRendezvous) {
  // Cache off, so every call queues its one job and waits for a worker to
  // count it down; a two-task ring solves in microseconds, so the worker's
  // last touch of the stack-allocated rendezvous races the dispatcher
  // returning as tightly as possible.
  ThroughputService service(ServiceOptions{.threads = 3, .result_cache_capacity = 0});
  CsdfGraph ring;
  const TaskId a = ring.add_task("a", 1);
  const TaskId b = ring.add_task("b", 1);
  ring.add_buffer("", a, b, 1, 1, 0);
  ring.add_buffer("", b, a, 1, 1, 1);
  AnalysisRequest req{.graph = ring};
  const Analysis reference = service.analyze(req.graph, Method::KIter);
  for (int i = 0; i < 20000; ++i) {
    const std::vector<Analysis> r = service.analyze_batch({&req, 1});
    ASSERT_EQ(r.size(), 1u);
    ASSERT_EQ(r[0].period, reference.period) << "call " << i;
  }
  EXPECT_EQ(service.stats().jobs_executed, 20001u);
}

// ---- in-generation abort (the one-stride-batch overshoot bound) -------------

TEST(ConstraintPoll, AbortsGenerationMidRound) {
  const CsdfGraph g = gcd_ring(129);
  const RepetitionVector rv = compute_repetition_vector(g);
  const std::vector<i64> k{1, 129, 129};

  std::atomic<int> polls{0};
  ConstraintPoll poll;
  poll.fn = +[](void* ctx) { return ++*static_cast<std::atomic<int>*>(ctx) >= 3; };
  poll.ctx = &polls;
  poll.row_stride = 16;

  ConstraintGraph cg;
  EXPECT_FALSE(build_constraint_graph_into(g, rv, k, cg, &poll));
  EXPECT_EQ(polls.load(), 3);

  // Without a poll (or with one that never fires) the build completes and
  // the graph is the usual one.
  ConstraintGraph full;
  EXPECT_TRUE(build_constraint_graph_into(g, rv, k, full));
  EXPECT_GT(full.graph.arc_count(), 0);
  polls = 0;
  ConstraintPoll tame;
  tame.fn = +[](void* ctx) {
    ++*static_cast<std::atomic<int>*>(ctx);
    return false;
  };
  tame.ctx = &polls;
  tame.row_stride = 16;
  ConstraintGraph polled;
  EXPECT_TRUE(build_constraint_graph_into(g, rv, k, polled, &tame));
  EXPECT_GT(polls.load(), 0);
  EXPECT_EQ(polled.graph.arc_count(), full.graph.arc_count());
}

}  // namespace
}  // namespace kp
