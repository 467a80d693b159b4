// Hot-path microbenchmark: constraint-graph construction and MCRP solving
// on the gcd-structured sweep (the bench_scaling Sweep-A family: large
// duplicated pair spaces of which only O(g) pairs survive, the structure of
// the industrial Table-2 apps).
//
// Measured per scale g:
//   * build_reference_ms — brute-force O(rows·cols) pair scan
//   * build_stride_ms    — stride enumeration (the shipping generator)
//   * solve_ms           — warm MCRP solve of the built graph
//   * round_ms           — one warm K-round (build + solve) through a
//                          KIterWorkspace, the steady-state per-round cost
//
// Plus the incremental-engine comparison on a 16-task gcd-structured chain
// (the warm-round shape the K-Iter loop actually produces: one task on the
// critical circuit bumps K, 15 don't):
//   * full_ms  — full stride rebuild of the constraint graph
//   * patch_ms — diff-and-patch through a warm ConstraintGraphCache
// The gated figure is the within-run ratio full_ms / patch_ms.
//
// All numbers are min-of-N to damp scheduler noise. Results go to stdout as
// a table and to BENCH_hotpath.json (first CLI arg overrides the path) for
// scripts/bench_check.sh to track regressions.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/constraints.hpp"
#include "core/kiter.hpp"
#include "core/kperiodic.hpp"
#include "gen/csdf_apps.hpp"
#include "model/repetition.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace kp;
using kp::bench::gcd_chain;
using kp::bench::min_ms_of;

struct CaseResult {
  i64 g = 0;
  i64 arcs = 0;
  i128 pairs = 0;
  double build_reference_ms = 0;
  double build_stride_ms = 0;
  double solve_ms = 0;
  double round_ms = 0;
};

struct IncrementalResult {
  i64 g = 0;
  i64 arcs = 0;
  double full_ms = 0;   // full stride rebuild
  double patch_ms = 0;  // warm diff-and-patch, one touched task of 16
};

std::string fmt(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", ms);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  const std::vector<i64> scales{64, 128, 256, 512};
  const int repeats = 7;

  std::vector<CaseResult> results;
  Table table({"g", "pairs", "arcs", "build ref (ms)", "build stride (ms)", "speedup",
               "solve (ms)", "warm round (ms)"});

  for (const i64 g : scales) {
    const CsdfGraph graph = gcd_ring(g);
    const RepetitionVector rv = compute_repetition_vector(graph);
    const std::vector<i64> k{1, g, g};

    CaseResult cr;
    cr.g = g;
    cr.pairs = constraint_pair_count(graph, k);

    // Reuse one graph object per generator across repeats so both measure
    // the warm (capacity-retained) path, not the first-touch allocations —
    // the gated ratio then compares enumeration cost, not allocator cost.
    ConstraintGraph scratch_cg;
    ConstraintGraph scratch_ref;
    build_constraint_graph_into(graph, rv, k, scratch_cg);
    cr.arcs = scratch_cg.graph.arc_count();

    cr.build_stride_ms = min_ms_of(
        repeats, [&] { build_constraint_graph_into(graph, rv, k, scratch_cg); });
    cr.build_reference_ms = min_ms_of(
        repeats, [&] { build_constraint_graph_reference_into(graph, rv, k, scratch_ref); });

    KIterWorkspace ws;
    McrpOptions mcrp;
    (void)evaluate_k_periodic_round(graph, rv, k, mcrp, ws);  // warm the workspace
    cr.solve_ms = min_ms_of(
        repeats, [&] { solve_max_cycle_ratio(ws.constraints.graph, mcrp, ws.mcrp, ws.solved); });
    cr.round_ms = min_ms_of(
        repeats, [&] { (void)evaluate_k_periodic_round(graph, rv, k, mcrp, ws); });

    const double speedup = cr.build_reference_ms / std::max(cr.build_stride_ms, 1e-9);
    char spd[32];
    std::snprintf(spd, sizeof spd, "%.1fx", speedup);
    table.row({std::to_string(g), to_string(cr.pairs), std::to_string(cr.arcs),
               fmt(cr.build_reference_ms), fmt(cr.build_stride_ms), spd, fmt(cr.solve_ms),
               fmt(cr.round_ms)});
    results.push_back(cr);
  }

  std::cout << "Hot-path microbenchmark — gcd-structured sweep, K = q̄ = [1, g, g]\n\n";
  table.print(std::cout);

  // ---- incremental engine: warm patch vs full rebuild ----------------------
  // 16-task chain, K flips on one mid-chain task only (<25% of tasks on the
  // "critical circuit"): 3 of 31 buffers regenerate, 28 splice.
  const std::int32_t chain_tasks = 16;
  std::vector<IncrementalResult> inc_results;
  Table inc_table({"g", "arcs", "full rebuild (ms)", "patch (ms)", "patch speedup"});
  for (const i64 g : scales) {
    const CsdfGraph graph = gcd_chain(chain_tasks, g);
    const RepetitionVector rv = compute_repetition_vector(graph);
    std::vector<i64> ka(static_cast<std::size_t>(chain_tasks), g);
    ka[0] = 1;
    std::vector<i64> kb = ka;
    kb[chain_tasks / 2] = g / 2;  // scales are all even

    IncrementalResult ir;
    ir.g = g;

    ConstraintGraph patched;
    ConstraintGraphCache cache;
    // Cold build + enough alternations to warm both ping-pong sides at
    // both K vectors.
    for (const auto* k : {&ka, &kb, &ka, &kb, &ka}) {
      build_constraint_graph_incremental(graph, rv, *k, patched, cache);
    }
    ir.arcs = patched.graph.arc_count();
    ir.patch_ms = min_ms_of(repeats, [&] {
                    build_constraint_graph_incremental(graph, rv, kb, patched, cache);
                    build_constraint_graph_incremental(graph, rv, ka, patched, cache);
                  }) /
                  2.0;

    ConstraintGraph full;
    build_constraint_graph_into(graph, rv, ka, full);
    ir.full_ms = min_ms_of(repeats, [&] {
                   build_constraint_graph_into(graph, rv, kb, full);
                   build_constraint_graph_into(graph, rv, ka, full);
                 }) /
                 2.0;

    // Sanity: the patched graph must match the full build it replaces.
    if (patched.graph.arc_count() != full.graph.arc_count()) {
      std::cerr << "FAIL: patched arc count diverges at g = " << g << "\n";
      return 1;
    }

    const double speedup = ir.full_ms / std::max(ir.patch_ms, 1e-9);
    char spd[32];
    std::snprintf(spd, sizeof spd, "%.1fx", speedup);
    inc_table.row({std::to_string(g), std::to_string(ir.arcs), fmt(ir.full_ms),
                   fmt(ir.patch_ms), spd});
    inc_results.push_back(ir);
  }

  std::cout << "\nIncremental engine — " << chain_tasks
            << "-task gcd chain, 1 task's K flips per round\n\n";
  inc_table.print(std::cout);

  // hardware_cores records what this box could have offered; the microbench
  // itself is single-threaded (workers: 1), so readers of the committed
  // baseline can tell a 1-core container capture from a real machine's.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::ofstream json(json_path);
  json << "{\n  \"schema\": 7,\n  \"sweep\": \"gcd-ring\",\n  \"hardware_cores\": " << hw
       << ",\n  \"workers\": 1,\n  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& cr = results[i];
    json << "    {\"g\": " << cr.g << ", \"pairs\": " << to_string(cr.pairs)
         << ", \"arcs\": " << cr.arcs << ", \"build_reference_ms\": " << cr.build_reference_ms
         << ", \"build_stride_ms\": " << cr.build_stride_ms << ", \"solve_ms\": " << cr.solve_ms
         << ", \"round_ms\": " << cr.round_ms << "}" << (i + 1 < results.size() ? "," : "")
         << "\n";
  }
  json << "  ],\n  \"incremental\": [\n";
  for (std::size_t i = 0; i < inc_results.size(); ++i) {
    const IncrementalResult& ir = inc_results[i];
    json << "    {\"g\": " << ir.g << ", \"tasks\": " << chain_tasks << ", \"arcs\": " << ir.arcs
         << ", \"full_ms\": " << ir.full_ms << ", \"patch_ms\": " << ir.patch_ms << "}"
         << (i + 1 < inc_results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nwrote " << json_path << "\n";

  // Self-checks: the optimizations' acceptance floors.
  for (const CaseResult& cr : results) {
    if (cr.build_reference_ms < 5.0 * cr.build_stride_ms) {
      std::cerr << "FAIL: stride build speedup below 5x at g = " << cr.g << "\n";
      return 1;
    }
  }
  for (const IncrementalResult& ir : inc_results) {
    if (ir.full_ms < 1.1 * ir.patch_ms) {
      std::cerr << "FAIL: patch path not measurably faster than full rebuild at g = " << ir.g
                << "\n";
      return 1;
    }
  }
  return 0;
}
