// Parametric-DSE benchmark: variants/sec of a 240-variant execution-time
// sweep, patched through the cross-variant content-keyed constraint cache
// vs analyzed cold per variant.
//
// Engine level (the gated figure): per variant, refresh the fixed-K
// constraint-graph state of the 16-task gcd chain after editing ONE
// mid-chain actor's execution time.
//   * cold_build_ms    — full stride regeneration (no cross-variant state)
//   * patched_build_ms — diff-and-patch through a warm ConstraintGraphCache;
//                        an execution-time-only delta rewrites L payloads on
//                        the live graph and re-enumerates zero buffers
// The gate (scripts/bench_check.sh) requires cold/patched >= 2x within this
// run, so it is machine-relative like every other gate.
//
// Service level (gated as 1d, plus a value-identity cross-check that fails
// the binary on divergence): the same sweep end-to-end —
// ThroughputService::analyze_variants with one warm inline worker vs
// analyze_throughput on a cold make_variant copy per point. The warm path
// runs with VariantBatch::warm_start (the default): each variant is seeded
// with the previous one's final K and each MCRP solve with the previous
// solve's critical circuit, so a warm variant is typically one
// payload-patched round whose solve confirms the seed. Values
// (outcome/quality/period/throughput) must match the cold run exactly;
// trajectory metadata (rounds, final K in `detail`) may differ — that is
// the warm-start contract. Per-phase breakdown (constraint build vs MCRP
// solve vs round overhead, from Analysis::build_ms/solve_ms/elapsed_ms)
// goes into the JSON so the speedup is attributable, not just a ratio.
//
// Symbolic level (gated as 1f): the same sweep with VariantBatch::symbolic.
// The service recognizes the deltas as an affine execution-time ray, solves
// one variant exactly per throughput region and fills the rest by
// evaluating the region's critical-cycle rational — so the whole 240-point
// sweep costs a handful of exact solves (sym_exact_solves in the JSON; the
// binary hard-fails above 10) and must still be bit-identical to cold.
// The gate requires symbolic e2e >= 2x over the warm per-point path,
// within-run, so it is machine-relative like every other gate.
//
// Results go to stdout and into BENCH_hotpath.json (first CLI arg overrides
// the path): if the file already holds a bench_hotpath run, the "dse"
// section is merged into it (schema 7); otherwise a standalone file is
// written. Run bench_hotpath first when regenerating the committed baseline.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "bench_util.hpp"
#include "core/constraints.hpp"
#include "core/kperiodic.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace kp;
using kp::bench::gcd_chain;
using kp::bench::min_ms_of;

struct DseResult {
  i64 g = 0;
  i64 variants = 0;
  i64 arcs = 0;
  double cold_build_ms = 0;     // per variant, full stride regeneration
  double patched_build_ms = 0;  // per variant, warm content-keyed patch
  double e2e_cold_ms = 0;       // per variant, cold analyze_throughput
  double e2e_warm_ms = 0;       // per variant, warm analyze_variants
  double e2e_sym_ms = 0;        // per variant, symbolic-region analyze_variants
  i64 sym_exact_solves = 0;     // exact solves the symbolic sweep performed

  // Per-variant phase breakdown of the two e2e runs (from each Analysis:
  // constraint build, MCRP solve, and overhead = elapsed - build - solve),
  // plus total completed K-rounds across the sweep.
  double e2e_cold_build_ms = 0;
  double e2e_cold_solve_ms = 0;
  double e2e_cold_overhead_ms = 0;
  double e2e_warm_build_ms = 0;
  double e2e_warm_solve_ms = 0;
  double e2e_warm_overhead_ms = 0;
  i64 cold_rounds = 0;
  i64 warm_rounds = 0;
};

std::string fmt(double v, const char* spec = "%.4f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

/// Merges the "dse" section into an existing bench_hotpath JSON (written by
/// this repo's bench_hotpath, so the trailing "}\n" is well-known), or
/// writes a standalone file. A "dse" section already present (this tool
/// always writes it last) is replaced, so reruns never accumulate
/// duplicate keys.
void write_json(const std::string& path, const std::string& dse_section) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  const auto dse_pos = existing.find("\"dse\"");
  if (dse_pos != std::string::npos) {
    const auto comma = existing.rfind(',', dse_pos);
    existing = comma == std::string::npos ? std::string() : existing.substr(0, comma) + "\n}\n";
  }
  std::ofstream out(path);
  const auto brace = existing.rfind('}');
  if (brace != std::string::npos && existing.find("\"schema\"") != std::string::npos) {
    std::string head = existing.substr(0, brace);
    while (!head.empty() && (head.back() == '\n' || head.back() == ' ')) head.pop_back();
    out << head << ",\n  \"dse\": " << dse_section << "\n}\n";
  } else {
    out << "{\n  \"schema\": 7,\n  \"dse\": " << dse_section << "\n}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  const std::int32_t chain_tasks = 16;
  const i64 variant_count = 240;
  const std::vector<i64> scales{64, 256};
  const int repeats = 7;

  std::vector<DseResult> results;
  Table table({"g", "variants", "arcs", "cold build (ms)", "patched build (ms)", "speedup",
               "e2e cold (ms)", "e2e warm (ms)", "e2e warm x", "e2e sym (ms)", "e2e sym x",
               "exact solves", "rounds c/w"});

  for (const i64 g : scales) {
    const CsdfGraph base = gcd_chain(chain_tasks, g);
    const RepetitionVector rv = compute_repetition_vector(base);
    // The warm-round K the K-Iter loop reaches on this chain: everything at
    // g except the fan-out source.
    std::vector<i64> k(static_cast<std::size_t>(chain_tasks), g);
    k[0] = 1;

    // One delta per variant: the mid-chain actor's execution time sweeps
    // 1..variant_count. Execution time does not feed the repetition vector,
    // so rv is shared by every variant.
    std::vector<i64> values;
    for (i64 v = 1; v <= variant_count; ++v) values.push_back(v);
    const std::vector<GraphDelta> deltas = exec_time_sweep(base, chain_tasks / 2, values);

    DseResult r;
    r.g = g;
    r.variants = variant_count;

    // ---- engine level: fixed-K constraint-graph refresh per variant -------
    CsdfGraph work = base;
    std::ptrdiff_t applied = -1;
    auto step = [&](std::size_t i) {
      if (applied >= 0) revert_delta(work, deltas[static_cast<std::size_t>(applied)], base);
      apply_delta(work, deltas[i]);
      applied = static_cast<std::ptrdiff_t>(i);
    };

    ConstraintGraph patched;
    ConstraintGraphCache cache;
    step(0);
    build_constraint_graph_incremental(work, rv, k, patched, cache);  // cold seed
    r.arcs = patched.graph.arc_count();
    r.patched_build_ms = min_ms_of(repeats, [&] {
                           for (std::size_t i = 0; i < deltas.size(); ++i) {
                             step(i);
                             build_constraint_graph_incremental(work, rv, k, patched, cache);
                           }
                         }) /
                         static_cast<double>(variant_count);
    if (cache.last_regenerated_buffers != 0 || cache.rebuilt_rounds != 1) {
      std::cerr << "FAIL: execution-time sweep left the payload patch path at g = " << g << "\n";
      return 1;
    }

    ConstraintGraph cold;
    applied = -1;
    step(0);
    build_constraint_graph_into(work, rv, k, cold);  // warm the storage
    r.cold_build_ms = min_ms_of(repeats, [&] {
                        for (std::size_t i = 0; i < deltas.size(); ++i) {
                          step(i);
                          build_constraint_graph_into(work, rv, k, cold);
                        }
                      }) /
                      static_cast<double>(variant_count);

    // Both paths ended on the last variant: the patched graph must match
    // the cold build arc-for-arc.
    if (patched.graph.arc_count() != cold.graph.arc_count()) {
      std::cerr << "FAIL: patched arc count diverges at g = " << g << "\n";
      return 1;
    }
    for (std::int32_t a = 0; a < cold.graph.arc_count(); ++a) {
      if (patched.graph.cost(a) != cold.graph.cost(a) ||
          patched.graph.time(a) != cold.graph.time(a)) {
        std::cerr << "FAIL: patched payload diverges at g = " << g << " arc " << a << "\n";
        return 1;
      }
    }

    // ---- service level: full analyses, warm variants vs cold copies --------
    VariantBatch batch;
    batch.base = base;
    batch.deltas = deltas;
    ThroughputService service(ServiceOptions{0});  // inline: one warm worker
    Stopwatch warm_clock;
    const std::vector<Analysis> warm = service.analyze_variants(batch);
    r.e2e_warm_ms = warm_clock.elapsed_ms() / static_cast<double>(variant_count);

    // Symbolic-region path: one exact solve per throughput region, rational
    // evaluation everywhere else. Same inline-worker service shape.
    VariantBatch sym_batch = batch;
    sym_batch.symbolic = true;
    ThroughputService sym_service(ServiceOptions{0});
    Stopwatch sym_clock;
    const std::vector<Analysis> sym = sym_service.analyze_variants(sym_batch);
    r.e2e_sym_ms = sym_clock.elapsed_ms() / static_cast<double>(variant_count);
    for (const Analysis& a : sym) {
      const bool fill = a.rounds == 0 && a.detail.rfind("symbolic region", 0) == 0;
      if (!fill) ++r.sym_exact_solves;
    }

    Stopwatch cold_clock;
    std::vector<Analysis> cold_results;
    cold_results.reserve(deltas.size());
    for (const GraphDelta& d : deltas) {
      cold_results.push_back(analyze_throughput(make_variant(base, d), Method::KIter));
    }
    r.e2e_cold_ms = cold_clock.elapsed_ms() / static_cast<double>(variant_count);

    // Warm-start contract: values must be identical; trajectory metadata
    // (rounds, final K in `detail`) may legitimately differ, so it is NOT
    // compared here — tests/test_variants.cpp pins the bit-identical
    // warm_start=false contract instead.
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      const Analysis& a = warm[i];
      const Analysis& b = cold_results[i];
      if (a.outcome != b.outcome || a.quality != b.quality || a.period != b.period ||
          a.throughput != b.throughput) {
        std::cerr << "FAIL: warm variant analysis diverges from cold at g = " << g
                  << " variant " << i << "\n";
        return 1;
      }
      const Analysis& s = sym[i];
      if (s.outcome != b.outcome || s.quality != b.quality || s.period != b.period ||
          s.throughput != b.throughput) {
        std::cerr << "FAIL: symbolic variant analysis diverges from cold at g = " << g
                  << " variant " << i << "\n";
        return 1;
      }
      r.e2e_warm_build_ms += a.build_ms;
      r.e2e_warm_solve_ms += a.solve_ms;
      r.e2e_warm_overhead_ms += a.elapsed_ms - a.build_ms - a.solve_ms;
      r.warm_rounds += a.rounds;
      r.e2e_cold_build_ms += b.build_ms;
      r.e2e_cold_solve_ms += b.solve_ms;
      r.e2e_cold_overhead_ms += b.elapsed_ms - b.build_ms - b.solve_ms;
      r.cold_rounds += b.rounds;
    }
    const double per_variant = 1.0 / static_cast<double>(variant_count);
    r.e2e_warm_build_ms *= per_variant;
    r.e2e_warm_solve_ms *= per_variant;
    r.e2e_warm_overhead_ms *= per_variant;
    r.e2e_cold_build_ms *= per_variant;
    r.e2e_cold_solve_ms *= per_variant;
    r.e2e_cold_overhead_ms *= per_variant;

    table.row({std::to_string(g), std::to_string(r.variants), std::to_string(r.arcs),
               fmt(r.cold_build_ms), fmt(r.patched_build_ms),
               fmt(r.cold_build_ms / std::max(r.patched_build_ms, 1e-9), "%.1fx"),
               fmt(r.e2e_cold_ms, "%.3f"), fmt(r.e2e_warm_ms, "%.3f"),
               fmt(r.e2e_cold_ms / std::max(r.e2e_warm_ms, 1e-9), "%.2fx"),
               fmt(r.e2e_sym_ms, "%.4f"),
               fmt(r.e2e_warm_ms / std::max(r.e2e_sym_ms, 1e-9), "%.2fx"),
               std::to_string(r.sym_exact_solves) + "/" + std::to_string(r.variants),
               std::to_string(r.cold_rounds) + "/" + std::to_string(r.warm_rounds)});
    results.push_back(r);
  }

  std::cout << "Parametric DSE — " << chain_tasks << "-task gcd chain, " << variant_count
            << "-variant execution-time sweep (per-variant times)\n\n";
  table.print(std::cout);

  std::ostringstream dse;
  dse << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const DseResult& r = results[i];
    dse << "    {\"g\": " << r.g << ", \"tasks\": " << chain_tasks
        << ", \"variants\": " << r.variants << ", \"arcs\": " << r.arcs
        << ", \"cold_build_ms\": " << r.cold_build_ms
        << ", \"patched_build_ms\": " << r.patched_build_ms
        << ", \"e2e_cold_ms\": " << r.e2e_cold_ms << ", \"e2e_warm_ms\": " << r.e2e_warm_ms
        << ", \"e2e_sym_ms\": " << r.e2e_sym_ms
        << ", \"sym_exact_solves\": " << r.sym_exact_solves
        << ", \"e2e_cold_build_ms\": " << r.e2e_cold_build_ms
        << ", \"e2e_cold_solve_ms\": " << r.e2e_cold_solve_ms
        << ", \"e2e_cold_overhead_ms\": " << r.e2e_cold_overhead_ms
        << ", \"e2e_warm_build_ms\": " << r.e2e_warm_build_ms
        << ", \"e2e_warm_solve_ms\": " << r.e2e_warm_solve_ms
        << ", \"e2e_warm_overhead_ms\": " << r.e2e_warm_overhead_ms
        << ", \"cold_rounds\": " << r.cold_rounds << ", \"warm_rounds\": " << r.warm_rounds
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  dse << "  ]";
  write_json(json_path, dse.str());
  std::cout << "\nwrote " << json_path << "\n";

  // Self-check floors (the script gates enforce the real 2x floors).
  for (const DseResult& r : results) {
    if (r.cold_build_ms < 1.2 * r.patched_build_ms) {
      std::cerr << "FAIL: variant patch not measurably faster than cold builds at g = " << r.g
                << "\n";
      return 1;
    }
    if (r.sym_exact_solves > 10) {
      std::cerr << "FAIL: symbolic sweep needed " << r.sym_exact_solves
                << " exact solves (> 10) at g = " << r.g << "\n";
      return 1;
    }
  }
  return 0;
}
