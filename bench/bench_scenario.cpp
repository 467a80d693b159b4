// Multi-mode scenario benchmark: states/sec of a 48-mode FSM over the
// 16-task gcd chain, analyzed warm through ThroughputService::
// analyze_scenario vs composed cold from per-state one-shot analyses.
//
// The FSM is a ring mode0 -> mode1 -> ... -> mode47 -> mode0 (every state
// reachable and on a cycle), each mode retiming ONE mid-chain actor of the
// chain — the exact shape the cross-variant constraint cache is built for:
// per state the warm path patches 3 buffers' worth of L payloads instead of
// regenerating the whole constraint graph, and the K-iteration / MCRP
// circuit-seed warm starts carry across states. The combine step (reachability + exact
// max-cycle-ratio over the FSM) is identical in both paths, so the measured
// gap is the per-state analysis engine, end to end.
//
//   * scenario_cold_ms — per state: analyze_throughput on a cold
//                        make_variant copy, then one scenario_worst_case
//   * scenario_warm_ms — per state: analyze_scenario (warm inline worker),
//                        which runs the same combine internally
//
// The two paths must agree EXACTLY on the scenario verdict (status, worst
// period/throughput, binding cycle) — the binary fails on divergence, so
// the speedup can never be bought with a wrong bound. The gate
// (scripts/bench_check.sh, gate 1e) requires cold/warm >= 1.5x within this
// run — machine-relative like every other gate.
//
// Results go to stdout and into BENCH_hotpath.json (first CLI arg overrides
// the path): the "scenario" section is merged into an existing bench run
// (schema 7); otherwise a standalone file is written. When regenerating the
// committed baseline run bench_hotpath, then bench_dse, then this.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "bench_util.hpp"
#include "model/transform.hpp"
#include "scenario/scenario.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace kp;
using kp::bench::gcd_chain;

struct ScenarioBench {
  i64 g = 0;
  i64 states = 0;
  i64 transitions = 0;
  double cold_ms = 0;  // per state, cold per-state analyses + combine
  double warm_ms = 0;  // per state, analyze_scenario with a warm worker
  double combine_ms = 0;
  std::string worst_period;
};

std::string fmt(double v, const char* spec = "%.4f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

/// Merges the "scenario" section into an existing bench JSON (replacing a
/// previous "scenario" section, so reruns never accumulate duplicates), or
/// writes a standalone schema-7 file. Mirrors bench_dse's writer; this
/// binary runs last when regenerating the committed baseline.
void write_json(const std::string& path, const std::string& section) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  const auto pos = existing.find("\"scenario\"");
  if (pos != std::string::npos) {
    const auto comma = existing.rfind(',', pos);
    existing = comma == std::string::npos ? std::string() : existing.substr(0, comma) + "\n}\n";
  }
  std::ofstream out(path);
  const auto brace = existing.rfind('}');
  if (brace != std::string::npos && existing.find("\"schema\"") != std::string::npos) {
    std::string head = existing.substr(0, brace);
    while (!head.empty() && (head.back() == '\n' || head.back() == ' ')) head.pop_back();
    out << head << ",\n  \"scenario\": " << section << "\n}\n";
  } else {
    out << "{\n  \"schema\": 7,\n  \"scenario\": " << section << "\n}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  const std::int32_t chain_tasks = 16;
  const std::int32_t n_states = 48;
  const std::vector<i64> scales{64, 256};

  std::vector<ScenarioBench> results;
  Table table({"g", "states", "transitions", "cold (ms/state)", "warm (ms/state)", "speedup",
               "combine (ms)", "worst period"});

  for (const i64 g : scales) {
    // Ring FSM over the chain: every mode retimes the mid-chain actor (a
    // pure payload delta: the repetition vector and the constraint-graph
    // shape are shared by all modes), dwells alternate 1..3 iterations, and
    // switch delays grow with distance around the ring.
    ScenarioGraph s;
    s.name = "gcd-chain-ring";
    s.base = gcd_chain(chain_tasks, g);
    std::vector<i64> values;
    for (std::int32_t v = 1; v <= n_states; ++v) values.push_back(v);
    const std::vector<GraphDelta> deltas = exec_time_sweep(s.base, chain_tasks / 2, values);
    for (std::int32_t i = 0; i < n_states; ++i) {
      s.add_state("mode" + std::to_string(i), deltas[static_cast<std::size_t>(i)],
                  1 + i % 3);
    }
    for (std::int32_t i = 0; i < n_states; ++i) {
      s.add_transition(i, (i + 1) % n_states, 1 + i % 7);
    }

    ScenarioBench r;
    r.g = g;
    r.states = s.state_count();
    r.transitions = s.transition_count();

    // ---- warm: the scenario service path (one warm inline worker) --------
    ThroughputService service(ServiceOptions{0});
    ScenarioRequest request;
    request.scenario = s;
    Stopwatch warm_clock;
    const ScenarioAnalysis warm = service.analyze_scenario(request);
    r.warm_ms = warm_clock.elapsed_ms() / static_cast<double>(n_states);

    // ---- cold: one-shot analysis per state, then the same combine --------
    Stopwatch cold_clock;
    std::vector<Analysis> per_state;
    per_state.reserve(s.states.size());
    for (const ScenarioState& st : s.states) {
      per_state.push_back(analyze_throughput(make_variant(s.base, st.delta), Method::KIter));
    }
    Stopwatch combine_clock;
    const ScenarioAnalysis cold = scenario_worst_case(s, std::move(per_state));
    r.combine_ms = combine_clock.elapsed_ms();
    r.cold_ms = cold_clock.elapsed_ms() / static_cast<double>(n_states);

    // Warm must buy speed, never a different bound.
    if (warm.status != cold.status || warm.worst_period != cold.worst_period ||
        warm.worst_throughput != cold.worst_throughput ||
        warm.binding_cycle != cold.binding_cycle ||
        warm.binding_transitions != cold.binding_transitions) {
      std::cerr << "FAIL: warm scenario analysis diverges from cold at g = " << g << "\n";
      return 1;
    }
    if (warm.status != ScenarioStatus::Bounded) {
      std::cerr << "FAIL: ring scenario should be Bounded at g = " << g << "\n";
      return 1;
    }
    r.worst_period = warm.worst_period.to_string();

    table.row({std::to_string(g), std::to_string(r.states), std::to_string(r.transitions),
               fmt(r.cold_ms, "%.3f"), fmt(r.warm_ms, "%.3f"),
               fmt(r.cold_ms / std::max(r.warm_ms, 1e-9), "%.2fx"),
               fmt(r.combine_ms, "%.3f"), r.worst_period});
    results.push_back(r);
  }

  std::cout << "Multi-mode scenarios — " << n_states << "-state ring over the " << chain_tasks
            << "-task gcd chain (per-state times)\n\n";
  table.print(std::cout);

  std::ostringstream section;
  section << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioBench& r = results[i];
    section << "    {\"g\": " << r.g << ", \"tasks\": " << chain_tasks
            << ", \"states\": " << r.states << ", \"transitions\": " << r.transitions
            << ", \"cold_ms\": " << r.cold_ms << ", \"warm_ms\": " << r.warm_ms
            << ", \"combine_ms\": " << r.combine_ms << ", \"worst_period\": \""
            << r.worst_period << "\"}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  section << "  ]";
  write_json(json_path, section.str());
  std::cout << "\nwrote " << json_path << "\n";

  // Self-check floor (the script gate enforces the real 1.5x floor).
  for (const ScenarioBench& r : results) {
    if (r.cold_ms < 1.1 * r.warm_ms) {
      std::cerr << "FAIL: warm scenario analysis not measurably faster than cold at g = "
                << r.g << "\n";
      return 1;
    }
  }
  return 0;
}
