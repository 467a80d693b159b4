#include "model/transform.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace kp {

namespace {

/// Deep copy of tasks into a fresh graph (buffers are appended by callers).
CsdfGraph copy_tasks(const CsdfGraph& g) {
  CsdfGraph out(g.name());
  for (const Task& t : g.tasks()) out.add_task(t.name, t.durations);
  return out;
}

std::vector<i64> repeat_vector(const std::vector<i64>& v, i64 times) {
  std::vector<i64> out;
  out.reserve(v.size() * static_cast<std::size_t>(times));
  for (i64 i = 0; i < times; ++i) out.insert(out.end(), v.begin(), v.end());
  return out;
}

}  // namespace

std::span<const Buffer> serialization_buffers_into(const CsdfGraph& g, std::vector<Buffer>& out) {
  std::size_t n = 0;
  for (TaskId t = 0; t < g.task_count(); ++t) {
    const auto& outs = g.out_buffers(t);
    const bool has_self = std::any_of(outs.begin(), outs.end(), [&](BufferId bid) {
      return g.buffer(bid).is_self_loop();
    });
    if (has_self) continue;
    if (n == out.size()) out.emplace_back();
    Buffer& b = out[n++];
    const auto phi = static_cast<std::size_t>(g.phases(t));
    b.name.clear();
    b.src = t;
    b.dst = t;
    b.prod.assign(phi, 1);
    b.cons.assign(phi, 1);
    b.initial_tokens = 1;
    b.total_prod = static_cast<i64>(phi);
    b.total_cons = static_cast<i64>(phi);
    b.cum_prod.resize(phi + 1);
    for (std::size_t p = 0; p <= phi; ++p) b.cum_prod[p] = static_cast<i64>(p);
    b.cum_cons.assign(b.cum_prod.begin(), b.cum_prod.end());
  }
  return {out.data(), n};
}

CsdfGraph add_serialization_buffers(const CsdfGraph& g) {
  CsdfGraph out = g;
  std::vector<Buffer> loops;
  (void)serialization_buffers_into(g, loops);  // fresh: the span is all of it
  for (Buffer& b : loops) {
    out.add_buffer("serial:" + g.task(b.src).name, b.src, b.dst, std::move(b.prod),
                   std::move(b.cons), b.initial_tokens);
  }
  return out;
}

CsdfGraph apply_buffer_capacities(const CsdfGraph& g, const std::vector<i64>& capacities) {
  if (static_cast<std::int32_t>(capacities.size()) != g.buffer_count()) {
    throw ModelError("apply_buffer_capacities: need one capacity per buffer");
  }
  CsdfGraph out = copy_tasks(g);
  for (BufferId i = 0; i < g.buffer_count(); ++i) {
    const Buffer& b = g.buffer(i);
    out.add_buffer(b.name, b.src, b.dst, b.prod, b.cons, b.initial_tokens);
  }
  for (BufferId i = 0; i < g.buffer_count(); ++i) {
    const Buffer& b = g.buffer(i);
    const i64 cap = capacities[static_cast<std::size_t>(i)];
    if (cap < 0 || b.is_self_loop()) continue;  // unbounded
    if (cap < b.initial_tokens) {
      throw ModelError("buffer '" + b.name + "': capacity " + std::to_string(cap) +
                       " below initial marking " + std::to_string(b.initial_tokens));
    }
    // Reverse arc: dst frees b.cons tokens of space when it finishes a phase;
    // src claims b.prod tokens of space before it writes.
    out.add_buffer("space:" + b.name, b.dst, b.src, b.cons, b.prod, cap - b.initial_tokens);
  }
  return out;
}

CsdfGraph apply_default_buffer_capacities(const CsdfGraph& g, i64 factor_num, i64 factor_den) {
  if (factor_num <= 0 || factor_den <= 0) {
    throw ModelError("apply_default_buffer_capacities: factor must be positive");
  }
  std::vector<i64> caps;
  caps.reserve(static_cast<std::size_t>(g.buffer_count()));
  for (const Buffer& b : g.buffers()) {
    const i64 base = std::max(checked_add(b.total_prod, b.total_cons), b.initial_tokens);
    const i64 cap = narrow64(ceil_div(checked_mul(i128{base}, i128{factor_num}), i128{factor_den}));
    caps.push_back(std::max(cap, b.initial_tokens));
  }
  return apply_buffer_capacities(g, caps);
}

CsdfGraph expand_phases(const CsdfGraph& g, const std::vector<i64>& k) {
  if (static_cast<std::int32_t>(k.size()) != g.task_count()) {
    throw ModelError("expand_phases: need one K_t per task");
  }
  for (const i64 kt : k) {
    if (kt < 1) throw ModelError("expand_phases: K_t must be >= 1");
  }
  CsdfGraph out(g.name() + "~K");
  for (TaskId t = 0; t < g.task_count(); ++t) {
    const Task& task = g.task(t);
    out.add_task(task.name, repeat_vector(task.durations, k[static_cast<std::size_t>(t)]));
  }
  for (const Buffer& b : g.buffers()) {
    out.add_buffer(b.name, b.src, b.dst, repeat_vector(b.prod, k[static_cast<std::size_t>(b.src)]),
                   repeat_vector(b.cons, k[static_cast<std::size_t>(b.dst)]), b.initial_tokens);
  }
  return out;
}

namespace {

/// "GraphDelta.exec_times[2] (task 5)" — pinpoints which edit of a delta an
/// error refers to; deltas routinely carry many edits and the underlying
/// graph errors only name the graph-side entity.
std::string delta_edit(const char* field, std::size_t index, const char* id_kind, i64 id) {
  return "GraphDelta." + std::string(field) + "[" + std::to_string(index) + "] (" + id_kind +
         " " + std::to_string(id) + ")";
}

[[noreturn]] void rethrow_delta_edit(const char* field, std::size_t index, const char* id_kind,
                                     i64 id, const Error& err) {
  throw ModelError(delta_edit(field, index, id_kind, id) + ": " + err.what());
}

}  // namespace

void apply_delta(CsdfGraph& g, const GraphDelta& d) {
  for (std::size_t i = 0; i < d.exec_times.size(); ++i) {
    const GraphDelta::ExecTime& e = d.exec_times[i];
    try {
      g.set_durations(e.task, e.durations);
    } catch (const Error& err) {
      rethrow_delta_edit("exec_times", i, "task", e.task, err);
    }
  }
  for (std::size_t i = 0; i < d.markings.size(); ++i) {
    const GraphDelta::Marking& m = d.markings[i];
    try {
      g.set_initial_tokens(m.buffer, m.initial_tokens);
    } catch (const Error& err) {
      rethrow_delta_edit("markings", i, "buffer", m.buffer, err);
    }
  }
  for (std::size_t i = 0; i < d.rates.size(); ++i) {
    const GraphDelta::Rates& r = d.rates[i];
    try {
      g.set_rates(r.buffer, r.prod, r.cons);
    } catch (const Error& err) {
      rethrow_delta_edit("rates", i, "buffer", r.buffer, err);
    }
  }
}

void revert_delta(CsdfGraph& g, const GraphDelta& d, const CsdfGraph& base) {
  for (std::size_t i = 0; i < d.exec_times.size(); ++i) {
    const GraphDelta::ExecTime& e = d.exec_times[i];
    try {
      g.set_durations(e.task, base.task(e.task).durations);
    } catch (const Error& err) {
      rethrow_delta_edit("exec_times", i, "task", e.task, err);
    }
  }
  for (std::size_t i = 0; i < d.markings.size(); ++i) {
    const GraphDelta::Marking& m = d.markings[i];
    try {
      g.set_initial_tokens(m.buffer, base.buffer(m.buffer).initial_tokens);
    } catch (const Error& err) {
      rethrow_delta_edit("markings", i, "buffer", m.buffer, err);
    }
  }
  for (std::size_t i = 0; i < d.rates.size(); ++i) {
    const GraphDelta::Rates& r = d.rates[i];
    try {
      const Buffer& b = base.buffer(r.buffer);
      g.set_rates(r.buffer, b.prod, b.cons);
    } catch (const Error& err) {
      rethrow_delta_edit("rates", i, "buffer", r.buffer, err);
    }
  }
}

void validate_delta_targets(const CsdfGraph& base, const GraphDelta& d) {
  for (std::size_t i = 0; i < d.exec_times.size(); ++i) {
    try {
      (void)base.task(d.exec_times[i].task);
    } catch (const Error& err) {
      rethrow_delta_edit("exec_times", i, "task", d.exec_times[i].task, err);
    }
  }
  for (std::size_t i = 0; i < d.markings.size(); ++i) {
    try {
      (void)base.buffer(d.markings[i].buffer);
    } catch (const Error& err) {
      rethrow_delta_edit("markings", i, "buffer", d.markings[i].buffer, err);
    }
  }
  for (std::size_t i = 0; i < d.rates.size(); ++i) {
    try {
      (void)base.buffer(d.rates[i].buffer);
    } catch (const Error& err) {
      rethrow_delta_edit("rates", i, "buffer", d.rates[i].buffer, err);
    }
  }
}

CsdfGraph make_variant(const CsdfGraph& base, const GraphDelta& d) {
  CsdfGraph out = base;
  apply_delta(out, d);
  return out;
}

std::vector<GraphDelta> exec_time_sweep(const CsdfGraph& base, const ExecTimeRay& ray,
                                        std::span<const i64> s_values) {
  for (std::size_t a = 0; a < ray.axes.size(); ++a) {
    const ExecTimeRay::Axis& axis = ray.axes[a];
    const auto phi = static_cast<std::size_t>(base.phases(axis.task));  // bounds-checks the task
    if (axis.base.size() != phi || axis.step.size() != phi) {
      throw ModelError("exec_time_sweep: axis " + std::to_string(a) + " (task " +
                       std::to_string(axis.task) + "): base/step need " + std::to_string(phi) +
                       " entries");
    }
    for (std::size_t b = 0; b < a; ++b) {
      if (ray.axes[b].task == axis.task) {
        throw ModelError("exec_time_sweep: task " + std::to_string(axis.task) +
                         " named by two axes");
      }
    }
  }
  std::vector<GraphDelta> out;
  out.reserve(s_values.size());
  for (const i64 s : s_values) {
    GraphDelta d;
    d.exec_times.reserve(ray.axes.size());
    for (const ExecTimeRay::Axis& axis : ray.axes) {
      std::vector<i64> durations(axis.base.size());
      for (std::size_t p = 0; p < durations.size(); ++p) {
        const i64 v =
            narrow64(checked_add(i128{axis.base[p]}, checked_mul(i128{s}, i128{axis.step[p]})));
        if (v < 0) {
          throw ModelError("exec_time_sweep: task " + std::to_string(axis.task) + " phase " +
                           std::to_string(p + 1) + " duration " + std::to_string(v) +
                           " negative at s=" + std::to_string(s));
        }
        durations[p] = v;
      }
      d.exec_times.push_back({axis.task, std::move(durations)});
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::optional<ExecTimeRay> infer_exec_time_ray(std::span<const GraphDelta> deltas) {
  if (deltas.size() < 2) return std::nullopt;
  const GraphDelta& d0 = deltas[0];
  const GraphDelta& d1 = deltas[1];
  if (d0.exec_times.empty()) return std::nullopt;
  for (const GraphDelta& d : deltas) {
    if (!d.markings.empty() || !d.rates.empty()) return std::nullopt;
    if (d.exec_times.size() != d0.exec_times.size()) return std::nullopt;
  }
  // Axes from the first two samples: base = delta0, step = delta1 - delta0.
  ExecTimeRay ray;
  ray.axes.reserve(d0.exec_times.size());
  for (std::size_t a = 0; a < d0.exec_times.size(); ++a) {
    const GraphDelta::ExecTime& e0 = d0.exec_times[a];
    const GraphDelta::ExecTime& e1 = d1.exec_times[a];
    if (e1.task != e0.task || e1.durations.size() != e0.durations.size()) return std::nullopt;
    for (std::size_t b = 0; b < a; ++b) {
      // The same task twice in one delta has later-wins apply semantics;
      // too ambiguous to treat as a ray.
      if (d0.exec_times[b].task == e0.task) return std::nullopt;
    }
    ExecTimeRay::Axis axis;
    axis.task = e0.task;
    axis.base = e0.durations;
    axis.step.resize(e0.durations.size());
    for (std::size_t p = 0; p < e0.durations.size(); ++p) {
      const i128 step = i128{e1.durations[p]} - i128{e0.durations[p]};
      if (step < i128{std::numeric_limits<i64>::min()} ||
          step > i128{std::numeric_limits<i64>::max()}) {
        return std::nullopt;
      }
      axis.step[p] = static_cast<i64>(step);
    }
    ray.axes.push_back(std::move(axis));
  }
  // Every sample (including the first two) must sit exactly on the ray with
  // nonnegative durations — so a symbolic fill that never applies the delta
  // is guaranteed the same values apply_delta would have produced.
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    for (std::size_t a = 0; a < ray.axes.size(); ++a) {
      const GraphDelta::ExecTime& e = deltas[i].exec_times[a];
      const ExecTimeRay::Axis& axis = ray.axes[a];
      if (e.task != axis.task || e.durations.size() != axis.base.size()) return std::nullopt;
      for (std::size_t p = 0; p < axis.base.size(); ++p) {
        if (e.durations[p] < 0) return std::nullopt;
        const i128 want =
            i128{axis.base[p]} + i128{static_cast<i64>(i)} * i128{axis.step[p]};
        if (i128{e.durations[p]} != want) return std::nullopt;
      }
    }
  }
  return ray;
}

std::vector<GraphDelta> exec_time_sweep(const CsdfGraph& base, TaskId task,
                                        std::span<const i64> values) {
  const auto phi = static_cast<std::size_t>(base.phases(task));  // bounds-checks `task`
  std::vector<GraphDelta> out;
  out.reserve(values.size());
  for (const i64 v : values) {
    GraphDelta d;
    d.exec_times.push_back({task, std::vector<i64>(phi, v)});
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace kp
