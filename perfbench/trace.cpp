#include "trace.hpp"

#include <fstream>
#include <numeric>

namespace kpbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::ApiCall:
      return "api.call";
    case Layer::Key:
      return "core.key";
    case Layer::CacheFind:
      return "util.cache_find";
    case Layer::CacheInsert:
      return "util.cache_insert";
    case Layer::Serialize:
      return "model.serialize";
    case Layer::Repetition:
      return "model.repetition";
    case Layer::Delta:
      return "model.delta";
    case Layer::Kiter:
      return "core.kiter";
    case Layer::Cert:
      return "core.cert";
    case Layer::Certify:
      return "core.certify";
    case Layer::Count:
      break;
  }
  return "?";
}

std::int32_t Tracer::root(std::int64_t request, std::int64_t start_ns, std::int64_t end_ns) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  if (spans_.size() < max_spans_) spans_.push_back(Span{Layer::ApiCall, -1, request, start_ns, end_ns});
  request_ = request;
  LayerTotals& t = totals_[static_cast<std::size_t>(Layer::ApiCall)];
  ++t.count;
  t.total_ns += end_ns - start_ns;
  const double us = static_cast<double>(end_ns - start_ns) / 1e3;
  call_us_.push_back(us);
  self_us_.push_back(us);
  return index;
}

void Tracer::close(Layer layer, std::int32_t parent, std::int64_t start, std::int64_t end) {
  // Children always belong to the most recent root.
  if (spans_.size() < max_spans_) spans_.push_back(Span{layer, parent, request_, start, end});
  LayerTotals& t = totals_[static_cast<std::size_t>(layer)];
  ++t.count;
  t.total_ns += end - start;
  if (!self_us_.empty()) self_us_.back() -= static_cast<double>(end - start) / 1e3;
}

void Tracer::kiter_counters(const kp::KIterResult& r, int exact_iters) {
  ++kiter_runs;
  build_ms += r.build_ms;
  solve_ms += r.solve_ms;
  rounds += r.rounds;
  howard_iterations += r.howard_iterations;
  exact_iterations += exact_iters;
}

double Tracer::mean_us(Layer layer) const {
  const LayerTotals& t = totals(layer);
  return t.count == 0 ? 0.0 : static_cast<double>(t.total_ns) / 1e3 / static_cast<double>(t.count);
}

double Tracer::mean_self_us() const {
  if (self_us_.empty()) return 0.0;
  return std::accumulate(self_us_.begin(), self_us_.end(), 0.0) /
         static_cast<double>(self_us_.size());
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tparent\trequest\tlayer\tstart_ns\tend_ns\n";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.request << '\t' << layer_name(s.layer) << '\t'
        << s.start_ns - origin << '\t' << s.end_ns - origin << '\n';
  }
}

}  // namespace kpbench
