#include "gen/categories.hpp"

#include "gen/random_csdf.hpp"

namespace kp {

CsdfGraph h263_decoder() {
  // The classic SDF3 H.263 decoder: q = [1, 2376, 2376, 1] (Σq = 4754, the
  // Table-1 maximum). Durations follow the published actor execution times.
  CsdfGraph g("h263decoder");
  const TaskId vld = g.add_task("VLD", 26018);
  const TaskId iq = g.add_task("IQ", 559);
  const TaskId idct = g.add_task("IDCT", 486);
  const TaskId mc = g.add_task("MotionComp", 10958);
  g.add_buffer("vld-iq", vld, iq, 2376, 1, 0);
  g.add_buffer("iq-idct", iq, idct, 1, 1, 0);
  g.add_buffer("idct-mc", idct, mc, 1, 2376, 0);
  // Frame feedback: one frame in flight.
  g.add_buffer("mc-vld", mc, vld, 1, 1, 1);
  return g;
}

CsdfGraph samplerate_converter() {
  // CD (44.1 kHz) to DAT (48 kHz) conversion chain, the classic multirate
  // example: q = [147, 147, 98, 28, 32, 160].
  CsdfGraph g("samplerate");
  const TaskId a = g.add_task("cd", 10);
  const TaskId b = g.add_task("fir1", 12);
  const TaskId c = g.add_task("up2", 14);
  const TaskId d = g.add_task("up7", 21);
  const TaskId e = g.add_task("down8", 18);
  const TaskId f = g.add_task("dat", 6);
  g.add_buffer("", a, b, 1, 1, 0);
  g.add_buffer("", b, c, 2, 3, 0);
  g.add_buffer("", c, d, 2, 7, 0);
  g.add_buffer("", d, e, 8, 7, 0);
  g.add_buffer("", e, f, 5, 1, 0);
  return g;
}

CsdfGraph modem() {
  // A 16-task modem in the style of the PTOLEMY benchmark: a mostly
  // homogeneous loop with one 16:1 symbol boundary.
  CsdfGraph g("modem");
  std::vector<TaskId> t;
  const i64 durations[16] = {2, 3, 5, 4, 3, 2, 6, 3, 2, 4, 5, 3, 2, 3, 4, 2};
  for (int i = 0; i < 16; ++i) {
    t.push_back(g.add_task(std::string("m").append(std::to_string(i)), durations[i]));
  }
  for (int i = 0; i + 1 < 16; ++i) {
    if (i == 7) {
      g.add_buffer("", t[7], t[8], 1, 16, 0);  // bits -> symbol
    } else if (i == 11) {
      g.add_buffer("", t[11], t[12], 16, 1, 0);  // symbol -> bits
    } else {
      g.add_buffer("", t[i], t[i + 1], 1, 1, 0);
    }
  }
  // Equalizer feedback inside the symbol-rate region.
  g.add_buffer("", t[11], t[9], 1, 1, 2);
  // Carrier-recovery feedback at bit rate.
  g.add_buffer("", t[15], t[13], 1, 1, 3);
  return g;
}

CsdfGraph satellite_receiver() {
  // A 22-task satellite receiver: two parallel decimating chains (I/Q
  // branches) that merge, in the style of the classic benchmark.
  CsdfGraph g("satellite");
  std::vector<TaskId> front_i;
  std::vector<TaskId> front_q;
  for (int i = 0; i < 9; ++i) {
    front_i.push_back(g.add_task(std::string("i").append(std::to_string(i)), 2 + (i % 3)));
    front_q.push_back(g.add_task(std::string("q").append(std::to_string(i)), 2 + (i % 4)));
  }
  const TaskId merge = g.add_task("merge", 5);
  const TaskId demod = g.add_task("demod", 7);
  const TaskId deframe = g.add_task("deframe", 9);
  const TaskId sink = g.add_task("sink", 3);
  for (int i = 0; i + 1 < 9; ++i) {
    g.add_buffer("", front_i[i], front_i[i + 1], 1, 1, 0);
    g.add_buffer("", front_q[i], front_q[i + 1], 1, 1, 0);
  }
  // 240-to-11 decimation into the merge stage.
  g.add_buffer("", front_i[8], merge, 11, 240, 0);
  g.add_buffer("", front_q[8], merge, 11, 240, 0);
  g.add_buffer("", merge, demod, 1, 1, 0);
  g.add_buffer("", demod, deframe, 1, 1, 0);
  g.add_buffer("", deframe, sink, 11, 1, 0);
  return g;
}

CsdfGraph mp3_playback() {
  // A small playback pipeline with Σq = 13 (the Table-1 minimum).
  CsdfGraph g("mp3playback");
  const TaskId src = g.add_task("file", 4);     // q = 1
  const TaskId huff = g.add_task("huffman", 6);  // q = 2
  const TaskId dq = g.add_task("dequant", 5);    // q = 2
  const TaskId imdct = g.add_task("imdct", 8);   // q = 4
  const TaskId dac = g.add_task("dac", 2);       // q = 4
  g.add_buffer("", src, huff, 2, 1, 0);
  g.add_buffer("", huff, dq, 1, 1, 0);
  g.add_buffer("", dq, imdct, 2, 1, 0);
  g.add_buffer("", imdct, dac, 1, 1, 0);
  g.add_buffer("", dac, src, 4, 16, 16);  // playback-rate feedback
  return g;
}

std::vector<NamedGraph> make_actual_dsp() {
  std::vector<NamedGraph> out;
  out.push_back(NamedGraph{"h263decoder", h263_decoder()});
  out.push_back(NamedGraph{"samplerate", samplerate_converter()});
  out.push_back(NamedGraph{"modem", modem()});
  out.push_back(NamedGraph{"satellite", satellite_receiver()});
  out.push_back(NamedGraph{"mp3playback", mp3_playback()});
  return out;
}

std::vector<NamedGraph> make_mimic_dsp(u64 seed, int count) {
  std::vector<NamedGraph> out;
  Rng rng(seed);
  RandomCsdfOptions options;
  options.min_tasks = 3;
  options.max_tasks = 25;
  options.max_phases = 1;
  options.max_q = 3000;
  options.max_rate_factor = 2;
  options.max_duration = 100;
  for (int i = 0; i < count; ++i) {
    CsdfGraph g = random_sdf(rng, options);
    g.set_name("mimic" + std::to_string(i));
    out.push_back(NamedGraph{g.name(), std::move(g)});
  }
  return out;
}

std::vector<NamedGraph> make_lg_hsdf(u64 seed, int count) {
  std::vector<NamedGraph> out;
  Rng rng(seed);
  RandomCsdfOptions options;
  options.min_tasks = 6;
  options.max_tasks = 15;
  options.max_phases = 1;
  options.max_q = 15000;  // huge repetition vectors: expansion-hostile
  options.max_rate_factor = 1;
  options.max_duration = 20;
  for (int i = 0; i < count; ++i) {
    CsdfGraph g = random_sdf(rng, options);
    g.set_name("lghsdf" + std::to_string(i));
    out.push_back(NamedGraph{g.name(), std::move(g)});
  }
  return out;
}

std::vector<NamedGraph> make_lg_transient(u64 seed, int count) {
  std::vector<NamedGraph> out;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const auto n = static_cast<std::int32_t>(rng.uniform(181, 300));
    CsdfGraph g("lgtransient" + std::to_string(i));
    for (std::int32_t t = 0; t < n; ++t) {
      g.add_task(std::string("t").append(std::to_string(t)), rng.uniform(1, 20));
    }
    // A big ring with all its tokens piled on one arc: the self-timed wave
    // needs many iterations to spread into the steady-state distribution.
    const i64 ring_tokens = rng.uniform(n / 10, n / 5);
    for (std::int32_t t = 0; t < n; ++t) {
      const auto next = static_cast<TaskId>((t + 1) % n);
      g.add_buffer("", t, next, 1, 1, t == n - 1 ? ring_tokens : 0);
    }
    // Forward chords (acyclic, token-free) and a few token-carrying back
    // chords to vary the critical cycle.
    const std::int32_t chords = n / 4;
    for (std::int32_t c2 = 0; c2 < chords; ++c2) {
      const auto a = static_cast<TaskId>(rng.uniform(0, n - 2));
      const auto b = static_cast<TaskId>(rng.uniform(a + 1, n - 1));
      if (rng.chance(1, 3)) {
        g.add_buffer("", b, a, 1, 1, rng.uniform(2, 6));
      } else {
        g.add_buffer("", a, b, 1, 1, 0);
      }
    }
    out.push_back(NamedGraph{g.name(), std::move(g)});
  }
  return out;
}

}  // namespace kp
