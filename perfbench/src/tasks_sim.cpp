// tasks_sim: 4 PEs under the deterministic simulator (race detection
// off), CldStrategy::kPeriodic.  Every PE spawns seeds in 4 waves 5 ms of
// virtual time apart; each seed's cost is drawn from a bounded Zipf(1.0)
// over 1..1024 us and charged with CldChargeTime.  This is the shape of
// the LdbStress bursty-waves tests: wall time goes to sim baton handoffs
// and the periodic balancer's load gossip.  Every count repeats exactly
// for a given seed, so runs are checked against each other.
//
// End-to-end: ops_per_s = seeds executed per wall second; op_us_* = wall
// time of one whole simulated run; gbps = seed payload bits per second.
#include <algorithm>
#include <cstring>
#include <utility>

#include "common.h"

namespace perfbench {

using namespace converse;

namespace {

constexpr int kPes = 4;
constexpr int kWaves = 4;
constexpr int kSeedsPerWave = 64;  // per PE
constexpr double kWaveGapUs = 5000.0;
constexpr int kZipfLevels = 1024;
constexpr std::size_t kInputs = 8;  // inputs per invocation, run in rotation

struct SeedMsg {
  std::uint32_t id;
  std::uint32_t cost_us;
};

/// Generated input of one run: seed costs per (PE, wave), ids dense.
struct Input {
  std::uint64_t seed = 0;
  std::vector<std::uint32_t> cost;  // index = id
  double total_cost = 0;
  static int Id(int pe, int wave, int i) {
    return (pe * kWaves + wave) * kSeedsPerWave + i;
  }
};

/// The costs are the n stratified quantiles (i + 0.5) / n of the bounded
/// Zipf(1.0) distribution, so every seed runs the same multiset of costs
/// (the same total work); the seed shuffles which seed id, PE and wave
/// gets which cost.  Independent draws made the total, and with it the run
/// time, differ by several percent from seed to seed.
Input MakeInput(std::uint64_t seed) {
  std::vector<double> cdf(kZipfLevels);
  double acc = 0;
  for (int l = 1; l <= kZipfLevels; ++l) {
    acc += 1.0 / static_cast<double>(l);
    cdf[static_cast<std::size_t>(l - 1)] = acc;
  }
  for (double& v : cdf) v /= acc;
  Input in;
  in.seed = seed;
  in.cost.resize(kPes * kWaves * kSeedsPerWave);
  const double n = static_cast<double>(in.cost.size());
  for (std::size_t i = 0; i < in.cost.size(); ++i) {
    const double q = (static_cast<double>(i) + 0.5) / n;
    in.cost[i] = static_cast<std::uint32_t>(
                     std::lower_bound(cdf.begin(), cdf.end(), q) -
                     cdf.begin()) +
                 1;
    in.total_cost += in.cost[i];
  }
  SplitMix64 sm(seed ^ 0x7a5c5ULL);
  for (std::size_t i = in.cost.size() - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(in.cost[i], in.cost[sm.Next() % (i + 1)]);
  }
  return in;
}

SimConfig SimSetup(std::uint64_t seed, SimReport* report) {
  SimConfig sim;
  sim.seed = seed;
  sim.race_detect = false;  // superlinear at this many sends
  sim.exit_on_quiescence = true;
  sim.report = report;
  return sim;
}

MachineConfig SimMachine(std::uint64_t seed, const SimConfig& sim) {
  MachineConfig cfg = FixedConfig(kPes, seed, false);
  cfg.sim = &sim;  // RunConverse copies the pointee
  return cfg;
}

/// Everything a run must reproduce exactly for the same seed.
struct Signature {
  std::uint64_t trace_hash = 0, outcome_hash = 0, events = 0, switches = 0,
                ldb_msgs = 0;
  double makespan_us = 0;
  bool operator==(const Signature&) const = default;
};

struct RunResult {
  Signature sig;
  double wall_ns = 0;
  std::uint64_t executed = 0, hops = 0, rebalanced = 0;
  double imbalance = 0;
};

template <bool kTrace>
RunResult RunOnce(const Input& in, Outcome& out, std::vector<PeTrace>* traces) {
  SimReport report;
  const SimConfig sim = SimSetup(in.seed, &report);
  const MachineConfig cfg = SimMachine(in.seed, sim);

  std::vector<std::uint8_t> runs(in.cost.size(), 0);
  std::vector<double> busy(kPes, 0.0);
  std::vector<CldCounters> counters(kPes);
  std::vector<std::uint64_t> hops(kPes, 0);
  std::uint64_t bad_payload = 0;

  if constexpr (kTrace) {
    for (PeTrace& t : *traces) t.ResetTotals();
  }
  const std::int64_t t0 = NowNs();
  RunConverse(cfg, [&](int pe, int) {
    // The sim runs one PE thread at a time, so all four share one CPU (the
    // last allowed one).  Spread over four CPUs, every baton handoff woke
    // another vCPU: runs were 1.6x slower, and 4x slower while the host
    // stole 13% of the VM's time.
    PinThread(static_cast<int>(AllowedCpus().size()) - 1);
    if constexpr (kTrace) TraceThisThread(*traces, pe);
    Span<kTrace> window(Call::kWindow);
    CldSetStrategy(CldStrategy::kPeriodic);
    // The sim serializes PE threads (one runs at a time), so the shared
    // vectors below are written under its baton handoffs.
    const int h_seed = CmiRegisterHandler([&](void* msg) {
      Span<kTrace> span(Call::kHandler);
      SeedMsg s;
      std::memcpy(&s, CmiMsgPayload(msg), sizeof(s));
      if (s.id >= runs.size() || in.cost[s.id] != s.cost_us) {
        ++bad_payload;
      } else {
        ++runs[s.id];
        CldChargeTime(static_cast<double>(s.cost_us));
      }
      CmiFree(msg);
    });
    int h_wave = -1;
    h_wave = CmiRegisterHandler([&, pe](void* msg) {
      Span<kTrace> span(Call::kHandler);
      int wave = 0;
      std::memcpy(&wave, CmiMsgPayload(msg), sizeof(wave));
      for (int i = 0; i < kSeedsPerWave; ++i) {
        const auto id = static_cast<std::uint32_t>(Input::Id(pe, wave, i));
        const SeedMsg s{id, in.cost[id]};
        void* m = nullptr;
        {
          Span<kTrace> mk(Call::kMakeMessage);
          m = CmiMakeMessage(h_seed, &s, sizeof(s));
        }
        Span<kTrace> enq(Call::kCldEnqueue);
        CldEnqueue(m);
      }
      if (wave + 1 < kWaves) {
        const int next = wave + 1;
        void* nm = CmiMakeMessage(h_wave, &next, sizeof(next));
        Span<kTrace> d(Call::kSendDelayed);
        CmiSyncSendDelayedAndFree(static_cast<unsigned>(pe),
                                  static_cast<unsigned>(CmiMsgTotalSize(nm)),
                                  nm, kWaveGapUs);
      }
    });
    const int w0 = 0;
    void* m = CmiMakeMessage(h_wave, &w0, sizeof(w0));
    CmiSyncSendDelayedAndFree(static_cast<unsigned>(pe),
                              static_cast<unsigned>(CmiMsgTotalSize(m)), m,
                              1.0 + pe);
    {
      Span<kTrace> sched(Call::kScheduler);
      CsdScheduler(-1);  // the sim exits on global quiescence
    }
    const auto i = static_cast<std::size_t>(pe);
    busy[i] = CldBusyTimeUs();
    counters[i] = CldGetCounters();
    hops[i] = CldSeedHops();
  });
  RunResult r;
  r.wall_ns = static_cast<double>(NowNs() - t0);

  std::uint64_t once = 0;
  for (std::uint8_t c : runs) once += c == 1 ? 1 : 0;
  r.executed = once;
  double busy_total = 0, busy_max = 0;
  CldCounters t;
  for (int p = 0; p < kPes; ++p) {
    const auto i = static_cast<std::size_t>(p);
    busy_total += busy[i];
    busy_max = std::max(busy_max, busy[i]);
    t.spawned += counters[i].spawned;
    t.placed += counters[i].placed;
    t.msgs_sent += counters[i].msgs_sent;
    t.rebalanced_out += counters[i].rebalanced_out;
    r.hops += hops[i];
  }
  r.rebalanced = t.rebalanced_out;
  r.imbalance = busy_total > 0 ? busy_max / (busy_total / kPes) : 0;
  const std::uint64_t n = in.cost.size();
  out.attempted += n;
  out.Check(report.quiesced, "tasks_sim: run did not end by quiescence");
  out.Check(once == n, "tasks_sim: " + std::to_string(n - once) +
                           " seeds did not run exactly once",
            n - once);
  out.Check(bad_payload == 0, "tasks_sim: seed payload corrupted",
            bad_payload);
  out.Check(t.spawned == n && t.placed == n,
            "tasks_sim: Cld spawned/placed counters disagree with the input");
  out.Check(busy_total == in.total_cost,
            "tasks_sim: charged cost differs from generated cost");
  // The bound the LdbStress periodic bursty-waves test asserts.
  out.Check(r.imbalance <= 1.5, "tasks_sim: max/mean busy time above 1.5");
  r.sig.trace_hash = report.trace_hash;
  r.sig.outcome_hash = report.outcome_hash;
  r.sig.events = report.events;
  r.sig.switches = report.context_switches;
  r.sig.ldb_msgs = t.msgs_sent;
  r.sig.makespan_us = report.final_virtual_us;
  return r;
}

struct PassResult {
  std::vector<double> run_us;
  double ops_per_s = 0;
  std::vector<RunResult> first;  // the first run of each input
};

/// Repeat whole simulated runs of the inputs, in rotation, for `seconds`
/// (at least twice each); every repeat of an input must reproduce that
/// input's first signature exactly.
template <bool kTrace>
PassResult Pass(const std::vector<Input>& inputs, double seconds,
                Outcome& out, std::vector<PeTrace>* traces) {
  PassResult p;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t n = 0; NowNs() < deadline || n < 2 * inputs.size(); ++n) {
    const std::size_t j = n % inputs.size();
    const RunResult r = RunOnce<kTrace>(inputs[j], out, traces);
    if (n < inputs.size()) p.first.push_back(r);
    out.Check(r.sig == p.first[j].sig,
              "tasks_sim: same seed, different trace/outcome hash, events, "
              "ldb messages or makespan");
    p.run_us.push_back(r.wall_ns * 1e-3);
  }
  // Seeds per wall second of the median run (robust to stalled runs).
  p.ops_per_s = static_cast<double>(inputs[0].cost.size()) /
                (Median(p.run_us) * 1e-6);
  return p;
}

/// Mean over the inputs' first runs (each is exact for its seed).
template <typename F>
double MeanOver(const PassResult& p, F value) {
  double sum = 0;
  for (const RunResult& r : p.first) sum += value(r);
  return sum / static_cast<double>(p.first.size());
}

}  // namespace

Outcome RunTasksSim(const Options& opt) {
  Outcome out;
  out.info["pinning"] = "all PEs on the last allowed cpu";
  // Several inputs per invocation: the balancer's work depends on how the
  // costs fall, so one input alone made run times differ by ~10% from
  // seed to seed.
  std::vector<Input> inputs;
  for (std::uint64_t j = 0; j < kInputs; ++j) {
    inputs.push_back(MakeInput(opt.seed * kInputs + j));
  }
  if (!opt.trace) {
    const SimConfig sim = SimSetup(opt.seed, nullptr);
    const MachineConfig cfg = SimMachine(opt.seed, sim);
    std::vector<double> setup;
    SetupProbes(cfg, kSetupProbes, setup);
    const PassResult p = Pass<false>(inputs, opt.seconds, out, nullptr);
    SetupProbes(cfg, kSetupProbes, setup);
    out.metrics["setup_s"] = Median(setup);
    // Every run is a fresh machine already: one round.
    ReportRounds(out, {{p.ops_per_s, Quantile(p.run_us, 0.5),
                        Quantile(p.run_us, 0.9),
                        p.ops_per_s * sizeof(SeedMsg) * 8.0 / 1e9}},
                 Summary::kMedian);
    out.info["makespan_vms"] = std::to_string(
        MeanOver(p, [](const RunResult& r) { return r.sig.makespan_us; }) *
        1e-3);
    out.info["trace_hash"] = std::to_string(p.first[0].sig.trace_hash);
    return out;
  }
  const PassResult plain = Pass<false>(inputs, opt.seconds * 0.4, out, nullptr);
  std::vector<PeTrace> traces(kPes);
  const PassResult traced =
      Pass<true>(inputs, opt.seconds * 0.6, out, &traces);
  for (std::size_t j = 0; j < kInputs; ++j) {
    out.Check(traced.first[j].sig == plain.first[j].sig,
              "tasks_sim: tracing changed the simulated run");
  }
  const double seeds = static_cast<double>(inputs[0].cost.size());
  out.metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s / plain.ops_per_s;
  std::vector<const PeTrace*> all;
  for (const PeTrace& t : traces) all.push_back(&t);
  out.metrics["ldb.enqueue_ns"] = MeanNs(all, Call::kCldEnqueue);
  out.metrics["msg.alloc_ns"] = MeanNs(all, Call::kMakeMessage);
  const auto mean = [&](auto value) { return MeanOver(plain, value); };
  out.metrics["ldb.msgs_per_seed"] =
      mean([](const RunResult& r) { return double(r.sig.ldb_msgs); }) / seeds;
  out.metrics["ldb.hops_per_seed"] =
      mean([](const RunResult& r) { return double(r.hops); }) / seeds;
  out.metrics["ldb.rebalanced_per_seed"] =
      mean([](const RunResult& r) { return double(r.rebalanced); }) / seeds;
  out.metrics["ldb.imbalance"] =
      mean([](const RunResult& r) { return r.imbalance; });
  out.metrics["ldb.makespan_vms"] =
      mean([](const RunResult& r) { return r.sig.makespan_us; }) * 1e-3;
  const double events =
      mean([](const RunResult& r) { return double(r.sig.events); });
  const double switches =
      mean([](const RunResult& r) { return double(r.sig.switches); });
  // Wall-clock sim costs come from the untraced runs.
  const double run_ns = Median(plain.run_us) * 1e3;
  out.metrics["sim.events"] = events;
  out.metrics["sim.context_switches"] = switches;
  out.metrics["sim.ns_per_event"] = run_ns / events;
  out.metrics["sim.ns_per_switch"] = switches > 0 ? run_ns / switches : 0.0;
  AddSchedulerMetrics(out, traces[0]);
  AddLedger(out, traces[0]);
  WritePeTraces(opt.trace_out, traces);
  return out;
}

}  // namespace perfbench
