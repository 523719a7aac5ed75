#include "common.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>

namespace perfbench {

using namespace converse;

void Outcome::Check(bool ok, const std::string& what, std::uint64_t weight) {
  if (ok) return;
  failed += weight;
  if (failures.size() < 8) failures.push_back(what);
}

MachineConfig FixedConfig(int npes, std::uint64_t seed, bool aggregate) {
  MachineConfig cfg;
  cfg.npes = npes;
  cfg.seed = seed;
  cfg.aggregate_sends = aggregate ? 1 : 0;
  cfg.agg_max_msg = 512;
  cfg.agg_frame_bytes = 3072;
  cfg.agg_frame_msgs = 32;
  cfg.agg_solo_bypass = true;
  cfg.bcast_share_min = 4096;
  cfg.ring_capacity = 1024;
  cfg.spantree_branching = 4;
  cfg.idle_spin_us = 0.0;
  return cfg;
}

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    if (v.empty()) v.push_back(0);
    return v;
  }();
  return cpus;
}

namespace {
std::atomic<int> pin_failures{0};
}  // namespace

void PinThread(int index) {
  const std::vector<int>& cpus = AllowedCpus();
  const int cpu = cpus[static_cast<std::size_t>(index) % cpus.size()];
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    pin_failures.fetch_add(1, std::memory_order_relaxed);
  }
}

int PinFailures() { return pin_failures.load(std::memory_order_relaxed); }

std::string PinProcess(const std::vector<int>& indices) {
  const std::vector<int>& cpus = AllowedCpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string desc;
  for (int i : indices) {
    const int cpu = cpus[static_cast<std::size_t>(i) % cpus.size()];
    CPU_SET(cpu, &set);
    AppendItem(desc, std::to_string(cpu));
  }
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    pin_failures.fetch_add(1, std::memory_order_relaxed);
    return "unpinned";
  }
  return desc;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double MedianIntervalRate(std::int64_t start_ns,
                          const std::vector<std::int64_t>& stamps,
                          double ops_per_stamp) {
  std::vector<double> rates;
  rates.reserve(stamps.size());
  std::int64_t prev = start_ns;
  for (std::int64_t t : stamps) {
    if (t > prev) {
      rates.push_back(ops_per_stamp / (static_cast<double>(t - prev) * 1e-9));
    }
    prev = t;
  }
  return Median(rates);
}

void SetupProbes(const MachineConfig& cfg, int probes,
                 std::vector<double>& samples) {
  for (int i = 0; i < probes; ++i) {
    std::atomic<std::int64_t> last{0};
    const std::int64_t t0 = NowNs();
    RunConverse(cfg, [&](int, int) {
      const std::int64_t now = NowNs();
      std::int64_t prev = last.load();
      while (prev < now && !last.compare_exchange_weak(prev, now)) {
      }
    });
    samples.push_back(static_cast<double>(last.load() - t0) * 1e-9);
  }
}

namespace {
/// The second best of `v` (the best when there is only one value).
double SecondBest(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (higher_is_better) std::reverse(v.begin(), v.end());
  return v.size() > 1 ? v[1] : v.front();
}
}  // namespace

void ReportRounds(Outcome& out, const std::vector<Round>& rounds,
                  Summary summary) {
  std::vector<double> ops, p50, p90, gbps;
  for (const Round& r : rounds) {
    ops.push_back(r.ops_per_s);
    p50.push_back(r.p50_us);
    p90.push_back(r.p90_us);
    gbps.push_back(r.gbps);
  }
  const auto pick = [summary](std::vector<double>& v, bool higher_better) {
    return summary == Summary::kMedian ? Median(v)
                                       : SecondBest(v, higher_better);
  };
  out.metrics["ops_per_s"] = pick(ops, true);
  out.metrics["op_us_p50"] = pick(p50, false);
  out.metrics["op_us_p90"] = pick(p90, false);
  out.metrics["gbps"] = pick(gbps, true);
}

void AddLedger(Outcome& out, const PeTrace& t) {
  const double window = static_cast<double>(t.call_total_ns(Call::kWindow));
  double covered = 0.0;
  for (int l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    const double frac =
        window > 0 ? static_cast<double>(t.layer_self_ns(layer)) / window : 0;
    out.metrics[std::string("ledger.") + LayerName(layer) + "_frac"] = frac;
    if (layer != Layer::kBench) covered += frac;
  }
  out.metrics["ledger.coverage"] = covered;
  out.Check(t.call_count(Call::kWindow) == 1 && covered >= 0.9 &&
                covered <= 1.1,
            "ledger: layer self times cover " +
                std::to_string(covered * 100.0) +
                "% of the timed window (want 90-110%)");
}

void AddSchedulerMetrics(Outcome& out, const PeTrace& t) {
  const double cpu = static_cast<double>(t.sched_cpu_ns());
  const double wall = static_cast<double>(t.sched_wall_ns());
  const double n = static_cast<double>(t.sched_handler_count());
  const double handler = static_cast<double>(t.sched_handler_ns());
  out.metrics["scheduler.busy_ns_per_msg"] =
      n > 0 ? std::max(0.0, cpu - handler) / n : 0.0;
  out.metrics["scheduler.wait_frac"] =
      wall > 0 ? std::clamp(1.0 - cpu / wall, 0.0, 1.0) : 0.0;
  const double hn = static_cast<double>(t.call_count(Call::kHandler));
  out.metrics["scheduler.handler_ns"] =
      hn > 0 ? static_cast<double>(t.call_self_ns(Call::kHandler)) / hn : 0.0;
}

void AddPoolMetrics(Outcome& out, const CmiMemoryStats& b,
                    const CmiMemoryStats& a) {
  const double local = static_cast<double>(a.local_frees - b.local_frees);
  const double remote = static_cast<double>(a.remote_frees - b.remote_frees);
  const double hits = static_cast<double>(a.pool_hits - b.pool_hits);
  const double misses = static_cast<double>(a.pool_misses - b.pool_misses);
  out.metrics["msg.remote_free_frac"] =
      local + remote > 0 ? remote / (local + remote) : 0.0;
  out.metrics["msg.pool_miss_frac"] =
      hits + misses > 0 ? misses / (hits + misses) : 0.0;
}

void WritePeTraces(const std::string& path,
                   const std::vector<PeTrace>& traces) {
  if (path.empty()) return;
  std::vector<const PeTrace*> ts;
  std::vector<std::string> names;
  for (const PeTrace& t : traces) {
    names.push_back("PE " + std::to_string(ts.size()));
    ts.push_back(&t);
  }
  WriteChromeTrace(path, ts, names);
}

double MeanNs(const std::vector<const PeTrace*>& traces, Call call) {
  double total = 0, n = 0;
  for (const PeTrace* t : traces) {
    total += static_cast<double>(t->call_total_ns(call));
    n += static_cast<double>(t->call_count(call));
  }
  return n > 0 ? total / n : 0.0;
}

}  // namespace perfbench
