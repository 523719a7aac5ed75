// Shared pieces of the benchmark program: options, the outcome every
// workload returns, pinning, order statistics and set-up probes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "converse/converse.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path for traced runs ("" = none)
  std::string rundir = ".bench_build";  // scratch files (socket rendezvous)
};

/// What one workload run reports.  `metrics` holds end-to-end metrics for
/// an untraced run and per-layer metrics for a traced one; `attempted`
/// counts operations, `failed` the output checks that failed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failed checks, for humans
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;  // pinning, hashes, notes

  /// Record a check; a false `ok` adds `weight` failures.
  void Check(bool ok, const std::string& what, std::uint64_t weight = 1);
};

Outcome RunFanin(const Options& opt);
Outcome RunHalo(const Options& opt);
Outcome RunTasksSim(const Options& opt);
Outcome RunWire(const Options& opt);

/// A machine with every knob that changes the measured program set
/// explicitly (the library defaults, except aggregation), so CONVERSE_AGG
/// or CONVERSE_SBCAST in the environment cannot alter what is measured.
converse::MachineConfig FixedConfig(int npes, std::uint64_t seed,
                                    bool aggregate);

// ---- host helpers -----------------------------------------------------------

/// CPUs this process may run on, in ascending order.
const std::vector<int>& AllowedCpus();
/// Pin the calling thread to the `index`-th allowed CPU (modulo their
/// count).  Failures are counted, not fatal: see PinFailures.
void PinThread(int index);
/// Restrict the whole process (threads it creates later inherit it) to
/// the allowed CPUs with the given indices.  Returns a "a,b" description.
std::string PinProcess(const std::vector<int>& indices);
/// Pin calls of this process that failed (reported in the fingerprint).
int PinFailures();

/// Append `item` to a comma-separated list.
inline void AppendItem(std::string& list, const std::string& item) {
  if (!list.empty()) list += ',';
  list += item;
}

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Throughput that shrugs off rare stalls of the shared host: the median,
/// over the intervals between consecutive timestamps (one every
/// `ops_per_stamp` operations, the first interval starting at `start_ns`),
/// of the interval's rate, in operations per second.  Workloads stamp
/// every few hundred microseconds, so a stall of a few milliseconds moves
/// a few intervals, not the result; the p90 latency metrics still see it.
double MedianIntervalRate(std::int64_t start_ns,
                          const std::vector<std::int64_t>& stamps,
                          double ops_per_stamp);

/// SplitMix64: the benchmark's input generator (independent of the
/// runtime's own RNGs, so inputs never change with library internals).
struct SplitMix64 {
  std::uint64_t state;
  explicit SplitMix64(std::uint64_t seed) : state(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// Set-up time of one machine: from the RunConverse call until the last
/// PE has entered its entry function, in seconds.  Runs `probes` machines
/// with an empty entry and appends one sample per machine.  Workloads
/// probe before and after their timed pass and report the median.
inline constexpr int kSetupProbes = 16;  // per side of the timed pass
void SetupProbes(const converse::MachineConfig& cfg, int probes,
                 std::vector<double>& samples);

/// Make the calling PE thread record its spans into traces[pe].
inline void TraceThisThread(std::vector<PeTrace>& traces, int pe) {
  CurrentTrace() = &traces[static_cast<std::size_t>(pe)];
}

/// The end-to-end figures of one timed pass.  An untraced run makes
/// kRounds passes, each on a fresh machine (fresh echo process for wire),
/// and reports one figure over them per metric.
struct Round {
  double ops_per_s;
  double p50_us;
  double p90_us;
  double gbps;
};
inline constexpr int kRounds = 10;
/// How the passes of a workload are summarized.  kMedian suits workloads
/// whose passes spread around one value.  kSecondBest is for wire, whose
/// passes fall into a fast and a slow mode (64 B stream: about 9 or 6 M
/// msgs/s, 40% fast) and which hypervisor steal slows pass by pass: the
/// second best of 10 is almost always a fast, undisturbed pass, and one
/// lucky pass cannot set the result.  The median of such a mixture flips
/// between the modes from run to run.
enum class Summary { kMedian, kSecondBest };
void ReportRounds(Outcome& out, const std::vector<Round>& rounds,
                  Summary summary);

/// Per-layer metrics shared by the in-process workloads: the layer
/// self-time ledger of the measuring thread over its timed window, the
/// scheduler split, and the message-pool deltas.
void AddLedger(Outcome& out, const PeTrace& measuring);
void AddSchedulerMetrics(Outcome& out, const PeTrace& t);
void AddPoolMetrics(Outcome& out, const converse::CmiMemoryStats& before,
                    const converse::CmiMemoryStats& after);
/// Write one trace per PE ("PE i") as Chrome trace JSON; no-op for "".
void WritePeTraces(const std::string& path, const std::vector<PeTrace>& traces);
/// Mean duration of a call's spans in ns (0 when there were none).
double MeanNs(const std::vector<const PeTrace*>& traces, Call call);

}  // namespace perfbench
