// perfbench: the Converse benchmark program.
//
//   perfbench --workload fanin|halo|tasks_sim|wire|all --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--rundir DIR]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics, the tracing overhead and the
// layer ledger of the measuring PE.  Output: one line per metric, a
// "fingerprint" line describing host and build, and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}.  See
// README.md next to this file's directory.
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "common.h"

extern char** environ;

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"ops_per_s", "1/s"}, {"op_us_p50", "us"},
    {"op_us_p90", "us"},    {"gbps", "Gbit/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"msg.alloc_ns", "ns"},
    {"msg.remote_free_frac", "frac"},
    {"msg.pool_miss_frac", "frac"},
    {"machine.send_ns", "ns"},
    {"machine.ack_wait_us", "us"},
    {"machine.idle_blocks_per_kmsg", "count"},
    {"stream.append_ns", "ns"},
    {"stream.flush_ns", "ns"},
    {"stream.msgs_per_frame", "count"},
    {"scheduler.busy_ns_per_msg", "ns"},
    {"scheduler.wait_frac", "frac"},
    {"scheduler.handler_ns", "ns"},
    {"collectives.allreduce_us_p50", "us"},
    {"collectives.bcast_forwards_per_iter", "count"},
    {"ldb.enqueue_ns", "ns"},
    {"ldb.msgs_per_seed", "count"},
    {"ldb.hops_per_seed", "count"},
    {"ldb.rebalanced_per_seed", "count"},
    {"ldb.imbalance", "ratio"},
    {"ldb.makespan_vms", "ms"},
    {"sim.events", "count"},
    {"sim.context_switches", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.ns_per_switch", "ns"},
    {"transport.send_ns", "ns"},
    {"transport.bytes_per_syscall", "B"},
    {"transport.ack_wait_us", "us"},
    {"transport.floor_gbps", "Gbit/s"},
    {"transport.floor_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"ledger.coverage", "frac"},
    {"ledger.bench_frac", "frac"},
    {"ledger.msg_frac", "frac"},
    {"ledger.machine_frac", "frac"},
    {"ledger.stream_frac", "frac"},
    {"ledger.scheduler_frac", "frac"},
    {"ledger.handler_frac", "frac"},
    {"ledger.collectives_frac", "frac"},
    {"ledger.ldb_frac", "frac"},
    {"ledger.transport_frac", "frac"},
};

/// The metrics a run reports: per-layer when traced, else end-to-end.
std::span<const MetricDef> Defs(bool traced) {
  if (traced) return kPerLayer;
  return kEndToEnd;
}

std::string JsonString(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto value = line.find_first_not_of(" \t", line.find(':') + 1);
      if (value != std::string::npos) return line.substr(value);
    }
  }
  return "unknown";
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}.  Steal is time
/// the hypervisor ran someone else while this VM's vCPUs wanted to run.
std::pair<double, double> CpuJiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && (f >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Build properties that make a run measure a different program.
std::vector<std::string> InvalidBuildReasons() {
  std::vector<std::string> why;
#ifndef NDEBUG
  why.push_back("assertions on (not an optimized build)");
#endif
#ifdef CONVERSE_CHECK_ENABLED
  why.push_back("CONVERSE_CHECK");
#endif
#ifdef CONVERSE_RACE_ENABLED
  why.push_back("CONVERSE_RACE");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why.push_back("sanitizer");
#endif
#ifndef __OPTIMIZE__
  why.push_back("compiled without optimization");
#endif
  return why;
}

std::string Fingerprint(const Options& opt, const Outcome& out,
                        const std::vector<std::string>& invalid,
                        double steal_frac) {
  utsname u{};
  uname(&u);
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CONVERSE_", 9) == 0) {
      AppendItem(env, JsonString(*e));
    }
  }
  std::string cpus;
  for (int c : AllowedCpus()) AppendItem(cpus, std::to_string(c));
  std::string bad;
  for (const std::string& r : invalid) AppendItem(bad, JsonString(r));
  std::string info;
  for (const auto& [k, v] : out.info) {
    info += ',';
    info += JsonString(k) + ":" + JsonString(v);
  }
  return std::string("{\"workload\":") + JsonString(opt.workload) +
         ",\"seed\":" + std::to_string(opt.seed) +
         ",\"trace\":" + (opt.trace ? "1" : "0") +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"allowed_cpus\":[" + cpus + "]" +
         ",\"cpu_model\":" + JsonString(CpuModel()) +
         ",\"kernel\":" + JsonString(std::string(u.sysname) + " " + u.release) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"converse_check\":" +
#ifdef CONVERSE_CHECK_ENABLED
         "true" +
#else
         "false" +
#endif
         ",\"converse_race\":" +
#ifdef CONVERSE_RACE_ENABLED
         "true" +
#else
         "false" +
#endif
         ",\"sanitize\":" +
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
         "true" +
#else
         "false" +
#endif
         ",\"pool_enabled\":" +
         (converse::CmiGetMemoryStats().pool_enabled ? "true" : "false") +
         ",\"converse_env\":[" + env + "]" +
         ",\"host_steal_frac\":" + Number(steal_frac) +
         ",\"pin_failures\":" + std::to_string(PinFailures()) + ",\"valid\":" +
         (invalid.empty() ? "true" : "false") + ",\"invalid_because\":[" + bad +
         "]" + info + "}";
}

/// Run one workload and print its report (every metric line, fail_frac,
/// failed checks, fingerprint).  Non-finite metrics are zeroed and counted
/// as a failed check.  False when the workload threw.
bool RunWorkload(const Options& opt, const std::vector<std::string>& invalid,
                 Outcome& out) {
  const auto [steal0, total0] = CpuJiffies();
  try {
    if (opt.workload == "fanin") {
      out = RunFanin(opt);
    } else if (opt.workload == "halo") {
      out = RunHalo(opt);
    } else if (opt.workload == "tasks_sim") {
      out = RunTasksSim(opt);
    } else {
      out = RunWire(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return false;
  }
  std::printf("perfbench %s seed=%llu trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  bool finite = true;
  for (const MetricDef& d : Defs(opt.trace)) {
    double& v = out.metrics[d.name];  // a layer the workload bypasses reads 0
    if (!std::isfinite(v)) {
      finite = false;
      v = 0.0;
    }
    std::printf("%-36s %14.6g %s\n", d.name, v, d.unit);
  }
  out.Check(finite, "a metric was not a finite number");
  if (out.attempted == 0) out.attempted = 1;
  std::printf("fail_frac %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(out.failed) /
                  static_cast<double>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& f : out.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  const auto [steal1, total1] = CpuJiffies();
  const double steal_frac =
      total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
  std::printf("fingerprint %s\n",
              Fingerprint(opt, out, invalid, steal_frac).c_str());
  std::fflush(stdout);  // the wire workload forks
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fanin|halo|tasks_sim|wire|all "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--rundir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--trace-out") {
      opt.trace_out = v;
    } else if (k == "--rundir") {
      opt.rundir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(opt.seconds > 0)) return Usage();
  if (opt.workload != "fanin" && opt.workload != "halo" &&
      opt.workload != "tasks_sim" && opt.workload != "wire" &&
      opt.workload != "all") {
    return Usage();
  }
  AllowedCpus();  // read the affinity mask before any pinning narrows it

  const std::vector<std::string> invalid = InvalidBuildReasons();
  if (!invalid.empty()) {
    std::printf("fingerprint %s\n",
                Fingerprint(opt, Outcome{}, invalid, 0.0).c_str());
    std::fprintf(stderr,
                 "perfbench: this build measures a different program "
                 "(see invalid_because); build Release with checks off\n");
    return 3;
  }

  const bool all = opt.workload == "all";
  const std::vector<std::string> names =
      all ? std::vector<std::string>{"fanin", "halo", "tasks_sim", "wire"}
          : std::vector<std::string>{opt.workload};
  std::string metrics;
  std::uint64_t attempted = 0, failed = 0;
  for (const std::string& name : names) {
    Options one = opt;
    one.workload = name;
    if (all && !opt.trace_out.empty()) one.trace_out += "." + name + ".json";
    Outcome out;
    if (!RunWorkload(one, invalid, out)) return 1;
    for (const MetricDef& d : Defs(opt.trace)) {
      const std::string key = all ? name + "." + d.name : d.name;
      AppendItem(metrics, JsonString(key) + ": {\"value\": " +
                              Number(out.metrics[d.name]) + ", \"unit\": " +
                              JsonString(d.unit) + "}");
    }
    attempted += out.attempted;
    failed += out.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
