// Benchmark-side span recorder.  Every call the benchmark makes into a
// Converse layer can be wrapped in a Span; the recorder keeps, per PE
// thread, a stack of open spans so each closing span can charge its
// duration minus its children's ("self time") to its layer.  Spans are
// kept in per-thread memory (bounded) and written out as Chrome
// trace-event JSON when the run ends.  Span<false> compiles to nothing, so
// the untraced code paths measure the program without instrumentation.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers, named after the runtime modules they cover.  kBench is the
/// benchmark's own code between calls; kHandler is the benchmark's message
/// handlers (a reference that no runtime change should move).
enum class Layer : int {
  kBench,
  kMsg,
  kMachine,
  kStream,
  kScheduler,
  kHandler,
  kCollectives,
  kLdb,
  kTransport,
  kCount
};
inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);
const char* LayerName(Layer layer);

/// The instrumented calls.  Each belongs to exactly one layer.
enum class Call : int {
  kWindow,          // bench: the timed window on a measuring thread
  kMakeMessage,     // msg: CmiMakeMessage
  kSendAndFree,     // machine: unaggregated CmiSyncSendAndFree
  kSendDelayed,     // machine: CmiSyncSendDelayedAndFree
  kGetSpecific,     // machine: blocking CmiGetSpecificMsg (credit/ack wait)
  kSyncSend,        // stream: aggregated CmiSyncSend
  kFlush,           // stream: CmiFlush
  kScheduler,       // scheduler: CsdScheduler
  kHandler,         // handler: a benchmark handler body
  kAllReduce,       // collectives: CmiAllReduceF64
  kCldEnqueue,      // ldb: CldEnqueue
  kWireSend,        // transport: a 64 KiB send over the socket transport
  kWireAckWait,     // transport: waiting for a window acknowledgement
  kCount
};
inline constexpr int kCallCount = static_cast<int>(Call::kCount);
const char* CallName(Call call);
Layer LayerOf(Call call);

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
std::int64_t NowNs();

/// Per-thread span state.  Single-writer: only its own thread touches it
/// while the machine runs; the main thread reads it after RunConverse returns.
class PeTrace {
 public:
  struct Record {
    std::int32_t call;
    std::int32_t parent;  // index into records(), -1 for a root span
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  explicit PeTrace(std::size_t keep_records = 20000);

  void Open(Call call);
  void Close();

  /// Drop the accumulated totals (not the kept records); called when a
  /// timed window starts, with no span open.
  void ResetTotals();

  std::int64_t layer_self_ns(Layer l) const {
    return layer_self_ns_[static_cast<std::size_t>(l)];
  }
  std::int64_t call_count(Call c) const {
    return call_count_[static_cast<std::size_t>(c)];
  }
  std::int64_t call_total_ns(Call c) const {
    return call_total_ns_[static_cast<std::size_t>(c)];
  }
  std::int64_t call_self_ns(Call c) const {
    return call_self_ns_[static_cast<std::size_t>(c)];
  }
  /// Thread-CPU and wall time spent inside CsdScheduler spans, and the
  /// handler self time nested inside them.
  std::int64_t sched_cpu_ns() const { return sched_cpu_ns_; }
  std::int64_t sched_wall_ns() const { return sched_wall_ns_; }
  std::int64_t sched_handler_ns() const { return sched_handler_ns_; }
  std::int64_t sched_handler_count() const { return sched_handler_count_; }
  /// Durations (ns) of every kAllReduce span, for percentiles.
  const std::vector<std::int64_t>& allreduce_ns() const {
    return allreduce_ns_;
  }
  const std::vector<Record>& records() const { return records_; }

 private:
  struct Frame {
    Call call;
    std::int32_t record;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t cpu_start_ns;
  };

  std::size_t keep_records_;
  std::vector<Record> records_;
  std::vector<Frame> stack_;
  int sched_depth_ = 0;
  std::array<std::int64_t, kLayerCount> layer_self_ns_{};
  std::array<std::int64_t, kCallCount> call_count_{};
  std::array<std::int64_t, kCallCount> call_total_ns_{};
  std::array<std::int64_t, kCallCount> call_self_ns_{};
  std::int64_t sched_cpu_ns_ = 0;
  std::int64_t sched_wall_ns_ = 0;
  std::int64_t sched_handler_ns_ = 0;
  std::int64_t sched_handler_count_ = 0;
  std::vector<std::int64_t> allreduce_ns_;
};

/// The calling thread's recorder (nullptr when untraced).
PeTrace*& CurrentTrace();

template <bool kOn>
class Span;

template <>
class Span<false> {
 public:
  explicit Span(Call) {}
};

template <>
class Span<true> {
 public:
  explicit Span(Call call) : trace_(CurrentTrace()) { trace_->Open(call); }
  ~Span() { trace_->Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  PeTrace* trace_;
};

/// Write every thread's kept spans as Chrome trace-event JSON (load in
/// chrome://tracing or Perfetto).  `tids` names each trace's thread.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const PeTrace*>& traces,
                      const std::vector<std::string>& tids);

}  // namespace perfbench
