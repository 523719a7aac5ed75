#include "spans.h"

#include <time.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

constexpr const char* kLayerNames[kLayerCount] = {
    "bench", "msg", "machine", "stream", "scheduler",
    "handler", "collectives", "ldb", "transport"};

struct CallInfo {
  const char* name;
  Layer layer;
};

constexpr CallInfo kCalls[kCallCount] = {
    {"window", Layer::kBench},
    {"CmiMakeMessage", Layer::kMsg},
    {"CmiSyncSendAndFree", Layer::kMachine},
    {"CmiSyncSendDelayedAndFree", Layer::kMachine},
    {"CmiGetSpecificMsg", Layer::kMachine},
    {"CmiSyncSend", Layer::kStream},
    {"CmiFlush", Layer::kStream},
    {"CsdScheduler", Layer::kScheduler},
    {"handler", Layer::kHandler},
    {"CmiAllReduceF64", Layer::kCollectives},
    {"CldEnqueue", Layer::kLdb},
    {"CmiSyncSendAndFree(wire)", Layer::kTransport},
    {"ack wait(wire)", Layer::kTransport},
};

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

const char* LayerName(Layer layer) {
  return kLayerNames[static_cast<int>(layer)];
}
const char* CallName(Call call) { return kCalls[static_cast<int>(call)].name; }
Layer LayerOf(Call call) { return kCalls[static_cast<int>(call)].layer; }

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

PeTrace::PeTrace(std::size_t keep_records) : keep_records_(keep_records) {
  records_.reserve(keep_records);
  stack_.reserve(16);
}

void PeTrace::Open(Call call) {
  Frame f{call, -1, 0, 0, 0};
  if (records_.size() < keep_records_) {
    f.record = static_cast<std::int32_t>(records_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back(Record{static_cast<std::int32_t>(call), parent, 0, 0});
  }
  f.start_ns = NowNs();
  // The CPU clock is read inside the span, so its cost is charged to the
  // scheduler span rather than to whatever encloses it.
  if (call == Call::kScheduler && sched_depth_++ == 0) {
    f.cpu_start_ns = ThreadCpuNs();
  }
  stack_.push_back(f);
}

void PeTrace::Close() {
  Frame& top = stack_.back();
  std::int64_t cpu_ns = 0;
  if (top.call == Call::kScheduler && sched_depth_ == 1) {
    cpu_ns = ThreadCpuNs() - top.cpu_start_ns;
  }
  const std::int64_t end = NowNs();
  const Frame f = top;
  stack_.pop_back();
  const std::int64_t dur = end - f.start_ns;
  const std::int64_t self = dur - f.child_ns;
  const auto c = static_cast<std::size_t>(f.call);
  layer_self_ns_[static_cast<std::size_t>(LayerOf(f.call))] += self;
  ++call_count_[c];
  call_total_ns_[c] += dur;
  call_self_ns_[c] += self;
  if (f.record >= 0) {
    Record& r = records_[static_cast<std::size_t>(f.record)];
    r.start_ns = f.start_ns;
    r.end_ns = end;
  }
  if (f.call == Call::kScheduler && --sched_depth_ == 0) {
    sched_cpu_ns_ += cpu_ns;
    sched_wall_ns_ += dur;
  }
  if (f.call == Call::kAllReduce) allreduce_ns_.push_back(dur);
  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.child_ns += dur;
    if (f.call == Call::kHandler && parent.call == Call::kScheduler) {
      sched_handler_ns_ += dur;
      ++sched_handler_count_;
    }
  }
}

void PeTrace::ResetTotals() {
  layer_self_ns_.fill(0);
  call_count_.fill(0);
  call_total_ns_.fill(0);
  call_self_ns_.fill(0);
  sched_cpu_ns_ = sched_wall_ns_ = 0;
  sched_handler_ns_ = sched_handler_count_ = 0;
  allreduce_ns_.clear();
}

PeTrace*& CurrentTrace() {
  thread_local PeTrace* trace = nullptr;
  return trace;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const PeTrace*>& traces,
                      const std::vector<std::string>& tids) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = INT64_MAX;
  for (const PeTrace* t : traces) {
    for (const PeTrace::Record& r : t->records()) {
      if (r.end_ns != 0 && r.start_ns < t0) t0 = r.start_ns;
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    std::fprintf(f,
                 "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", i, tids[i].c_str());
    first = false;
    const auto& recs = traces[i]->records();
    for (std::size_t k = 0; k < recs.size(); ++k) {
      const PeTrace::Record& r = recs[k];
      if (r.end_ns == 0) continue;  // still open when the run ended
      const auto call = static_cast<Call>(r.call);
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":0,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d}}",
                   CallName(call), LayerName(LayerOf(call)), i,
                   static_cast<double>(r.start_ns - t0) * 1e-3,
                   static_cast<double>(r.end_ns - r.start_ns) * 1e-3, k,
                   r.parent);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
