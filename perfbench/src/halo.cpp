// halo: 4 PEs in a 1-D ring with aggregation forced on.  Each iteration
// every PE CmiSyncSends 16 x 64 B updates to each neighbour from one
// reused buffer, calls CmiFlush, waits for its own 32 updates, then joins
// a CmiAllReduceF64 (spanning-tree reduce + broadcast).  Time goes to Cst
// append/flush, frame-view dispatch, collectives and wake latency; almost
// nothing is allocated per message.
//
// End-to-end: ops_per_s = iterations per second; op_us_* = PE 0's
// iteration time; gbps = halo payload bits moved per second (all PEs).
#include <array>
#include <cstring>

#include "common.h"

namespace perfbench {

using namespace converse;

namespace {

constexpr int kPes = 4;
constexpr int kUpdates = 16;  // per neighbour per iteration
constexpr std::size_t kPayload = 64;
constexpr std::uint64_t kStampEvery = 4;  // PE 0 iterations per timestamp
// PE 0 adds this to its all-reduce contribution to end the run; every
// contribution stays an integer below 2^32, so the sums remain exact.
constexpr double kStopMark = 1099511627776.0;  // 2^40

struct Update {
  std::uint64_t iter;
  std::uint32_t src;
  std::uint32_t k;
  std::uint64_t value;
  unsigned char pad[kPayload - 24];
};
static_assert(sizeof(Update) == kPayload);

/// A caller-managed message: header plus one update.
struct alignas(16) OutMsg {
  unsigned char bytes[converse::CmiMsgHeaderSizeBytes() + kPayload];
};

/// The generated input: update k of PE src in iteration i carries
/// (i + 1) * mul ^ add with per-(src, k) constants drawn from the seed, and
/// PE p contributes an integer below 2^30 to each all-reduce.  Cheap to
/// regenerate, so senders and receivers both recompute it.
class HaloInput {
 public:
  explicit HaloInput(std::uint64_t seed) {
    SplitMix64 sm(seed ^ 0x4a10ULL);
    for (auto& row : mul_) {
      for (std::uint64_t& m : row) m = sm.Next() | 1;
    }
    for (auto& row : add_) {
      for (std::uint64_t& a : row) a = sm.Next();
    }
  }
  std::uint64_t Value(std::uint64_t iter, int src, int k) const {
    const auto s = static_cast<std::size_t>(src);
    const auto j = static_cast<std::size_t>(k);
    return (iter + 1) * mul_[s][j] ^ add_[s][j];
  }
  double Contribution(std::uint64_t iter, int pe) const {
    return static_cast<double>(Value(iter, pe, kUpdates) >> 34);
  }

 private:
  std::array<std::array<std::uint64_t, kUpdates + 1>, kPes> mul_{}, add_{};
};

struct PassResult {
  double ops_per_s = 0;
  std::vector<double> iter_us;  // PE 0
  std::uint64_t iterations = 0;
};

template <bool kTrace>
PassResult Pass(const Options& opt, double seconds, Outcome& out,
                std::vector<PeTrace>* traces) {
  PassResult res;
  std::array<std::uint64_t, kPes> iterations{}, update_errors{},
      count_errors{}, sum_errors{};
  std::array<CmiStats, kPes> stats{};
  std::int64_t t_start = 0;
  std::vector<std::int64_t> stamps;  // PE 0: every kStampEvery iterations
  CmiMemoryStats mem_before, mem_after;
  const HaloInput input(opt.seed);

  RunConverse(FixedConfig(kPes, opt.seed, true), [&](int pe, int npes) {
    PinThread(pe);
    if constexpr (kTrace) TraceThisThread(*traces, pe);
    const auto me = static_cast<std::size_t>(pe);
    const int left = (pe + npes - 1) % npes;
    const int right = (pe + 1) % npes;
    std::uint64_t iter = 0;
    // got[parity][side]: a neighbour can run at most one iteration ahead
    // (it cannot pass the all-reduce this PE has not joined yet).
    std::uint64_t got[2][2] = {{0, 0}, {0, 0}};
    const int h_update = CmiRegisterHandler([&](void* msg) {
      Span<kTrace> span(Call::kHandler);
      Update u;
      std::memcpy(&u, CmiMsgPayload(msg), sizeof(u));
      const int side = static_cast<int>(u.src) == left ? 0 : 1;
      const bool ok = (static_cast<int>(u.src) == left ||
                       static_cast<int>(u.src) == right) &&
                      (u.iter == iter || u.iter == iter + 1) &&
                      u.value == input.Value(u.iter, static_cast<int>(u.src),
                                             static_cast<int>(u.k));
      if (!ok) ++update_errors[me];
      ++got[u.iter & 1][side];
    });
    // The 2 x 16 outgoing updates of an iteration, as complete messages
    // in one reused buffer (CmiSyncSend copies; nothing is allocated).
    const auto size =
        static_cast<unsigned>(CmiMsgHeaderSizeBytes() + kPayload);
    std::vector<OutMsg> outbox(2 * kUpdates);
    for (OutMsg& m : outbox) {
      CmiInitMsgHeader(&m, size);
      CmiSetHandler(&m, h_update);
    }
    std::vector<double>& samples = res.iter_us;
    if (pe == 0) samples.reserve(1 << 20);
    CmiBarrierBlocking();

    if constexpr (kTrace) CurrentTrace()->ResetTotals();
    if (pe == 0) mem_before = CmiGetMemoryStats();
    const std::int64_t start = NowNs();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    {
      Span<kTrace> window(Call::kWindow);
      for (;; ++iter) {
        const std::int64_t t0 = NowNs();
        for (int k = 0; k < 2 * kUpdates; ++k) {
          Update u{};
          u.iter = iter;
          u.src = static_cast<std::uint32_t>(pe);
          u.k = static_cast<std::uint32_t>(k % kUpdates);
          u.value = input.Value(iter, pe, k % kUpdates);
          std::memcpy(CmiMsgPayload(&outbox[static_cast<std::size_t>(k)]), &u,
                      sizeof(u));
        }
        {
          Span<kTrace> sends(Call::kSyncSend);
          for (int k = 0; k < 2 * kUpdates; ++k) {
            CmiSyncSend(static_cast<unsigned>(k < kUpdates ? left : right),
                        size, &outbox[static_cast<std::size_t>(k)]);
          }
        }
        {
          Span<kTrace> flush(Call::kFlush);
          CmiFlush();
        }
        std::uint64_t* mine = got[iter & 1];
        {
          Span<kTrace> sched(Call::kScheduler);
          while (mine[0] + mine[1] < 2 * kUpdates) CsdScheduler(1);
        }
        if (mine[0] != kUpdates || mine[1] != kUpdates) ++count_errors[me];
        mine[0] = mine[1] = 0;
        double expect = 0;
        for (int p = 0; p < npes; ++p) expect += input.Contribution(iter, p);
        const bool stop_here = pe == 0 && NowNs() >= deadline;
        double sum = 0;
        {
          Span<kTrace> ar(Call::kAllReduce);
          sum = CmiAllReduceF64(
              input.Contribution(iter, pe) + (stop_here ? kStopMark : 0.0),
              CmiReducerSumF64());
        }
        const bool stop = sum >= kStopMark;
        if (sum - (stop ? kStopMark : 0.0) != expect) ++sum_errors[me];
        if (pe == 0) {
          const std::int64_t t1 = NowNs();
          samples.push_back(static_cast<double>(t1 - t0) * 1e-3);
          if ((iter + 1) % kStampEvery == 0) stamps.push_back(t1);
        }
        if (stop) break;
      }
    }
    iterations[me] = iter + 1;
    if (pe == 0) {
      t_start = start;
      mem_after = CmiGetMemoryStats();
    }
    stats[me] = CmiGetStats();
  });

  res.iterations = iterations[0];
  for (int p = 0; p < kPes; ++p) {
    const auto i = static_cast<std::size_t>(p);
    out.attempted += iterations[i];
    out.Check(iterations[i] == iterations[0],
              "halo: PEs disagree on the iteration count");
    out.Check(update_errors[i] == 0,
              "halo: update with a wrong source, iteration tag or value",
              update_errors[i]);
    out.Check(count_errors[i] == 0,
              "halo: an iteration missed its 16 updates per neighbour",
              count_errors[i]);
    out.Check(sum_errors[i] == 0, "halo: all-reduce sum is not exact",
              sum_errors[i]);
  }
  res.ops_per_s = MedianIntervalRate(t_start, stamps, kStampEvery);

  if constexpr (kTrace) {
    std::vector<const PeTrace*> all;
    for (const PeTrace& t : *traces) all.push_back(&t);
    // One kSyncSend span covers an iteration's 32 sends.
    out.metrics["stream.append_ns"] =
        MeanNs(all, Call::kSyncSend) / (2 * kUpdates);
    out.metrics["stream.flush_ns"] = MeanNs(all, Call::kFlush);
    std::uint64_t frames = 0, batched = 0, forwards = 0, idle = 0,
                  delivered = 0;
    for (const CmiStats& s : stats) {
      frames += s.agg_frames_sent;
      batched += s.agg_msgs_batched;
      forwards += s.bcast_forwards;
      idle += s.idle_blocks;
      delivered += s.msgs_delivered;
    }
    out.metrics["stream.msgs_per_frame"] =
        frames > 0 ? static_cast<double>(batched) / static_cast<double>(frames)
                   : 0.0;
    out.metrics["collectives.bcast_forwards_per_iter"] =
        static_cast<double>(forwards) / static_cast<double>(res.iterations);
    std::vector<double> ar;
    for (std::int64_t ns : (*traces)[0].allreduce_ns()) {
      ar.push_back(static_cast<double>(ns) * 1e-3);
    }
    out.metrics["collectives.allreduce_us_p50"] = Median(ar);
    out.metrics["machine.idle_blocks_per_kmsg"] =
        delivered > 0 ? static_cast<double>(idle) * 1000.0 /
                            static_cast<double>(delivered)
                      : 0.0;
    AddPoolMetrics(out, mem_before, mem_after);
    AddSchedulerMetrics(out, (*traces)[0]);
    AddLedger(out, (*traces)[0]);
  }
  return res;
}

}  // namespace

Outcome RunHalo(const Options& opt) {
  Outcome out;
  out.info["pinning"] = "PE i on allowed cpu i";
  if (!opt.trace) {
    std::vector<double> setup;
    SetupProbes(FixedConfig(kPes, opt.seed, true), kSetupProbes, setup);
    std::vector<Round> rounds;
    for (int i = 0; i < kRounds; ++i) {
      const PassResult r =
          Pass<false>(opt, opt.seconds / kRounds, out, nullptr);
      const double bits = kPes * 2 * kUpdates * kPayload * 8.0;
      rounds.push_back({r.ops_per_s, Quantile(r.iter_us, 0.5),
                        Quantile(r.iter_us, 0.9), r.ops_per_s * bits / 1e9});
    }
    SetupProbes(FixedConfig(kPes, opt.seed, true), kSetupProbes, setup);
    out.metrics["setup_s"] = Median(setup);
    ReportRounds(out, rounds, Summary::kMedian);
    return out;
  }
  const PassResult plain = Pass<false>(opt, opt.seconds * 0.4, out, nullptr);
  std::vector<PeTrace> traces(kPes);
  const PassResult traced = Pass<true>(opt, opt.seconds * 0.6, out, &traces);
  out.metrics["trace.overhead_frac"] =
      plain.ops_per_s > 0 ? 1.0 - traced.ops_per_s / plain.ops_per_s : 0.0;
  WritePeTraces(opt.trace_out, traces);
  return out;
}

}  // namespace perfbench
