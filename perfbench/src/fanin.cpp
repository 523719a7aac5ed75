// fanin: PEs 1..3 stream fresh 64 B messages (CmiMakeMessage +
// CmiSyncSendAndFree) to PE 0 under a 128-message credit window, with
// aggregation forced off.  PE 0 acknowledges every 64 messages per
// sender.  Every message pays pool allocation, a cross-PE free, an MPSC
// ring push/pop, park/wake and handler dispatch; nothing goes through Cst,
// collectives, Cld, the sim or the wire.
//
// End-to-end: ops_per_s = messages PE 0 handled per second; op_us_* =
// credit round trip (first message of a 64-message batch sent -> its ack
// back at the sender); gbps = payload bits per second.
#include <array>
#include <cstring>

#include "common.h"

namespace perfbench {

using namespace converse;

namespace {

constexpr int kPes = 4;
constexpr int kSenders = kPes - 1;
constexpr std::size_t kPayload = 64;
constexpr std::uint64_t kCredit = 128;
constexpr std::uint64_t kAckEvery = 64;
constexpr std::uint64_t kStampEvery = 2048;  // PE 0 receipts per timestamp

struct PassResult {
  double ops_per_s = 0;
  std::vector<double> ack_us;  // credit round trips, all senders
};

/// Per-sender payload pattern (bytes 8..63; bytes 0..7 carry the seq).
std::array<std::array<unsigned char, kPayload>, kPes> Patterns(
    std::uint64_t seed) {
  std::array<std::array<unsigned char, kPayload>, kPes> p{};
  for (int s = 0; s < kPes; ++s) {
    SplitMix64 sm(seed ^ (0xfa0000ULL + static_cast<std::uint64_t>(s)));
    for (std::size_t i = 0; i < kPayload; i += 8) {
      const std::uint64_t w = sm.Next();
      std::memcpy(&p[static_cast<std::size_t>(s)][i], &w, 8);
    }
  }
  return p;
}

template <bool kTrace>
PassResult Pass(const Options& opt, double seconds, Outcome& out,
                std::vector<PeTrace>* traces) {
  const auto patterns = Patterns(opt.seed);
  PassResult res;
  // Receiver-side state (PE 0 only) and per-sender results.
  std::array<std::uint64_t, kPes> next_seq{};
  std::array<std::uint64_t, kPes> done_count{};
  std::array<std::uint64_t, kPes> sent{};
  std::array<std::uint64_t, kPes> seq_errors{}, byte_errors{}, ack_errors{};
  std::array<std::vector<double>, kPes> ack_us;
  std::array<CmiStats, kPes> stats{};
  int done = 0;
  std::uint64_t received = 0;
  std::int64_t t_start = 0;
  std::vector<std::int64_t> stamps;
  CmiMemoryStats mem_before, mem_after;

  RunConverse(FixedConfig(kPes, opt.seed, false), [&](int pe, int) {
    PinThread(pe);
    if constexpr (kTrace) TraceThisThread(*traces, pe);
    int h_ack = -1;
    const int h_data = CmiRegisterHandler([&](void* msg) {
      Span<kTrace> span(Call::kHandler);
      const int src = CmiMsgSourcePe(msg);
      const auto* p = static_cast<const unsigned char*>(CmiMsgPayload(msg));
      std::uint64_t seq = 0;
      std::memcpy(&seq, p, 8);
      const auto s = static_cast<std::size_t>(src);
      if (seq != next_seq[s]) ++seq_errors[s];
      if (std::memcmp(p + 8, patterns[s].data() + 8, kPayload - 8) != 0) {
        ++byte_errors[s];
      }
      if (++received % kStampEvery == 0) stamps.push_back(NowNs());
      if (++next_seq[s] % kAckEvery == 0) {
        const std::uint64_t got = next_seq[s];
        void* ack = nullptr;
        {
          Span<kTrace> m(Call::kMakeMessage);
          ack = CmiMakeMessage(h_ack, &got, sizeof(got));
        }
        Span<kTrace> send(Call::kSendAndFree);
        CmiSyncSendAndFree(static_cast<unsigned>(src),
                           static_cast<unsigned>(CmiMsgTotalSize(ack)), ack);
      }
    });
    h_ack = CmiRegisterHandler(  // acks are taken by CmiGetSpecificMsg
        [&, pe](void*) { ++ack_errors[static_cast<std::size_t>(pe)]; });
    const int h_done = CmiRegisterHandler([&](void* msg) {
      Span<kTrace> span(Call::kHandler);
      std::uint64_t n = 0;
      std::memcpy(&n, CmiMsgPayload(msg), sizeof(n));
      done_count[static_cast<std::size_t>(CmiMsgSourcePe(msg))] = n;
      if (++done == kSenders) CsdExitScheduler();
    });
    CmiBarrierBlocking();

    if (pe == 0) {
      if constexpr (kTrace) CurrentTrace()->ResetTotals();
      mem_before = CmiGetMemoryStats();
      stamps.reserve(1 << 16);
      t_start = NowNs();
      {
        Span<kTrace> window(Call::kWindow);
        Span<kTrace> sched(Call::kScheduler);
        CsdScheduler(-1);
      }
      mem_after = CmiGetMemoryStats();
      stats[0] = CmiGetStats();
      return;
    }

    // Sender.
    const auto me = static_cast<std::size_t>(pe);
    std::array<unsigned char, kPayload> buf = patterns[me];
    std::array<std::int64_t, 8> batch_start{};
    std::uint64_t n = 0, acked = 0;
    std::vector<double>& lat = ack_us[me];
    lat.reserve(1 << 16);
    const auto take_ack = [&] {
      void* a = nullptr;
      {
        Span<kTrace> wait(Call::kGetSpecific);
        a = CmiGetSpecificMsg(h_ack);
      }
      std::uint64_t got = 0;
      std::memcpy(&got, CmiMsgPayload(a), sizeof(got));
      const std::int64_t now = NowNs();
      if (got != acked + kAckEvery) ++ack_errors[me];
      acked = got;
      lat.push_back(static_cast<double>(
                        now - batch_start[((got / kAckEvery) - 1) & 7]) *
                    1e-3);
    };
    if constexpr (kTrace) CurrentTrace()->ResetTotals();
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(seconds * 1e9);
    for (;;) {
      if (n % kAckEvery == 0) {
        const std::int64_t now = NowNs();
        if (now >= deadline) break;
        batch_start[(n / kAckEvery) & 7] = now;
      }
      while (n - acked >= kCredit) take_ack();
      std::memcpy(buf.data(), &n, sizeof(n));
      void* m = nullptr;
      {
        Span<kTrace> mk(Call::kMakeMessage);
        m = CmiMakeMessage(h_data, buf.data(), kPayload);
      }
      {
        Span<kTrace> send(Call::kSendAndFree);
        CmiSyncSendAndFree(0, static_cast<unsigned>(CmiMsgTotalSize(m)), m);
      }
      ++n;
    }
    sent[me] = n;
    void* d = CmiMakeMessage(h_done, &n, sizeof(n));
    CmiSyncSendAndFree(0, static_cast<unsigned>(CmiMsgTotalSize(d)), d);
    while (acked < n / kAckEvery * kAckEvery) take_ack();
    stats[me] = CmiGetStats();
  });

  std::uint64_t total = 0;
  for (int s = 1; s < kPes; ++s) {
    const auto i = static_cast<std::size_t>(s);
    total += next_seq[i];
    out.attempted += sent[i];
    out.Check(next_seq[i] == sent[i] && done_count[i] == sent[i],
              "fanin: sender " + std::to_string(s) + " sent " +
                  std::to_string(sent[i]) + ", PE 0 received " +
                  std::to_string(next_seq[i]),
              sent[i] > next_seq[i] ? sent[i] - next_seq[i] : 1);
    out.Check(seq_errors[i] == 0, "fanin: per-sender FIFO order broken",
              seq_errors[i]);
    out.Check(byte_errors[i] == 0, "fanin: payload bytes corrupted",
              byte_errors[i]);
    out.Check(ack_errors[i] == 0, "fanin: credit acks out of order",
              ack_errors[i]);
    res.ack_us.insert(res.ack_us.end(), ack_us[i].begin(), ack_us[i].end());
  }
  res.ops_per_s = MedianIntervalRate(t_start, stamps, kStampEvery);

  if constexpr (kTrace) {
    std::vector<const PeTrace*> senders;
    for (std::size_t s = 1; s < kPes; ++s) senders.push_back(&(*traces)[s]);
    out.metrics["msg.alloc_ns"] = MeanNs(senders, Call::kMakeMessage);
    out.metrics["machine.send_ns"] = MeanNs(senders, Call::kSendAndFree);
    out.metrics["machine.ack_wait_us"] =
        MeanNs(senders, Call::kGetSpecific) * 1e-3;
    AddPoolMetrics(out, mem_before, mem_after);
    AddSchedulerMetrics(out, (*traces)[0]);
    AddLedger(out, (*traces)[0]);
    std::uint64_t idle = 0;
    for (const CmiStats& s : stats) idle += s.idle_blocks;
    out.metrics["machine.idle_blocks_per_kmsg"] =
        total > 0 ? static_cast<double>(idle) * 1000.0 /
                        static_cast<double>(total)
                  : 0.0;
  }
  return res;
}

}  // namespace

Outcome RunFanin(const Options& opt) {
  Outcome out;
  out.info["pinning"] = "PE i on allowed cpu i";
  if (!opt.trace) {
    std::vector<double> setup;
    SetupProbes(FixedConfig(kPes, opt.seed, false), kSetupProbes, setup);
    std::vector<Round> rounds;
    for (int i = 0; i < kRounds; ++i) {
      const PassResult r =
          Pass<false>(opt, opt.seconds / kRounds, out, nullptr);
      rounds.push_back({r.ops_per_s, Quantile(r.ack_us, 0.5),
                        Quantile(r.ack_us, 0.9),
                        r.ops_per_s * kPayload * 8.0 / 1e9});
    }
    SetupProbes(FixedConfig(kPes, opt.seed, false), kSetupProbes, setup);
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
