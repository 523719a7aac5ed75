// wire: 2 nodes on CmiTransport::kSocket.  The measuring process forks the echo
// node; each process hosts 1 PE plus its comm thread and is pinned to its
// own pair of cores.  Phase A streams 64 B messages (aggregation on,
// 64 KiB frames) in bursts acknowledged by the echo node; phase B streams
// 64 KiB messages with a windowed ack.  Phase C measures a raw socketpair
// between two processes pinned the same way (the loopback floor).  It is
// the only workload that crosses encode, syscall and decode.
//
// End-to-end: ops_per_s = phase A messages per second; op_us_* = phase A
// burst round trip (start of a burst -> its ack); gbps = phase B bandwidth.
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstring>

#include "common.h"

namespace perfbench {

using namespace converse;

namespace {

constexpr int kBurst = 4096;            // 64 B messages per ack
constexpr std::size_t kSmall = 64;      // phase A payload
constexpr int kWindow = 64;             // 64 KiB messages per ack
constexpr std::size_t kBig = 65536;     // phase B message size on the wire
constexpr std::size_t kStamp = 16;      // checked bytes at each end

MachineConfig WireConfig(const Options& opt, int node, const char* rdv) {
  MachineConfig cfg = FixedConfig(2, opt.seed, true);
  cfg.nnodes = 2;
  cfg.transport = CmiTransport::kSocket;
  cfg.mynode = node;
  cfg.rendezvous_dir = rdv;
  cfg.wire_timeout_ms = 30000;
  // Frames are the wire unit: size them so a burst of 64 B messages
  // crosses the socket in a handful of sendmsg calls.  A frame flushes
  // only once its entries reach agg_frame_bytes, so 65536 made every frame
  // slightly larger than the top 64 KiB pool class and sent it through
  // the oversize (malloc) path; that ran at 7.8-9.1 M msgs/s with a slow
  // mode in some processes, against 11.2-12.1 M msgs/s here.
  cfg.agg_frame_bytes = 65536 - 512;
  cfg.agg_frame_msgs = 8192;
  return cfg;
}

/// The 64 B payload of message `seq`: word 0 varies with `seq`, words
/// 1..7 are constants drawn from the seed.  (Generating all eight words
/// per message was 6% of the sending node's timed window in traced runs.)
struct SmallGen {
  std::array<std::uint64_t, kSmall / 8> words{};
  std::uint64_t mul = 0;
  std::uint64_t rest_sum = 0;  // wrapping sum of words 1..7
  explicit SmallGen(std::uint64_t seed) {
    SplitMix64 sm(seed ^ 0x5a11ULL);
    mul = sm.Next() | 1;
    for (std::uint64_t& w : words) w = sm.Next();
    for (std::size_t j = 1; j < words.size(); ++j) rest_sum += words[j];
  }
  std::uint64_t First(std::uint64_t seq) const {
    return (seq + 1) * mul ^ words[0];
  }
};

std::uint64_t BigStamp(std::uint64_t seed, std::uint64_t seq) {
  return SplitMix64(seed ^ (seq * 0x9e3779b97f4a7c15ULL)).Next();
}

/// A caller-managed 64 B message (header + payload).
struct alignas(16) SmallMsg {
  unsigned char bytes[CmiMsgHeaderSizeBytes() + kSmall];
};

struct Report {
  std::uint64_t small_count = 0, small_sum = 0, big_count = 0, big_sum = 0,
                stamp_errors = 0, dropped = 0;
};

struct PassResult {
  double ops_per_s = 0, gbps = 0, floor_gbps = 0;
  std::vector<double> burst_us;
};

/// What one node's machine reports back to the measuring process.
struct NodeRun {
  Outcome* out;
  PassResult* res;
  PeTrace* trace;             // traced runs only
  std::int64_t call_ns = 0;     // when this node called RunConverse
  std::int64_t entered_ns = 0;  // when this node's PE entered its entry
};

/// One socket-transport machine in this process.  Node 1 echoes; node 0
/// drives phases A and B and checks the echo's report.
template <bool kTrace>
void Machine(const Options& opt, int node, const char* rdv, double seconds,
             NodeRun& run) {
  const SmallGen gen(opt.seed);
  const std::uint64_t seed = opt.seed;
  Outcome* out = run.out;
  PassResult* res = run.res;
  PeTrace* trace = run.trace;
  run.call_ns = NowNs();
  RunConverse(WireConfig(opt, node, rdv), [&](int pe, int) {
    run.entered_ns = NowNs();
    if constexpr (kTrace) {
      if (pe == 0) CurrentTrace() = trace;
    }
    Report rep;
    const auto ack_to_0 = [](int h, std::uint64_t v) {
      void* a = CmiMakeMessage(h, &v, sizeof(v));
      CmiSyncSendAndFree(0, static_cast<unsigned>(CmiMsgTotalSize(a)), a);
      CmiFlush();  // the ack gates the sender: never leave it batched
    };
    int h_ack = -1, h_report = -1;
    const int h_small = CmiRegisterHandler([&](void* msg) {
      std::uint64_t w[kSmall / 8];
      std::memcpy(w, CmiMsgPayload(msg), sizeof(w));
      for (std::uint64_t v : w) rep.small_sum += v;
      if (++rep.small_count % kBurst == 0) ack_to_0(h_ack, rep.small_count);
    });
    const int h_big = CmiRegisterHandler([&](void* msg) {
      const auto* p = static_cast<const unsigned char*>(CmiMsgPayload(msg));
      const std::size_t n = CmiMsgPayloadSize(msg);
      std::uint64_t head[2], tail[2];
      std::memcpy(head, p, kStamp);
      std::memcpy(tail, p + n - kStamp, kStamp);
      const std::uint64_t seq = head[0];
      if (n != kBig - CmiMsgHeaderSizeBytes() || seq != rep.big_count ||
          head[1] != BigStamp(seed, seq) || tail[0] != seq ||
          tail[1] != head[1]) {
        ++rep.stamp_errors;
      }
      rep.big_sum += head[1];
      if (++rep.big_count % kWindow == 0) ack_to_0(h_ack, rep.big_count);
    });
    h_ack = CmiRegisterHandler([](void*) {});
    const int h_report_req = CmiRegisterHandler([&](void*) {
      rep.dropped = CmiGetStats().wire_dropped;
      void* r = CmiMakeMessage(h_report, &rep, sizeof(rep));
      CmiSyncSendAndFree(0, static_cast<unsigned>(CmiMsgTotalSize(r)), r);
      CmiFlush();
    });
    h_report = CmiRegisterHandler([](void*) {});

    if (pe != 0) {
      CsdScheduler(-1);  // echo until the sending node broadcasts exit
      return;
    }
    if (seconds <= 0) {  // set-up probe: one round trip, then exit
      CmiSyncSendAndFree(1, CmiMsgHeaderSizeBytes(),
                         CmiMakeMessage(h_report_req, nullptr, 0));
      CmiFlush();
      CmiGetSpecificMsg(h_report);
      ConverseBroadcastExit();
      return;
    }
    const auto wait_ack = [&](std::uint64_t want) {
      void* a = nullptr;
      {
        Span<kTrace> w(Call::kWireAckWait);
        a = CmiGetSpecificMsg(h_ack);
      }
      std::uint64_t got = 0;
      std::memcpy(&got, CmiMsgPayload(a), sizeof(got));
      out->Check(got == want, "wire: acknowledgement out of order");
    };

    if constexpr (kTrace) trace->ResetTotals();
    const CmiStats s0 = CmiGetStats();
    const CmiMemoryStats mem0 = CmiGetMemoryStats();
    std::uint64_t small_sent = 0, small_sum = 0, big_sent = 0, big_sum = 0;
    std::vector<std::int64_t> a_stamps, b_stamps;  // per burst / window
    std::int64_t ack_a_count = 0, ack_a_ns = 0;
    {
      Span<kTrace> window(Call::kWindow);
      // ---- phase A: 64 B stream ----
      // A burst is built in place (bench time), then sent in one span.
      const auto msz = static_cast<unsigned>(CmiMsgHeaderSizeBytes() + kSmall);
      std::vector<SmallMsg> burst(kBurst);
      for (SmallMsg& m : burst) {
        CmiInitMsgHeader(&m, msz);
        CmiSetHandler(&m, h_small);
        std::memcpy(CmiMsgPayload(&m), gen.words.data(), kSmall);
      }
      const std::int64_t a0 = NowNs();
      const std::int64_t a_end =
          a0 + static_cast<std::int64_t>(seconds * 0.5e9);
      while (NowNs() < a_end) {
        const std::int64_t t0 = NowNs();
        for (SmallMsg& m : burst) {
          const std::uint64_t first = gen.First(small_sent++);
          std::memcpy(CmiMsgPayload(&m), &first, sizeof(first));
          small_sum += first + gen.rest_sum;
        }
        {
          Span<kTrace> s(Call::kSyncSend);
          for (SmallMsg& m : burst) CmiSyncSend(1, msz, &m);
        }
        {
          Span<kTrace> f(Call::kFlush);
          CmiFlush();
        }
        wait_ack(small_sent);
        const std::int64_t t1 = NowNs();
        res->burst_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        a_stamps.push_back(t1);
      }
      res->ops_per_s = MedianIntervalRate(a0, a_stamps, kBurst);
      if constexpr (kTrace) {
        ack_a_count = trace->call_count(Call::kWireAckWait);
        ack_a_ns = trace->call_total_ns(Call::kWireAckWait);
      }

      // ---- phase B: 64 KiB stream ----
      const std::size_t body = kBig - CmiMsgHeaderSizeBytes();
      const std::int64_t b0 = NowNs();
      const std::int64_t b_end =
          b0 + static_cast<std::int64_t>(seconds * 0.5e9);
      while (NowNs() < b_end) {
        for (int i = 0; i < kWindow; ++i, ++big_sent) {
          void* big = nullptr;
          {
            Span<kTrace> mk(Call::kMakeMessage);
            big = CmiMakeMessage(h_big, nullptr, body);
          }
          const std::uint64_t stamp[2] = {big_sent, BigStamp(seed, big_sent)};
          auto* p = static_cast<unsigned char*>(CmiMsgPayload(big));
          std::memcpy(p, stamp, kStamp);
          std::memcpy(p + body - kStamp, stamp, kStamp);
          big_sum += stamp[1];
          Span<kTrace> s(Call::kWireSend);
          CmiSyncSendAndFree(1, static_cast<unsigned>(kBig), big);
        }
        wait_ack(big_sent);
        b_stamps.push_back(NowNs());
      }
      res->gbps =
          MedianIntervalRate(b0, b_stamps, kWindow * kBig * 8.0) / 1e9;
    }
    const CmiStats s1 = CmiGetStats();

    // ---- the echo's report ----
    CmiSyncSendAndFree(1, CmiMsgHeaderSizeBytes(),
                       CmiMakeMessage(h_report_req, nullptr, 0));
    CmiFlush();
    Report echo;
    std::memcpy(&echo, CmiMsgPayload(CmiGetSpecificMsg(h_report)),
                sizeof(echo));
    out->attempted += small_sent + big_sent;
    out->Check(echo.small_count == small_sent,
               "wire: echo received " + std::to_string(echo.small_count) +
                   " of " + std::to_string(small_sent) + " 64 B messages",
               small_sent > echo.small_count ? small_sent - echo.small_count
                                             : 1);
    out->Check(echo.small_sum == small_sum, "wire: 64 B payload checksum");
    out->Check(echo.big_count == big_sent,
               "wire: echo received " + std::to_string(echo.big_count) +
                   " of " + std::to_string(big_sent) + " 64 KiB messages",
               big_sent > echo.big_count ? big_sent - echo.big_count : 1);
    out->Check(echo.big_sum == big_sum && echo.stamp_errors == 0,
               "wire: 64 KiB payload stamps", echo.stamp_errors + 1);
    out->Check(echo.dropped == 0 && s1.wire_dropped == 0,
               "wire: wire_dropped != 0");
    if constexpr (kTrace) {
      const double syscalls =
          static_cast<double>(s1.wire_syscalls - s0.wire_syscalls);
      const double bytes = static_cast<double>(
          s1.wire_bytes_sent - s0.wire_bytes_sent + s1.wire_bytes_received -
          s0.wire_bytes_received);
      out->metrics["transport.bytes_per_syscall"] =
          syscalls > 0 ? bytes / syscalls : 0.0;
      const double frames =
          static_cast<double>(s1.agg_frames_sent - s0.agg_frames_sent);
      out->metrics["stream.msgs_per_frame"] =
          frames > 0 ? static_cast<double>(s1.agg_msgs_batched -
                                           s0.agg_msgs_batched) /
                           frames
                     : 0.0;
      const std::int64_t n =
          trace->call_count(Call::kWireAckWait) - ack_a_count;
      out->metrics["transport.ack_wait_us"] =
          n > 0 ? static_cast<double>(trace->call_total_ns(Call::kWireAckWait) -
                                      ack_a_ns) /
                      static_cast<double>(n) * 1e-3
                : 0.0;
      AddPoolMetrics(*out, mem0, CmiGetMemoryStats());
    }
    ConverseBroadcastExit();
  });
}

/// Socket paths the two nodes bind; removed between machines.
void CleanRendezvous(const std::string& rdv) {
  for (int node = 0; node < 2; ++node) {
    unlink((rdv + "/node" + std::to_string(node) + ".sock").c_str());
  }
}

/// Run one two-process machine: fork the echo node (pinned to the second
/// core pair), drive node 0 here (pinned to the first pair).  `seconds`
/// == 0 is a set-up probe.  Returns node 0's set-up time in seconds: from
/// its RunConverse call until its PE entered the entry function.
template <bool kTrace>
double TwoNodes(const Options& opt, const std::string& rdv, double seconds,
                Outcome& out, PassResult& res, PeTrace* trace) {
  CleanRendezvous(rdv);
  const pid_t child = fork();
  if (child < 0) {
    out.Check(false, "wire: fork failed");
    return 0.0;
  }
  if (child == 0) {
    PinProcess({2, 3});
    Outcome echo_out;
    PassResult echo_res;
    NodeRun echo{&echo_out, &echo_res, nullptr};
    Machine<false>(opt, 1, rdv.c_str(), seconds, echo);
    _exit(0);
  }
  NodeRun run{&out, &res, trace};
  Machine<kTrace>(opt, 0, rdv.c_str(), seconds, run);
  int status = 0;
  waitpid(child, &status, 0);
  out.Check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
            "wire: echo process failed");
  return static_cast<double>(run.entered_ns - run.call_ns) * 1e-9;
}

/// The loopback floor: a raw socketpair between this process and a forked
/// sink pinned like the two nodes, written in 64 KiB chunks for `seconds`.
double FloorGbps(double seconds, Outcome& out) {
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    out.Check(false, "wire: socketpair failed");
    return 0.0;
  }
  for (int fd : sv) {
    const int bytes = 1 << 20;  // the transport's socket buffer size
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  }
  const pid_t child = fork();
  if (child < 0) {
    close(sv[0]);
    close(sv[1]);
    out.Check(false, "wire: fork failed");
    return 0.0;
  }
  if (child == 0) {
    PinProcess({2, 3});
    close(sv[0]);
    std::vector<char> buf(kBig);
    std::uint64_t got = 0;
    for (;;) {
      const ssize_t n = read(sv[1], buf.data(), buf.size());
      if (n <= 0) break;
      got += static_cast<std::uint64_t>(n);
    }
    _exit(write(sv[1], &got, sizeof(got)) == sizeof(got) ? 0 : 1);
  }
  close(sv[1]);
  std::vector<char> buf(kBig, 'p');
  std::uint64_t sent = 0;
  const std::int64_t t0 = NowNs();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const ssize_t n = write(sv[0], buf.data(), buf.size());
    if (n <= 0) break;
    sent += static_cast<std::uint64_t>(n);
  }
  shutdown(sv[0], SHUT_WR);
  std::uint64_t got = 0;
  const bool ok = read(sv[0], &got, sizeof(got)) == sizeof(got);
  const double dt = static_cast<double>(NowNs() - t0) * 1e-9;
  close(sv[0]);
  int status = 0;
  waitpid(child, &status, 0);
  out.Check(ok && got == sent, "wire: socketpair floor lost bytes");
  return static_cast<double>(sent) * 8.0 / dt / 1e9;
}

}  // namespace

Outcome RunWire(const Options& opt) {
  Outcome out;
  out.info["pinning"] = "sending node on allowed cpus " + PinProcess({0, 1}) +
                        ", echo node and floor sink on the next pair";
  const std::string rdv = opt.rundir + "/rdv-" + std::to_string(getpid());
  if (mkdir(rdv.c_str(), 0700) != 0) {
    out.Check(false, "wire: cannot create rendezvous dir " + rdv);
    return out;
  }
  PassResult res;
  if (!opt.trace) {
    // Set-up probes: until the sending node's PE entered its entry.
    std::vector<double> setup;
    const auto probe = [&] {
      for (int i = 0; i < kSetupProbes; ++i) {
        PassResult unused;
        setup.push_back(TwoNodes<false>(opt, rdv, 0, out, unused, nullptr));
      }
    };
    probe();
    std::vector<Round> rounds;
    for (int i = 0; i < kRounds; ++i) {
      PassResult r;
      TwoNodes<false>(opt, rdv, opt.seconds * 0.8 / kRounds, out, r, nullptr);
      rounds.push_back({r.ops_per_s, Quantile(r.burst_us, 0.5),
                        Quantile(r.burst_us, 0.9), r.gbps});
    }
    probe();
    out.metrics["setup_s"] = Median(setup);
    ReportRounds(out, rounds, Summary::kSecondBest);
    res.floor_gbps = FloorGbps(opt.seconds * 0.2, out);
  } else {
    PassResult plain;
    TwoNodes<false>(opt, rdv, opt.seconds * 0.3, out, plain, nullptr);
    PeTrace trace;
    TwoNodes<true>(opt, rdv, opt.seconds * 0.5, out, res, &trace);
    res.floor_gbps = FloorGbps(opt.seconds * 0.2, out);
    out.metrics["trace.overhead_frac"] =
        1.0 - res.ops_per_s / plain.ops_per_s;
    const std::vector<const PeTrace*> ts{&trace};
    out.metrics["transport.send_ns"] = MeanNs(ts, Call::kWireSend);
    out.metrics["msg.alloc_ns"] = MeanNs(ts, Call::kMakeMessage);
    // One kSyncSend span covers a whole burst.
    out.metrics["stream.append_ns"] = MeanNs(ts, Call::kSyncSend) / kBurst;
    out.metrics["stream.flush_ns"] = MeanNs(ts, Call::kFlush);
    out.metrics["transport.floor_gbps"] = res.floor_gbps;
    out.metrics["transport.floor_frac"] = res.gbps / res.floor_gbps;
    AddLedger(out, trace);
    if (!opt.trace_out.empty()) {
      WriteChromeTrace(opt.trace_out, ts, {"sending node PE 0"});
    }
  }
  CleanRendezvous(rdv);
  rmdir(rdv.c_str());
  out.info["floor_gbps"] = std::to_string(res.floor_gbps);
  return out;
}

}  // namespace perfbench
