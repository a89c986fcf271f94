//===- net/Loadgen.cpp - Multi-connection open-loop load generator --------===//

#include "net/Loadgen.h"

#include "net/Poller.h"
#include "net/Session.h"
#include "net/Socket.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace eventnet;
using namespace eventnet::net;
using sim::WireFrame;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Loadgen : public Session::FrameHandler {
public:
  Loadgen(const LoadgenConfig &Cfg, const engine::Workload *W,
          const std::atomic<bool> *Stop)
      : C(Cfg), Stop(Stop), Replay(W != nullptr) {
    if (C.Connections == 0)
      C.Connections = 1;
    if (Replay)
      C.Phases = static_cast<unsigned>(W->Phases.size());
    if (C.Phases == 0)
      C.Phases = 1;
    if (C.Burst == 0)
      C.Burst = 1;
    Clients.resize(C.Connections);
    if (Replay)
      deal(*W);
  }

  LoadgenStats run();

private:
  struct Client {
    Fd Sock;
    std::unique_ptr<Session> S;
    HostId From = 0;
    HostId To = 0;
    uint64_t Sent = 0;        ///< injects sent (the next frame's index)
    uint64_t PhaseTarget = 0; ///< cumulative inject target this phase
    uint64_t MaxReqSeq = 0;   ///< highest echo-request seq sent
    /// Replay only: the frames dealt to this connection, in order, and
    /// the cumulative frame count at the end of each phase.
    std::vector<WireFrame> Frames;
    std::vector<uint64_t> PhaseEnd;
    unsigned ConnectAttempts = 0; ///< failed attempts so far
    int64_t NextConnectNs = 0;    ///< earliest time for the next attempt
    bool Connected = false;
    bool Handshaken = false;
    bool BarrierSent = false;
    bool BarrierAcked = false;
    int64_t BarrierSentNs = 0; ///< last fence post (UDP retransmission)
    bool ByeSent = false;
    bool Dead = false;
    bool WriteArmed = false;
    /// (seq, send-time) of RTT-sampled frames, oldest first.
    std::vector<std::pair<uint64_t, int64_t>> RttPending;
  };

  bool onFrame(Session &S, const WireFrame &F) override;

  void deal(const engine::Workload &W);
  void startConnect(size_t Idx);
  bool scheduleRetry(size_t Idx);
  void retryPending();
  void drive();
  void advancePhase();
  void flushClient(size_t Idx);
  void teardown(size_t Idx);
  void handleEvent(const Ready &Ev);
  uint64_t phaseTarget(const Client &Cl, unsigned Ph) const {
    return Replay ? Cl.PhaseEnd[Ph] : C.FramesPerConn * (Ph + 1) / C.Phases;
  }
  /// The connection's \p K-th Inject frame (0-based).
  WireFrame frame(const Client &Cl, uint64_t K) const {
    if (Replay)
      return Cl.Frames[K];
    WireFrame F;
    F.T = WireFrame::Inject;
    F.A = Cl.From;
    F.B = Cl.To;
    F.Kind = static_cast<uint32_t>(sim::KindRequest);
    F.Seq = K + 1;
    return F;
  }

  LoadgenConfig C;
  const std::atomic<bool> *Stop;
  bool Replay;
  LoadgenStats St;
  Poller Poll;
  obs::LogHistogram Rtt;
  std::vector<Client> Clients;
  unsigned Phase = 0;
  bool AllPhasesDone = false;
  bool DidWork = false;
  int64_t ConnectDeadlineNs = 0;
};

/// Deals injection I of each phase to connection I % Connections.
void Loadgen::deal(const engine::Workload &W) {
  for (Client &Cl : Clients)
    Cl.PhaseEnd.assign(C.Phases, 0);
  for (size_t P = 0; P != W.Phases.size(); ++P) {
    const auto &Inj = W.Phases[P].Injections;
    for (size_t I = 0; I != Inj.size(); ++I) {
      const netkat::Packet &H = Inj[I].Header;
      WireFrame F;
      F.T = WireFrame::Inject;
      F.A = static_cast<uint32_t>(H.getOr(sim::ipSrcField(), Inj[I].From));
      F.B = static_cast<uint32_t>(H.getOr(sim::ipDstField(), 0));
      F.Kind = static_cast<uint32_t>(H.getOr(sim::kindField(), 0));
      F.Seq = static_cast<uint64_t>(H.getOr(sim::seqField(), 0));
      Clients[I % Clients.size()].Frames.push_back(F);
    }
    for (Client &Cl : Clients)
      Cl.PhaseEnd[P] = Cl.Frames.size();
  }
}

void Loadgen::startConnect(size_t Idx) {
  Client &Cl = Clients[Idx];
  std::string Err;
  int Fd = C.Udp ? connectUdp(C.Host, C.Port, Err)
                 : connectTcp(C.Host, C.Port, Err);
  if (Fd < 0) {
    if (!scheduleRetry(Idx)) {
      ++St.ConnectFailed;
      Cl.Dead = true;
    }
    return;
  }
  Cl.Sock.reset(Fd);
  SessionConfig SC;
  SC.Role = SessionRole::Client;
  SC.Overload = engine::OverloadPolicy::Block;
  Cl.S = std::make_unique<Session>(Idx, SC);
  Cl.PhaseTarget = phaseTarget(Cl, 0);
  // Write interest reports connect completion (TCP); UDP is ready now.
  Poll.add(Fd, Idx, /*Read=*/true, /*Write=*/true);
  Cl.WriteArmed = true;
}

/// One connect attempt failed (immediately, or asynchronously via
/// SO_ERROR). Backs the client off for another try — 25 ms doubling to
/// an 800 ms cap — unless the connect budget is spent; returns false
/// when the caller should give up (ConnectFailed) instead.
bool Loadgen::scheduleRetry(size_t Idx) {
  Client &Cl = Clients[Idx];
  int64_t Now = nowNs();
  if (Now >= ConnectDeadlineNs)
    return false;
  if (Cl.Sock.valid()) {
    Poll.del(Cl.Sock.get());
    Cl.Sock.reset();
  }
  Cl.S.reset();
  Cl.Connected = false;
  Cl.WriteArmed = false;
  int64_t BackoffNs = 25ll * 1000000 << std::min(Cl.ConnectAttempts, 5u);
  Cl.NextConnectNs = Now + BackoffNs;
  ++Cl.ConnectAttempts;
  ++St.ConnectRetries;
  return true;
}

/// Re-attempts every backed-off client whose wait has elapsed.
void Loadgen::retryPending() {
  int64_t Now = nowNs();
  for (size_t I = 0; I != Clients.size(); ++I) {
    Client &Cl = Clients[I];
    if (!Cl.Dead && !Cl.Sock.valid() && Now >= Cl.NextConnectNs)
      startConnect(I);
  }
}

bool Loadgen::onFrame(Session &S, const WireFrame &F) {
  Client &Cl = Clients[S.conn()];
  switch (F.T) {
  case WireFrame::HelloAck:
    Cl.From = static_cast<HostId>(F.A);
    Cl.To = static_cast<HostId>(F.B);
    S.open();
    Cl.Handshaken = true;
    return true;
  case WireFrame::Deliver: {
    ++St.Delivers;
    if (F.Kind != static_cast<uint32_t>(sim::KindReply))
      return true; // the request's own delivery at the far host
    ++St.Replies;
    if (F.Seq == 0 || F.Seq > Cl.MaxReqSeq) {
      ++St.SeqMismatches; // an echo we never sent
      return true;
    }
    // Replies come back in order per connection (TCP; approximately on
    // UDP), so matched and overtaken samples both leave from the front.
    // A replay's request seqs rise per connection as the workload's do.
    auto &P = Cl.RttPending;
    size_t Drop = 0;
    for (; Drop != P.size() && P[Drop].first <= F.Seq; ++Drop)
      if (P[Drop].first == F.Seq)
        Rtt.record(static_cast<uint64_t>(
            std::max<int64_t>(0, nowNs() - P[Drop].second)));
    P.erase(P.begin(), P.begin() + static_cast<ptrdiff_t>(Drop));
    return true;
  }
  case WireFrame::BarrierAck:
    if (F.Seq > Cl.Sent)
      return false; // a fence we never posted
    if (Cl.BarrierAcked || F.Seq != Cl.Sent)
      return true; // duplicate or stale ack (UDP fence retransmission)
    Cl.BarrierAcked = true;
    ++St.BarrierAcks;
    return true;
  default:
    return false; // anything else is server-bound traffic
  }
}

void Loadgen::drive() {
  for (size_t I = 0; I != Clients.size(); ++I) {
    Client &Cl = Clients[I];
    if (Cl.Dead || !Cl.Handshaken || Cl.ByeSent ||
        Cl.S->state() == Session::State::Closed)
      continue;
    // Open loop with bounded buffering: keep at most two bursts queued
    // locally; the socket (and the server's overload policy) absorb the
    // rest of the pressure.
    if (Cl.Sent < Cl.PhaseTarget) {
      if (Cl.S->egressDepth() < 2 * C.Burst) {
        uint64_t Quota = std::min<uint64_t>(C.Burst, Cl.PhaseTarget - Cl.Sent);
        for (uint64_t K = 0; K != Quota; ++K) {
          WireFrame F = frame(Cl, Cl.Sent++);
          Cl.S->enqueue(F);
          ++St.InjectsSent;
          if (F.Kind != static_cast<uint32_t>(sim::KindRequest))
            continue; // data and probes are never echoed
          Cl.MaxReqSeq = std::max(Cl.MaxReqSeq, F.Seq);
          if (C.RttSampleEvery && Cl.Sent % C.RttSampleEvery == 0 &&
              Cl.RttPending.size() < 4096)
            Cl.RttPending.push_back({F.Seq, nowNs()});
        }
        DidWork = true;
      }
    } else if (!Cl.BarrierSent) {
      WireFrame F;
      F.T = WireFrame::Barrier;
      F.Seq = Cl.Sent;
      Cl.S->enqueue(F);
      Cl.BarrierSent = true;
      Cl.BarrierSentNs = nowNs();
      DidWork = true;
    } else if (C.Udp && !Cl.BarrierAcked &&
               nowNs() - Cl.BarrierSentNs > 100 * 1000000) {
      // UDP: the fence (or its ack) can drown in the delivery flood the
      // fenced traffic provoked. The Barrier is idempotent server-side
      // and stale acks are ignored above, so just post it again.
      WireFrame F;
      F.T = WireFrame::Barrier;
      F.Seq = Cl.Sent;
      Cl.S->enqueue(F);
      Cl.BarrierSentNs = nowNs();
      DidWork = true;
    }
    if (Cl.S->wantsWrite())
      flushClient(I);
  }
  advancePhase();
}

void Loadgen::advancePhase() {
  if (AllPhasesDone)
    return;
  for (const Client &Cl : Clients)
    if (!Cl.Dead && !Cl.BarrierAcked)
      return;
  // Everyone alive passed the fence.
  if (Phase + 1 == C.Phases) {
    AllPhasesDone = true;
    for (size_t I = 0; I != Clients.size(); ++I) {
      Client &Cl = Clients[I];
      if (Cl.Dead)
        continue;
      WireFrame F;
      F.T = WireFrame::Bye;
      Cl.S->enqueue(F);
      Cl.ByeSent = true;
      flushClient(I);
    }
    return;
  }
  ++Phase;
  for (Client &Cl : Clients) {
    if (Cl.Dead)
      continue;
    Cl.BarrierSent = false;
    Cl.BarrierAcked = false;
    Cl.PhaseTarget = phaseTarget(Cl, Phase);
  }
}

void Loadgen::flushClient(size_t Idx) {
  Client &Cl = Clients[Idx];
  if (Cl.Dead || !Cl.Connected)
    return;
  Session &S = *Cl.S;
  bool Fatal = false;
  for (;;) {
    S.fillTx();
    size_t Pend = S.txPending();
    if (Pend == 0)
      break;
    ssize_t N;
    if (C.Udp) {
      size_t Chunk = std::min<size_t>(Pend, 48 * sim::WireFrameBytes);
      Chunk -= Chunk % sim::WireFrameBytes;
      N = ::send(Cl.Sock.get(), S.txData(), Chunk, 0);
    } else {
      N = ::write(Cl.Sock.get(), S.txData(), Pend);
    }
    if (N > 0) {
      S.txConsume(static_cast<size_t>(N));
      St.BytesSent += static_cast<uint64_t>(N);
      DidWork = true;
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    Fatal = true;
    break;
  }
  if (Fatal) {
    ++St.ProtocolErrors;
    teardown(Idx);
    return;
  }
  bool Want = S.wantsWrite();
  if (Want != Cl.WriteArmed) {
    Poll.mod(Cl.Sock.get(), Idx, /*Read=*/true, /*Write=*/Want);
    Cl.WriteArmed = Want;
  }
  if (Cl.ByeSent && !Want)
    teardown(Idx); // clean completion
}

void Loadgen::teardown(size_t Idx) {
  Client &Cl = Clients[Idx];
  if (Cl.Dead)
    return;
  if (Cl.Sock.valid())
    Poll.del(Cl.Sock.get());
  Cl.Sock.reset();
  Cl.Dead = true;
}

void Loadgen::handleEvent(const Ready &Ev) {
  size_t Idx = static_cast<size_t>(Ev.Token);
  if (Idx >= Clients.size())
    return;
  Client &Cl = Clients[Idx];
  if (Cl.Dead)
    return;
  if (Ev.Writable && !Cl.Connected) {
    int SoErr = 0;
    socklen_t Len = sizeof(SoErr);
    ::getsockopt(Cl.Sock.get(), SOL_SOCKET, SO_ERROR, &SoErr, &Len);
    if (SoErr != 0) {
      // The usual "loadgen raced the server's listener" shape: the
      // refusal arrives asynchronously. Retry under the same budget.
      if (!scheduleRetry(Idx)) {
        ++St.ConnectFailed;
        teardown(Idx);
      }
      return;
    }
    Cl.Connected = true;
    ++St.Connected;
    WireFrame Hello;
    Hello.T = WireFrame::Hello;
    Hello.A = sim::WireProtoVersion;
    Hello.Seq = C.Seed + Idx; // nonce; seed-varied, server ignores it
    Cl.S->enqueue(Hello);
    DidWork = true;
  }
  if (Ev.Readable) {
    uint8_t Buf[65536];
    for (int Round = 0; Round != 8; ++Round) {
      ssize_t N = ::read(Cl.Sock.get(), Buf, sizeof(Buf));
      if (N > 0) {
        St.BytesReceived += static_cast<uint64_t>(N);
        DidWork = true;
        if (!Cl.S->ingest(Buf, static_cast<size_t>(N), *this)) {
          ++St.ProtocolErrors;
          teardown(Idx);
          return;
        }
        if (static_cast<size_t>(N) < sizeof(Buf))
          break;
        continue;
      }
      if (N == 0) { // server closed on us
        if (!Cl.ByeSent)
          ++St.ProtocolErrors;
        teardown(Idx);
        return;
      }
      break; // EAGAIN
    }
  }
  if (Ev.Error) {
    if (!Cl.ByeSent)
      ++St.ProtocolErrors;
    teardown(Idx);
    return;
  }
  if (Cl.S && Cl.S->wantsWrite())
    flushClient(Idx);
}

LoadgenStats Loadgen::run() {
  raiseFdLimit();
  int64_t Start = nowNs();
  int64_t Deadline = Start + static_cast<int64_t>(C.TimeoutMs) * 1000000;
  ConnectDeadlineNs =
      Start + static_cast<int64_t>(C.ConnectTimeoutMs) * 1000000;

  for (size_t I = 0; I != Clients.size(); ++I)
    startConnect(I);

  std::vector<Ready> Events;
  for (;;) {
    bool AnyAlive = false;
    for (const Client &Cl : Clients)
      if (!Cl.Dead) {
        AnyAlive = true;
        break;
      }
    if (!AnyAlive)
      break;
    if (nowNs() > Deadline || (Stop && Stop->load(std::memory_order_relaxed))) {
      St.TimedOut = nowNs() > Deadline;
      break;
    }
    retryPending();
    drive();
    int TimeoutMs = DidWork ? 0 : 2;
    DidWork = false;
    int N = Poll.wait(Events, TimeoutMs);
    for (int I = 0; I < N; ++I)
      handleEvent(Events[static_cast<size_t>(I)]);
  }

  for (size_t I = 0; I != Clients.size(); ++I)
    teardown(I);
  for (const Client &Cl : Clients) {
    if (!Cl.S)
      continue;
    const SessionCounters &Ct = Cl.S->counters();
    St.FramesSent += Ct.FramesOut;
  }
  St.ElapsedSec = static_cast<double>(nowNs() - Start) * 1e-9;
  St.RttNs = Rtt.snapshot();
  return St;
}

} // namespace

LoadgenStats net::runLoadgen(const LoadgenConfig &C,
                             const std::atomic<bool> *Stop) {
  Loadgen L(C, nullptr, Stop);
  return L.run();
}

LoadgenStats net::runLoadgen(const LoadgenConfig &C,
                             const engine::Workload &W,
                             const std::atomic<bool> *Stop) {
  Loadgen L(C, &W, Stop);
  return L.run();
}
