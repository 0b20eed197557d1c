#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <cmath>
#include <thread>

#include "serve/frame.h"

namespace xarbench {
namespace {

using serve::Verb;

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

Verb VerbOf(Op op) {
  switch (op) {
    case Op::kSearchAndBook: return Verb::kSearchAndBook;
    case Op::kRefresh: return Verb::kRefresh;
    default: return Verb::kSearch;
  }
}

void EncodeRequest(const Action& action, std::vector<std::uint8_t>* payload) {
  payload->clear();
  if (action.op == Op::kRefresh) return;
  const RideRequest& r = action.request;
  serve::SearchPayload p;
  p.rider_id = r.id.value();
  p.source_lat = r.source.lat;
  p.source_lng = r.source.lng;
  p.dest_lat = r.destination.lat;
  p.dest_lng = r.destination.lng;
  p.earliest_departure_s = r.earliest_departure_s;
  p.latest_departure_s = r.latest_departure_s;
  p.walk_limit_m = r.walk_limit_m;
  p.top_k = kTopK;
  serve::EncodeSearch(p, payload);
}

void Answer(const Action& action, const serve::Frame& frame, double now_s,
            Completion* c) {
  c->latency_s = now_s - action.due_s;
  switch (static_cast<serve::RespStatus>(frame.code)) {
    case serve::RespStatus::kOk:
      c->outcome = Outcome::kOk;
      break;
    case serve::RespStatus::kBusy:
      c->outcome = Outcome::kBusy;
      return;
    case serve::RespStatus::kFailed:
      c->outcome = Outcome::kFailed;
      return;
    default:
      c->outcome = Outcome::kError;
      return;
  }
  if (action.op == Op::kSearch) {
    serve::SearchResult found;
    if (serve::DecodeSearchResult(frame.payload.data(), frame.payload.size(),
                                  &found)) {
      c->rows = static_cast<std::uint32_t>(found.matches.size());
    } else {
      c->outcome = Outcome::kError;
    }
  } else if (action.op == Op::kSearchAndBook) {
    serve::BookingResult booked;
    if (serve::DecodeBookingResult(frame.payload.data(), frame.payload.size(),
                                   &booked)) {
      c->ride_id = booked.ride_id;
    } else {
      c->outcome = Outcome::kError;
    }
  } else if (action.op == Op::kRefresh) {
    serve::RefreshResult refreshed;
    if (!serve::DecodeRefreshResult(frame.payload.data(),
                                    frame.payload.size(), &refreshed)) {
      c->outcome = Outcome::kError;
    }
  }
}

/// Body of one lane's thread. Waits for due times and answers with one
/// ppoll; timer slack is lowered so sends leave within microseconds of due.
void RunLane(std::uint16_t port, Lane* lane, SteadyTime t0, double deadline_s,
             const LocalFn& local) {
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const std::vector<Action>& actions = lane->actions;
  std::vector<Completion>& done = lane->done;
  done.assign(actions.size(), Completion{});
  bool wire = false;
  for (const Action& a : actions) wire = wire || IsWire(a.op);
  int fd = wire ? ConnectLoopback(port) : -1;
  std::this_thread::sleep_until(t0);

  serve::FrameDecoder decoder;
  std::vector<std::uint8_t> payload, bytes;
  std::vector<std::uint8_t> buf(1 << 16);
  std::size_t next = 0, in_flight = 0;
  auto drop_connection = [&] {
    if (fd >= 0) ::close(fd);
    fd = -1;
    for (Completion& c : done) {
      if (c.outcome == Outcome::kInFlight) c.outcome = Outcome::kError;
    }
    in_flight = 0;
  };

  for (;;) {
    double now = SecondsSince(t0);
    while (next < actions.size() && actions[next].due_s <= now) {
      const Action& a = actions[next];
      Completion& c = done[next];
      c.lag_s = now - a.due_s;
      c.sent_s = now;
      if (!IsWire(a.op)) {
        const bool ok = local(a);
        c.outcome = ok ? Outcome::kOk : Outcome::kFailed;
        c.latency_s = SecondsSince(t0) - a.due_s;
      } else if (fd < 0) {
        c.outcome = Outcome::kError;
      } else {
        EncodeRequest(a, &payload);
        bytes.clear();
        serve::AppendFrame(next, static_cast<std::uint8_t>(VerbOf(a.op)),
                           payload, &bytes);
        c.outcome = Outcome::kInFlight;
        ++in_flight;
        if (!SendAll(fd, bytes)) drop_connection();
      }
      ++next;
      now = SecondsSince(t0);
    }
    if (next == actions.size() && in_flight == 0) break;
    if (now >= deadline_s) break;
    const double wait_s =
        (next < actions.size() ? actions[next].due_s : deadline_s) - now;
    if (fd < 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
      continue;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready <= 0) continue;
    for (;;) {
      const ssize_t n = ::recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (n > 0) {
        decoder.Feed(buf.data(), static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      drop_connection();  // EOF or hard error
      break;
    }
    const double answered_s = SecondsSince(t0);
    serve::Frame frame;
    serve::FrameDecoder::Next popped;
    while ((popped = decoder.Pop(&frame)) == serve::FrameDecoder::Next::kFrame) {
      if (frame.tag >= actions.size() ||
          done[frame.tag].outcome != Outcome::kInFlight) {
        continue;  // not ours; the answer check counts what is missing
      }
      Answer(actions[frame.tag], frame, answered_s, &done[frame.tag]);
      --in_flight;
    }
    if (popped == serve::FrameDecoder::Next::kError) drop_connection();
  }
  for (Completion& c : done) {
    if (c.outcome == Outcome::kInFlight) c.outcome = Outcome::kTimeout;
  }
  if (fd >= 0) ::close(fd);
}

}  // namespace

SteadyTime RunLanes(std::uint16_t port, std::vector<Lane>* lanes,
                    double drain_s, const LocalFn& local) {
  double last_due_s = 0.0;
  for (const Lane& lane : *lanes) {
    if (!lane.actions.empty()) {
      last_due_s = std::max(last_due_s, lane.actions.back().due_s);
    }
  }
  // Start far enough ahead for every lane to connect first.
  const SteadyTime t0 =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> threads;
  threads.reserve(lanes->size());
  for (Lane& lane : *lanes) {
    threads.emplace_back(RunLane, port, &lane, t0, last_due_s + drain_s,
                         std::cref(local));
  }
  for (std::thread& t : threads) t.join();
  return t0;
}

std::string Tally::ToString() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "attempted %llu ok %llu busy %llu failed %llu error %llu "
                "timeout %llu",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(busy),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(error),
                static_cast<unsigned long long>(timeout));
  return buf;
}

Tally TallyOf(const std::vector<Lane>& lanes, Op op) {
  Tally t;
  for (const Lane& lane : lanes) {
    for (std::size_t i = 0; i < lane.actions.size(); ++i) {
      if (lane.actions[i].op != op) continue;
      ++t.attempted;
      switch (lane.done[i].outcome) {
        case Outcome::kOk: ++t.ok; break;
        case Outcome::kBusy: ++t.busy; break;
        case Outcome::kFailed: ++t.failed; break;
        case Outcome::kTimeout: ++t.timeout; break;
        default: ++t.error; break;
      }
    }
  }
  return t;
}

std::vector<double> LatenciesMs(const std::vector<Lane>& lanes,
                                std::initializer_list<Op> ops,
                                double window_s, const std::vector<bool>& keep,
                                double miss_ms, bool failed_is_answer) {
  std::vector<double> out;
  for (const Lane& lane : lanes) {
    for (std::size_t i = 0; i < lane.actions.size(); ++i) {
      const Action& a = lane.actions[i];
      if (std::find(ops.begin(), ops.end(), a.op) == ops.end()) continue;
      if (!keep.empty()) {
        const auto w = static_cast<std::size_t>(a.due_s / window_s);
        if (w >= keep.size() || !keep[w]) continue;
      }
      const Completion& c = lane.done[i];
      const bool answered =
          c.outcome == Outcome::kOk ||
          (failed_is_answer && c.outcome == Outcome::kFailed);
      out.push_back(answered ? c.latency_s * 1e3 : miss_ms);
    }
  }
  return out;
}

std::vector<double> LagsMs(const std::vector<Lane>& lanes) {
  std::vector<double> out;
  for (const Lane& lane : lanes) {
    for (const Completion& c : lane.done) {
      if (c.outcome != Outcome::kNotSent) out.push_back(c.lag_s * 1e3);
    }
  }
  return out;
}

}  // namespace xarbench
