#include "driver.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>

namespace sdnsbench {

namespace {

constexpr unsigned kBatch = 32;
constexpr std::size_t kMaxDatagram = 4096;

std::uint16_t u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

/// Offset just past the (possibly compressed) name at `at`, or 0 if it runs
/// off the end.
std::size_t skip_name(const std::uint8_t* p, std::size_t len, std::size_t at) {
  while (at < len) {
    const std::uint8_t b = p[at];
    if (b == 0) return at + 1;
    if ((b & 0xC0) == 0xC0) return at + 2 <= len ? at + 2 : 0;
    at += 1 + b;
  }
  return 0;
}

constexpr std::uint16_t kTypeA = 1, kTypeSig = 24, kTypeNxt = 30;

}  // namespace

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Verdict classify(const std::uint8_t* resp, std::size_t len,
                 const std::uint8_t* question, std::size_t qlen,
                 const std::array<std::uint8_t, 4>& want_ip) {
  if (len < 12 + qlen || !(resp[2] & 0x80) || u16(resp + 4) != 1) {
    return Verdict::kWrong;
  }
  if (std::memcmp(resp + 12, question, qlen) != 0) return Verdict::kWrong;
  const unsigned rcode = resp[3] & 0x0F;
  const unsigned ancount = u16(resp + 6), nscount = u16(resp + 8);
  bool a_ok = false, a_bad = false, a_sig = false, nxt = false, nxt_sig = false;
  std::size_t at = 12 + qlen;
  for (unsigned i = 0; i < ancount + nscount; ++i) {
    at = skip_name(resp, len, at);
    if (at == 0 || at + 10 > len) return Verdict::kWrong;
    const std::uint16_t type = u16(resp + at);
    const std::uint16_t rdlen = u16(resp + at + 8);
    const std::uint8_t* rdata = resp + at + 10;
    at += 10 + rdlen;
    if (at > len) return Verdict::kWrong;
    const bool answer = i < ancount;
    if (answer && type == kTypeA) {
      (rdlen == 4 && std::memcmp(rdata, want_ip.data(), 4) == 0 ? a_ok : a_bad) = true;
    } else if (type == kTypeSig && rdlen >= 2) {
      if (answer && u16(rdata) == kTypeA) a_sig = true;
      if (!answer && u16(rdata) == kTypeNxt) nxt_sig = true;
    } else if (!answer && type == kTypeNxt) {
      nxt = true;
    }
  }
  if (rcode == 0 && ancount == 0) return Verdict::kNoError;
  if (rcode == 0 && a_ok && a_sig && !a_bad) return Verdict::kAnswer;
  if (rcode == 3 && ancount == 0 && nxt && nxt_sig) return Verdict::kNxDomain;
  return Verdict::kWrong;
}

std::vector<std::uint8_t> encode_query(std::uint16_t id, std::string_view name,
                                       std::uint16_t qtype) {
  std::vector<std::uint8_t> w = {static_cast<std::uint8_t>(id >> 8),
                                 static_cast<std::uint8_t>(id), 0, 0, 0, 1, 0, 0,
                                 0, 0, 0, 1};
  std::size_t start = 0;
  while (start < name.size()) {
    std::size_t dot = name.find('.', start);
    if (dot == std::string_view::npos) dot = name.size();
    if (dot - start > 63) throw std::invalid_argument("label too long");
    if (dot > start) {
      w.push_back(static_cast<std::uint8_t>(dot - start));
      w.insert(w.end(), name.begin() + static_cast<std::ptrdiff_t>(start),
               name.begin() + static_cast<std::ptrdiff_t>(dot));
    }
    start = dot + 1;
  }
  w.push_back(0);
  w.insert(w.end(), {static_cast<std::uint8_t>(qtype >> 8),
                     static_cast<std::uint8_t>(qtype), 0, 1});
  // OPT: root owner, type 41, class = UDP payload 4096, TTL 0, no rdata.
  w.insert(w.end(), {0, 0, 41, 0x10, 0x00, 0, 0, 0, 0, 0, 0});
  return w;
}

Driver::Driver(unsigned sockets, double read_timeout_s, double control_timeout_s,
               Completion on_done)
    : read_timeout_ns_(static_cast<std::int64_t>(read_timeout_s * 1e9)),
      control_timeout_ns_(static_cast<std::int64_t>(control_timeout_s * 1e9)),
      on_done_(std::move(on_done)) {
  socks_.resize(sockets);
  for (Socket& s : socks_) {
    s.fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (s.fd < 0) throw std::runtime_error("driver: socket() failed");
    const int buf = 8 << 20;
    ::setsockopt(s.fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
    ::setsockopt(s.fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
    sockaddr_in any{};
    any.sin_family = AF_INET;
    any.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(s.fd, reinterpret_cast<sockaddr*>(&any), sizeof any) != 0) {
      throw std::runtime_error("driver: bind() failed");
    }
    s.slots.resize(65536);
  }
}

Driver::~Driver() {
  for (Socket& s : socks_) {
    if (s.fd >= 0) ::close(s.fd);
  }
}

std::uint32_t Driver::submit(unsigned sock, const sockaddr_in& to,
                             std::vector<std::uint8_t> wire, Kind kind,
                             std::uint32_t tag, std::int64_t sched_ns, bool expect_nx,
                             const std::array<std::uint8_t, 4>& want_ip) {
  Socket& s = socks_.at(sock);
  const std::uint16_t id = s.next_id++;
  Slot& slot = s.slots[id];
  if (slot.op != 0) {
    // The id space wrapped while the old query was still unanswered: it
    // counts as timed out.
    finish(slot.op - 1, Verdict::kWrong, now_ns(), true);
  }
  const std::size_t qlen = skip_name(wire.data(), wire.size(), 12) + 4 - 12;
  if (wire.size() < 12 || qlen > slot.question.size() || 12 + qlen > wire.size()) {
    throw std::invalid_argument("driver: question too long");
  }
  wire[0] = static_cast<std::uint8_t>(id >> 8);
  wire[1] = static_cast<std::uint8_t>(id);
  const auto index = static_cast<std::uint32_t>(ops_.size());
  Op op;
  op.sched_ns = sched_ns;
  op.tag = tag;
  op.kind = kind;
  op.expect_nx = expect_nx;
  op.sock = static_cast<std::uint8_t>(sock);
  op.id = id;
  ops_.push_back(op);
  slot.op = index + 1;
  slot.qlen = static_cast<std::uint8_t>(qlen);
  slot.want_ip = want_ip;
  std::memcpy(slot.question.data(), wire.data() + 12, qlen);
  s.queue.push_back({index, to, std::move(wire)});
  if (kind != Kind::kRead) control_.push_back(index);
  ++pending_;
  return index;
}

void Driver::flush() {
  for (Socket& s : socks_) {
    std::size_t done = 0;
    while (done < s.queue.size()) {
      mmsghdr msgs[kBatch];
      iovec iov[kBatch];
      const std::size_t n = std::min<std::size_t>(kBatch, s.queue.size() - done);
      for (std::size_t i = 0; i < n; ++i) {
        Outgoing& o = s.queue[done + i];
        iov[i] = {o.wire.data(), o.wire.size()};
        msgs[i] = {};
        msgs[i].msg_hdr.msg_name = &o.to;
        msgs[i].msg_hdr.msg_namelen = sizeof o.to;
        msgs[i].msg_hdr.msg_iov = &iov[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      const std::int64_t t = now_ns();
      const int sent = ::sendmmsg(s.fd, msgs, static_cast<unsigned>(n), 0);
      if (sent <= 0) {
        if (sent < 0 && errno == EINTR) continue;
        // Kernel refused (ENOBUFS/EAGAIN): the head datagram is lost and
        // its query will time out as a failure.
        ops_[s.queue[done].op].sent_ns = t;
        ++done;
        continue;
      }
      for (int i = 0; i < sent; ++i) ops_[s.queue[done + i].op].sent_ns = t;
      done += static_cast<std::size_t>(sent);
    }
    s.queue.clear();
  }
}

void Driver::finish(std::uint32_t index, Verdict v, std::int64_t at, bool timed_out) {
  Op& op = ops_[index];
  if (op.done_ns != 0) return;
  op.done_ns = at;
  op.verdict = v;
  op.timed_out = timed_out;
  socks_[op.sock].slots[op.id].op = 0;
  --pending_;
  if (op.kind != Kind::kRead) {
    completed_ = true;
    if (on_done_) on_done_(index);
  }
}

void Driver::receive(unsigned si) {
  Socket& s = socks_[si];
  static thread_local std::vector<std::uint8_t> bufs(kBatch * kMaxDatagram);
  for (;;) {
    mmsghdr msgs[kBatch];
    iovec iov[kBatch];
    for (unsigned i = 0; i < kBatch; ++i) {
      iov[i] = {bufs.data() + i * kMaxDatagram, kMaxDatagram};
      msgs[i] = {};
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int got = ::recvmmsg(s.fd, msgs, kBatch, MSG_DONTWAIT, nullptr);
    if (got <= 0) return;
    const std::int64_t t = now_ns();
    for (int i = 0; i < got; ++i) {
      const std::uint8_t* p = bufs.data() + static_cast<std::size_t>(i) * kMaxDatagram;
      const std::size_t len = msgs[i].msg_len;
      if (len < 12) continue;
      const Slot& slot = s.slots[u16(p)];
      if (slot.op == 0) continue;  // late answer to a query already timed out
      const Verdict v = classify(p, len, slot.question.data(), slot.qlen, slot.want_ip);
      if (v == Verdict::kWrong && len >= std::size_t{12} + slot.qlen &&
          std::memcmp(p + 12, slot.question.data(), slot.qlen) != 0) {
        continue;  // same id, other question: not this query's answer
      }
      finish(slot.op - 1, v, t, false);
    }
    if (static_cast<unsigned>(got) < kBatch) return;
  }
}

void Driver::expire(std::int64_t now) {
  const auto overdue = [now](const Op& op, std::int64_t timeout) {
    return op.sent_ns != 0 && now - op.sent_ns >= timeout;
  };
  while (oldest_ < ops_.size()) {
    const Op& op = ops_[oldest_];
    if (op.done_ns == 0 && op.kind == Kind::kRead) {
      if (!overdue(op, read_timeout_ns_)) break;
      finish(static_cast<std::uint32_t>(oldest_), Verdict::kWrong, now, true);
    }
    ++oldest_;
  }
  // finish() may run a completion that submits more control operations.
  std::vector<std::uint32_t> expired;
  std::erase_if(control_, [&](std::uint32_t i) {
    if (ops_[i].done_ns != 0) return true;
    if (!overdue(ops_[i], control_timeout_ns_)) return false;
    expired.push_back(i);
    return true;
  });
  for (std::uint32_t i : expired) finish(i, Verdict::kWrong, now, true);
}

void Driver::pump(std::int64_t until_ns) {
  completed_ = false;
  pollfd fds[8];
  for (std::size_t i = 0; i < socks_.size(); ++i) fds[i] = {socks_[i].fd, POLLIN, 0};
  for (;;) {
    for (unsigned i = 0; i < socks_.size(); ++i) receive(i);
    const std::int64_t now = now_ns();
    expire(now);
    if (completed_ || now >= until_ns) return;
    const std::int64_t wait = until_ns - now;
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    ::ppoll(fds, socks_.size(), &ts, nullptr);
  }
}

void Driver::drain(std::int64_t deadline_ns) {
  while (pending_ > 0 && now_ns() < deadline_ns) {
    pump(std::min(deadline_ns, now_ns() + 10'000'000));
  }
}

}  // namespace sdnsbench
