// The benchmark's own load driver: one thread, at most four UDP sockets,
// sends and receives batched with sendmmsg/recvmmsg.
//
// Every operation carries the time it was *scheduled* to leave; latency is
// measured from that time, so a stall in the driver or the server shows up
// in every later operation instead of silently shifting the schedule. A
// response is matched to its operation by (socket, DNS id) and must echo the
// question bytes that were sent; the answer is then classified against the
// expectation the caller attached (see Verdict).
#pragma once

#include <netinet/in.h>

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace sdnsbench {

std::int64_t now_ns();

/// What a response says, checked as far as the wire allows without a full
/// decode: the id and question match, the header is a response, and
///  - kAnswer: NOERROR with an A record carrying the wanted address and a
///    SIG covering A in the answer section;
///  - kNxDomain: NXDOMAIN with an NXT and a SIG covering NXT in the authority section;
///  - kNoError: NOERROR without an A answer (an update acknowledgement);
///  - kWrong: anything else, including an A record with another address.
enum class Verdict : std::uint8_t { kWrong, kAnswer, kNxDomain, kNoError };

/// Classify `resp` as the answer to a query whose question section is
/// `question` (bytes after the 12-byte header). `want_ip` is the address an
/// A answer must carry (ignored unless the response has one).
Verdict classify(const std::uint8_t* resp, std::size_t len,
                 const std::uint8_t* question, std::size_t qlen,
                 const std::array<std::uint8_t, 4>& want_ip);

/// Encode an A query for `name` (dotted, absolute) with id `id` and an EDNS
/// OPT advertising 4096 bytes. Returns the wire.
std::vector<std::uint8_t> encode_query(std::uint16_t id, std::string_view name,
                                       std::uint16_t qtype = 1);

class Driver {
 public:
  /// kCheck: a settle probe or a final-state check.
  enum class Kind : std::uint8_t { kRead, kUpdate, kCheck };

  struct Op {
    std::int64_t sched_ns = 0;
    std::int64_t sent_ns = 0;
    std::int64_t done_ns = 0;  ///< 0 while pending
    std::uint32_t tag = 0;     ///< caller's index (owner, update)
    Kind kind = Kind::kRead;
    Verdict verdict = Verdict::kWrong;
    bool expect_nx = false;  ///< reads: the correct verdict is kNxDomain
    bool timed_out = false;
    std::uint8_t sock = 0;
    std::uint16_t id = 0;
  };

  /// Called once per finished update or check (answered or timed
  /// out).
  using Completion = std::function<void(std::uint32_t op)>;

  /// Reads time out after `read_timeout_s`, updates and checks after
  /// `control_timeout_s`.
  Driver(unsigned sockets, double read_timeout_s, double control_timeout_s,
         Completion on_done);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// The DNS id the next submit() on `sock` will use (so a caller can sign
  /// the message with it first).
  std::uint16_t next_id(unsigned sock) const { return socks_.at(sock).next_id; }

  /// Queue `wire` (its id field is overwritten) for socket `sock` to `to`.
  /// Returns the operation index. Sent on the next flush().
  std::uint32_t submit(unsigned sock, const sockaddr_in& to,
                       std::vector<std::uint8_t> wire, Kind kind, std::uint32_t tag,
                       std::int64_t sched_ns, bool expect_nx,
                       const std::array<std::uint8_t, 4>& want_ip);

  /// Send everything queued (sendmmsg, up to 32 per call).
  void flush();
  /// Receive and time out until `until_ns`, sleeping in ppoll between
  /// arrivals. Returns early on the first update/check completion.
  void pump(std::int64_t until_ns);
  /// pump() until nothing is pending or `deadline_ns` passes.
  void drain(std::int64_t deadline_ns);

  const Op& op(std::uint32_t i) const { return ops_[i]; }
  std::size_t op_count() const { return ops_.size(); }
  std::size_t pending() const { return pending_; }

 private:
  struct Slot {
    std::uint32_t op = 0;  ///< op index + 1; 0 = free
    std::uint8_t qlen = 0;
    std::array<std::uint8_t, 4> want_ip{};
    std::array<std::uint8_t, 110> question{};
  };
  struct Outgoing {
    std::uint32_t op;
    sockaddr_in to;
    std::vector<std::uint8_t> wire;
  };
  struct Socket {
    int fd = -1;
    std::uint16_t next_id = 0;
    std::vector<Slot> slots;  ///< indexed by DNS id
    std::vector<Outgoing> queue;
  };

  void receive(unsigned s);
  void finish(std::uint32_t op, Verdict v, std::int64_t at, bool timed_out);
  void expire(std::int64_t now);

  std::vector<Socket> socks_;
  std::deque<Op> ops_;  ///< a deque: growing it never copies or stalls a send
  std::size_t pending_ = 0;
  std::size_t oldest_ = 0;  ///< every read below this index is finished
  std::vector<std::uint32_t> control_;  ///< updates and checks in flight
  std::int64_t read_timeout_ns_, control_timeout_ns_;
  Completion on_done_;
  bool completed_ = false;
};

}  // namespace sdnsbench
