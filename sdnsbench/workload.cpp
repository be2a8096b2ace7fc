#include "workload.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "dns/message.hpp"
#include "dns/tsig.hpp"
#include "util/bytes.hpp"

namespace sdnsbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::int64_t kMs = 1'000'000;
constexpr unsigned kReadSockets = 3;
constexpr unsigned kControlSocket = 3;  ///< updates and final checks
constexpr unsigned kUpdatesInFlight = 4;
/// The update phase runs in this many segments, each on a fresh boot.
constexpr unsigned kUpdateSegments = 3;
constexpr std::int64_t kTick = kMs / 10;  ///< send batching interval
constexpr double kReadRate = 40'000;      ///< offered reads/s in the read phase

/// How a workload spends its `seconds`: a read phase, then a closed-loop
/// update phase. The capacity search runs between them, on top of
/// `seconds`. Reads and updates never overlap (see README, "Known
/// failures").
struct WorkloadSpec {
  std::string name;
  double read_share = 0;    ///< of seconds: read phase
  double update_share = 0;  ///< of seconds: update phase
};

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      {"read_mix", 0.6, 0.4},
      {"update_mix", 0.2, 0.8},
  };
  return all;
}

/// CPU time the hypervisor gave to others (steal), summed over all CPUs, s.
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string name;
  double fields[8] = {};
  in >> name;
  for (double& f : fields) in >> f;
  return fields[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double cpu_seconds_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Percentile under the ten-beyond rule; a missing one is a run failure.
double required_percentile(std::vector<double> values, double q, const char* what,
                           std::vector<std::string>& problems) {
  const auto p = percentile(values, q);
  if (!p) {
    problems.push_back(std::string(what) + ": " + std::to_string(values.size()) +
                       " samples, too few for this percentile");
    return 0;
  }
  return *p;
}

struct UpdateRec {
  UpdateSeq::Step step;
  std::int64_t sched_ns = 0;
  std::vector<std::uint8_t> wire;
};

class Runner {
 public:
  Runner(const RunOptions& opt, const WorkloadSpec& spec)
      : opt_(opt),
        spec_(spec),
        zone_(make_zone(opt.seed)),
        reads_(zone_, opt.seed),
        seq_(opt.seed),
        drv_(kReadSockets + 1, 0.5, 5.0, [this](std::uint32_t op) { on_done(op); }) {}

  RunResult run();

 private:
  struct PhaseReads {
    std::size_t first_op = 0, end_op = 0;
    std::int64_t start_ns = 0, end_ns = 0;
  };

  void deploy();
  void boot();
  /// Fresh update state for segment `k`: its own update sequence and
  /// acknowledgement bookkeeping (the cluster was rebooted from the deal).
  void start_segment(unsigned k);
  /// Scrape every replica at the start and the end of a boot's measured
  /// work; the end adds the counter deltas to counter_sum_.
  void begin_window();
  void end_window(bool updates);
  PhaseReads run_phase(double seconds, double read_rate, bool updates);
  StepOutcome capacity_step(double rate, double seconds);
  void settle();
  void collect_reads(const PhaseReads& p, std::vector<double>* latencies);
  /// Median over the phase's one-second windows of each window's read p99.
  double windowed_read_p99(const PhaseReads& p);
  bool submit_update(std::int64_t sched);
  void submit_read(std::int64_t sched, std::uint64_t i);
  void on_done(std::uint32_t op);
  void final_checks();
  void fail(const std::string& why) { result_.problems.push_back(why); }

  const RunOptions& opt_;
  const WorkloadSpec& spec_;
  ZoneInputs zone_;
  ReadMix reads_;
  UpdateSeq seq_;
  Driver drv_;
  std::unique_ptr<Deployment> dep_;
  std::vector<double> boot_s_;
  std::vector<sockaddr_in> replicas_, read_replicas_;
  dns::TsigKey key_;

  std::vector<UpdateRec> updates_;
  std::size_t segment_first_ = 0;  ///< first index into updates_ of the segment
  std::int64_t first_update_ns_ = 0, last_ack_ns_ = 0;
  std::optional<UpdateSeq::Step> held_;  ///< a delete waiting for its add
  std::vector<bool> add_acked_, del_acked_, del_sent_;
  unsigned inflight_ = 0;
  std::uint64_t gateway_ = 0;
  std::uint64_t settle_probes_ = 0;
  std::vector<double> update_ms_;
  Tally update_tally_, check_tally_, read_tally_;
  std::vector<double> late_ms_;

  std::vector<std::map<std::string, std::string>> window_start_;
  double window_cpu0_ = 0, replica_cpu_ = 0;
  std::map<std::string, double> counter_sum_;  ///< over replicas and boots
  std::vector<std::map<std::string, std::string>> update_scrapes_;  ///< at segment ends

  // Traced-run inputs.
  Trace trace_;
  ReplayInputs replay_;

  RunResult result_;
};

void Runner::deploy() {
  DeployOptions d;
  d.bin_dir = opt_.bin_dir;
  d.zone_text = zone_.zone_text;
  d.probe_name = zone_.owners[0];
  d.seed = opt_.seed;
  d.dir = opt_.work_dir + "/cluster";
  std::filesystem::remove_all(d.dir);
  std::filesystem::create_directories(d.dir);
  dep_ = std::make_unique<Deployment>(d);
  const auto& files = dep_->files();
  for (const auto& a : files.dns_addrs) replicas_.push_back(a.to_sockaddr());
  read_replicas_.assign(replicas_.begin(), replicas_.begin() + 3);
  key_ = {files.tsig_name, util::hex_decode(files.tsig_secret_hex)};
}

void Runner::boot() {
  dep_->stop();
  boot_s_.push_back(dep_->boot());
}

void Runner::start_segment(unsigned k) {
  seq_ = UpdateSeq(opt_.seed + (std::uint64_t{k} << 32));
  held_.reset();
  add_acked_.clear();
  del_acked_.clear();
  del_sent_.clear();
  segment_first_ = updates_.size();
}

void Runner::begin_window() {
  window_start_.clear();
  for (const auto& a : dep_->files().dns_addrs) window_start_.push_back(scrape(a));
  window_cpu0_ = dep_->replica_cpu_seconds();
}

void Runner::end_window(bool updates) {
  replica_cpu_ += dep_->replica_cpu_seconds() - window_cpu0_;
  const auto& addrs = dep_->files().dns_addrs;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    const auto end = scrape(addrs[i]);
    for (const auto& kv : end) {
      counter_sum_[kv.first] += counter(end, kv.first) - counter(window_start_[i], kv.first);
    }
    if (updates) update_scrapes_.push_back(end);
  }
}

void Runner::submit_read(std::int64_t sched, std::uint64_t i) {
  const ReadMix::Read r = reads_.next();
  std::vector<std::uint8_t> wire = encode_query(0, r.name);
  const unsigned sock = static_cast<unsigned>(i % kReadSockets);
  if (opt_.trace && replay_.reads.size() < 50'000) {
    replay_.reads.push_back({wire, drv_.op_count()});
  }
  drv_.submit(sock, read_replicas_[i % read_replicas_.size()], std::move(wire),
              Driver::Kind::kRead,
              r.owner, sched, r.junk, r.junk ? Ip{} : zone_.ips[r.owner]);
}

bool Runner::submit_update(std::int64_t sched) {
  const UpdateSeq::Step step = held_ ? *held_ : seq_.next();
  held_.reset();
  if (step.target >= add_acked_.size()) {
    add_acked_.resize(step.target + 1);
    del_acked_.resize(step.target + 1);
    del_sent_.resize(step.target + 1);
  }
  if (!step.add && !add_acked_[step.target]) {
    held_ = step;  // never delete what is not known to exist
    return false;
  }
  dns::Message m;
  m.id = drv_.next_id(kControlSocket);
  m.opcode = dns::Opcode::kUpdate;
  m.questions.push_back({dns::Name::parse(kOrigin), dns::RRType::kSOA, dns::RRClass::kIN});
  dns::ResourceRecord rr;
  rr.name = dns::Name::parse(seq_.name(step.target));
  rr.type = dns::RRType::kA;
  if (step.add) {
    rr.ttl = 300;
    const Ip& ip = seq_.ip(step.target);
    rr.rdata.assign(ip.begin(), ip.end());
  } else {
    rr.klass = dns::RRClass::kANY;  // RFC 2136 §2.5.2: delete the RRset
    rr.ttl = 0;
    del_sent_[step.target] = true;
  }
  m.updates().push_back(rr);
  dns::tsig_sign(m, key_, static_cast<std::uint64_t>(std::time(nullptr)));
  if (updates_.size() == segment_first_) first_update_ns_ = sched;
  UpdateRec rec;
  rec.step = step;
  rec.sched_ns = sched;
  rec.wire = m.encode();
  const sockaddr_in& gateway = replicas_[gateway_++ % replicas_.size()];
  drv_.submit(kControlSocket, gateway, rec.wire, Driver::Kind::kUpdate,
              static_cast<std::uint32_t>(updates_.size()), sched, false, Ip{});
  updates_.push_back(std::move(rec));
  ++inflight_;
  return true;
}

void Runner::on_done(std::uint32_t index) {
  const Driver::Op& op = drv_.op(index);
  if (op.kind != Driver::Kind::kUpdate) return;
  --inflight_;
  UpdateRec& rec = updates_[op.tag];
  if (op.verdict != Verdict::kNoError) {
    update_tally_.fail();
    fail("update " + seq_.name(rec.step.target) + (rec.step.add ? " add" : " delete") +
         (op.timed_out ? " timed out" : " not NOERROR"));
    return;
  }
  update_tally_.ok();
  (rec.step.add ? add_acked_ : del_acked_)[rec.step.target] = true;
  update_ms_.push_back(ms(op.done_ns - rec.sched_ns));
  last_ack_ns_ = op.done_ns;
  if (opt_.trace) {
    replay_.updates.push_back(
        {rec.wire, trace_.add({0, 0, "client.update", rec.sched_ns, op.done_ns,
                               op.sock, op.id, op.tag})});
  }
}

Runner::PhaseReads Runner::run_phase(double seconds, double read_rate, bool updates) {
  PhaseReads pr;
  pr.first_op = drv_.op_count();
  const std::int64_t t0 = now_ns() + kMs;
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  pr.start_ns = t0;
  pr.end_ns = end;
  const double read_gap = read_rate > 0 ? 1e9 / read_rate : kInf;
  std::uint64_t nread = 0;
  for (;;) {
    const std::int64_t now = now_ns();
    if (now >= end) break;
    // Reads are batched per 0.1 ms tick; an update completion ends the
    // pump early, so without reads a 1 ms tick is enough.
    std::int64_t next = std::min(end, now + (read_rate > 0 ? kTick : kMs));
    if (read_rate > 0) {
      for (;;) {
        const auto sched = t0 + static_cast<std::int64_t>(static_cast<double>(nread) * read_gap);
        if (sched > now) {
          next = std::min(next, sched);
          break;
        }
        submit_read(sched, nread++);
      }
    }
    if (updates) {
      while (inflight_ < kUpdatesInFlight && submit_update(now)) {
      }
    }
    drv_.flush();
    drv_.pump(next);
  }
  pr.end_op = drv_.op_count();
  // Let every operation of the phase finish: reads time out after 0.5 s,
  // updates after 5 s.
  drv_.drain(now_ns() + 6'000 * kMs);
  return pr;
}

void Runner::collect_reads(const PhaseReads& p, std::vector<double>* latencies) {
  for (std::size_t i = p.first_op; i < p.end_op; ++i) {
    const Driver::Op& op = drv_.op(static_cast<std::uint32_t>(i));
    if (op.kind != Driver::Kind::kRead) continue;
    const Verdict want = op.expect_nx ? Verdict::kNxDomain : Verdict::kAnswer;
    late_ms_.push_back(ms(op.sent_ns - op.sched_ns));
    if (op.verdict == want) {
      read_tally_.ok();
      if (latencies) latencies->push_back(ms(op.done_ns - op.sched_ns));
    } else {
      read_tally_.fail();
      if (result_.problems.size() < 20) {
        fail(std::string("read ") + (op.timed_out ? "unanswered" : "answered wrongly"));
      }
    }
  }
}

double Runner::windowed_read_p99(const PhaseReads& p) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = p.first_op; i < p.end_op; ++i) {
    const Driver::Op& op = drv_.op(static_cast<std::uint32_t>(i));
    const Verdict want = op.expect_nx ? Verdict::kNxDomain : Verdict::kAnswer;
    if (op.kind != Driver::Kind::kRead || op.verdict != want) continue;
    const auto w = static_cast<std::size_t>((op.sched_ns - p.start_ns) / (1000 * kMs));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(ms(op.done_ns - op.sched_ns));
  }
  std::vector<double> p99s;
  for (auto& w : windows) {
    if (const auto v = percentile(w, 0.99)) p99s.push_back(*v);
  }
  if (p99s.empty()) fail("read_p99_ms: no one-second window has enough reads");
  return median(p99s);
}

StepOutcome Runner::capacity_step(double rate, double seconds) {
  const PhaseReads p = run_phase(seconds, rate, false);
  if (opt_.trace) {
    trace_.add({0, 0, "client.capacity_step", p.start_ns, now_ns(), -1, -1,
                static_cast<std::uint64_t>(rate)});
  }
  StepOutcome s;
  s.offered = rate;
  std::vector<double> all, first, second;
  const std::int64_t mid = p.start_ns + (p.end_ns - p.start_ns) / 2;
  std::size_t good = 0, total = 0;
  for (std::size_t i = p.first_op; i < p.end_op; ++i) {
    const Driver::Op& op = drv_.op(static_cast<std::uint32_t>(i));
    const Verdict want = op.expect_nx ? Verdict::kNxDomain : Verdict::kAnswer;
    const bool ok = op.verdict == want;
    const double lat = ok ? ms(op.done_ns - op.sched_ns) : kInf;
    ++total;
    good += ok;
    all.push_back(lat);
    (op.sched_ns < mid ? first : second).push_back(lat);
  }
  s.answered_share = total ? static_cast<double>(good) / static_cast<double>(total) : 0;
  s.answered_per_s = static_cast<double>(good) / seconds;
  s.p99_ms = percentile(all, 0.99).value_or(kInf);
  s.first_half_p50_ms = median(first);
  s.second_half_p50_ms = median(second);
  if (!step_passes(s, {})) settle();
  return s;
}

void Runner::settle() {
  // An overloaded step leaves queued work in the servers that would fail the
  // steps after it. Wait (up to 3 s) until a nonexistent name, which takes
  // the cache-miss path, is answered within 2 ms by every target.
  const std::int64_t until = now_ns() + 3'000 * kMs;
  while (now_ns() < until) {
    std::vector<std::uint32_t> sent;
    for (const sockaddr_in& t : read_replicas_) {
      const std::string name = "settle" + std::to_string(settle_probes_++) + "." + kOrigin;
      sent.push_back(drv_.submit(kControlSocket, t, encode_query(0, name),
                                 Driver::Kind::kCheck, 0, now_ns(), true, Ip{}));
    }
    drv_.flush();
    drv_.drain(now_ns() + 500 * kMs);
    bool idle = true;
    for (const std::uint32_t i : sent) {
      const Driver::Op& op = drv_.op(i);
      idle = idle && op.verdict == Verdict::kNxDomain && op.done_ns - op.sent_ns < 2 * kMs;
    }
    if (idle) return;
    ::usleep(20'000);
  }
}

void Runner::final_checks() {
  // All replicas must converge on one zone digest.
  const double deadline = static_cast<double>(now_ns()) / 1e9 + 10;
  std::vector<std::map<std::string, std::string>> scr;
  for (;;) {
    scr.clear();
    for (const auto& a : dep_->files().dns_addrs) scr.push_back(scrape(a));
    bool same = true;
    for (const auto& c : scr) {
      same = same && !c.empty() &&
             c.count("replica.zone_digest") &&
             c.at("replica.zone_digest") == scr[0].at("replica.zone_digest");
    }
    if (same) {
      check_tally_.ok();
      break;
    }
    if (static_cast<double>(now_ns()) / 1e9 > deadline) {
      check_tally_.fail();
      fail("replica.zone_digest differs between replicas");
      break;
    }
    ::usleep(50'000);
  }
  // Each counter check counts as one operation in fail_share.
  const auto expect_zero = [&](const std::map<std::string, std::string>& c,
                               const std::string& key, const std::string& who) {
    if (!c.empty() && counter(c, key) == 0) {
      check_tally_.ok();
    } else {
      check_tally_.fail();
      fail(who + " " + key + " != 0");
    }
  };
  for (std::size_t i = 0; i < scr.size(); ++i) {
    expect_zero(scr[i], "abcast.fallback", "replica " + std::to_string(i));
  }
  // Every acknowledged add is present and every acknowledged delete absent,
  // on every replica.
  struct Check {
    std::uint32_t target;
    bool present;
    sockaddr_in server;
    bool ok = false;
  };
  std::vector<Check> checks;
  for (std::uint32_t t = 0; t < add_acked_.size(); ++t) {
    if (!add_acked_[t] || (del_sent_[t] && !del_acked_[t])) continue;
    for (const auto& s : replicas_) checks.push_back({t, !del_acked_[t], s});
  }
  const std::int64_t until = now_ns() + 10'000 * kMs;
  for (;;) {
    std::vector<std::pair<std::size_t, std::uint32_t>> sent;
    for (std::size_t i = 0; i < checks.size(); ++i) {
      if (checks[i].ok) continue;
      const Check& c = checks[i];
      sent.push_back({i, drv_.submit(kControlSocket, c.server,
                                     encode_query(0, seq_.name(c.target)),
                                     Driver::Kind::kCheck, 0, now_ns(), !c.present,
                                     seq_.ip(c.target))});
      if (sent.size() % 256 == 0) {
        drv_.flush();
        drv_.drain(now_ns() + 2'000 * kMs);
      }
    }
    drv_.flush();
    drv_.drain(now_ns() + 2'000 * kMs);
    bool all_ok = true;
    for (const auto& [i, op] : sent) {
      const Verdict want = checks[i].present ? Verdict::kAnswer : Verdict::kNxDomain;
      checks[i].ok = drv_.op(op).verdict == want;
      all_ok = all_ok && checks[i].ok;
    }
    if (all_ok || now_ns() > until) break;
    ::usleep(100'000);
  }
  for (const Check& c : checks) {
    if (c.ok) {
      check_tally_.ok();
    } else {
      check_tally_.fail();
      fail("final state: " + seq_.name(c.target) + (c.present ? " missing" : " still present"));
    }
  }
}

RunResult Runner::run() {
  deploy();
  boot();
  const double cpu0 = cpu_seconds_self();
  const double steal0 = steal_seconds();
  const std::int64_t wall0 = now_ns();

  auto& e2e = result_.end_to_end;
  auto& layer = result_.per_layer;
  std::vector<double> read_ms;

  begin_window();
  // Warm-up, not measured: lazy set-up in the servers and the first cache
  // fills happen here.
  run_phase(1.0, kReadRate, false);
  const PhaseReads reads = run_phase(spec_.read_share * opt_.seconds, kReadRate, false);
  collect_reads(reads, &read_ms);

  // Capacity search against replicas 0-2, in steps of 0.5 s on top of
  // `seconds`. A failing step is tried twice more, so a transient stall on
  // a shared machine does not decide the capacity.
  const double step_s = 0.5;
  const std::size_t cap_first_op = drv_.op_count();
  const SearchResult cap = step_search(
      [&](double rate) {
        StepOutcome s = capacity_step(rate, step_s);
        for (int retry = 0; retry < 2 && !step_passes(s, {}); ++retry) {
          s = capacity_step(rate, step_s);
        }
        return s;
      },
      kReadRate, 1.5, 3, 1'000'000);
  for (const StepOutcome& st : cap.steps) {
    std::fprintf(stderr, "capacity step %.0f/s: answered %.5f p99 %.2f ms halves %.3f/%.3f ms %s\n",
                 st.offered, st.answered_share, st.p99_ms, st.first_half_p50_ms,
                 st.second_half_p50_ms, step_passes(st, {}) ? "pass" : "fail");
  }
  end_window(false);

  // Closed-loop updates, with abcast, threshold, store and mesh busy and the
  // read path idle. Update throughput differs far more from one boot to the
  // next than within a boot, so the phase runs in segments, each on a fresh
  // boot from the deal, and the update figures are medians over the
  // segments. Each segment ends with the final-state checks.
  std::vector<double> segment_p50, segment_rate;
  for (unsigned k = 0; k < kUpdateSegments; ++k) {
    boot();
    begin_window();
    start_segment(k);
    const std::size_t first = update_ms_.size();
    run_phase(spec_.update_share * opt_.seconds / kUpdateSegments, 0, true);
    end_window(true);
    final_checks();
    const std::vector<double> seg(update_ms_.begin() + static_cast<std::ptrdiff_t>(first),
                                  update_ms_.end());
    segment_p50.push_back(required_percentile(seg, 0.50, "update_p50_ms", result_.problems));
    segment_rate.push_back(static_cast<double>(seg.size()) /
                           std::max(1e-9, ms(last_ack_ns_ - first_update_ns_) / 1e3));
  }
  const double wall = ms(now_ns() - wall0) / 1e3;
  const double driver_cpu = cpu_seconds_self() - cpu0;
  const double steal = steal_seconds() - steal0;

  // The deal, plus the median boot (every boot starts from the deal on
  // empty data directories).
  e2e["setup_s"] = {dep_->deal_seconds() + median(boot_s_), "s"};
  e2e["read_p50_ms"] = {required_percentile(read_ms, 0.50, "read_p50_ms", result_.problems), "ms"};
  e2e["read_p90_ms"] = {required_percentile(read_ms, 0.90, "read_p90_ms", result_.problems), "ms"};
  e2e["read_p99_ms"] = {windowed_read_p99(reads), "ms"};
  e2e["read_max_qps"] = {cap.max_answered, "1/s"};
  e2e["update_p50_ms"] = {median(segment_p50), "ms"};
  e2e["update_p90_ms"] = {required_percentile(update_ms_, 0.90, "update_p90_ms", result_.problems), "ms"};
  e2e["update_mean_ms"] = {mean(update_ms_), "ms"};
  e2e["update_per_s"] = {median(segment_rate), "1/s"};
  e2e["replica_rss_mb"] = {dep_->max_rss_mib(), "MiB"};
  if (cap.max_rate <= 0) fail("capacity search found no passing rate");

  result_.ops += read_tally_;
  result_.ops += update_tally_;
  result_.ops += check_tally_;
  if (!result_.ops.consistent()) fail("operation accounting inconsistent");
  e2e["fail_share"] = {result_.ops.fail_share(), "ratio"};

  if (opt_.trace) {
    const auto sum = [&](const std::string& key) {
      const auto it = counter_sum_.find(key);
      return it == counter_sum_.end() ? 0.0 : it->second;
    };
    // Gauges (percentiles, means) as the replicas report them at the end of
    // each update segment, averaged.
    const auto replica_mean = [&](const std::string& key) {
      double total = 0;
      for (const auto& c : update_scrapes_) total += counter(c, key);
      return total / static_cast<double>(std::max<std::size_t>(1, update_scrapes_.size()));
    };
    const double committed = std::max<double>(1, static_cast<double>(update_ms_.size()));
    const double hits = sum("net.cache.hits"), misses = sum("net.cache.misses");
    std::vector<double> late = late_ms_;
    layer["driver.cpu_share"] = {driver_cpu / wall, "ratio"};
    layer["host.steal_s"] = {steal, "s"};
    layer["client.read_p90_ms"] = e2e["read_p90_ms"];
    layer["client.read_p99_ms"] = e2e["read_p99_ms"];
    layer["client.update_p90_ms"] = e2e["update_p90_ms"];
    layer["client.update_mean_ms"] = e2e["update_mean_ms"];
    layer["client.fail_share"] = e2e["fail_share"];
    layer["driver.late_ms_p99"] = {percentile(late, 0.99).value_or(0), "ms"};
    layer["net.udp.queries_per_recvmmsg"] = {
        sum("net.udp.queries") / std::max(1.0, sum("net.udp.recvmmsg_calls")), "ratio"};
    layer["net.udp.send_errors"] = {sum("net.udp.send_errors"), "count"};
    layer["replica.cpu_s"] = {replica_cpu_, "s"};
    layer["net.cache.hit_ratio"] = {hits / std::max(1.0, hits + misses), "ratio"};
    layer["threshold.sign_us.p50"] = {replica_mean("threshold.sign_us.p50"), "us"};
    layer["threshold.sign_us.p99"] = {replica_mean("threshold.sign_us.p99"), "us"};
    const double opt_hit = sum("threshold.optimistic.hit");
    layer["threshold.optimistic.hit_ratio"] = {
        opt_hit / std::max(1.0, opt_hit + sum("threshold.optimistic.miss")), "ratio"};
    layer["mesh.drops.fair_lossy"] = {sum("mesh.drops.fair_lossy"), "count"};
    layer["mesh.reconnects"] = {sum("mesh.reconnects"), "count"};
    layer["abcast.commit.fast"] = {sum("abcast.commit.fast"), "count"};
    layer["abcast.commit.fallback"] = {sum("abcast.commit.fallback"), "count"};
    layer["abcast.epoch_change"] = {sum("abcast.epoch_change"), "count"};
    layer["abcast.deliveries_per_update"] = {
        sum("abcast.delivered") / static_cast<double>(replicas_.size()) / committed, "ratio"};
    layer["replica.update_batch_size.mean"] = {replica_mean("replica.update_batch_size.mean"), "count"};
    layer["store.fsync_us.p50"] = {replica_mean("store.fsync_us.p50"), "us"};
    layer["store.fsync_us.p99"] = {replica_mean("store.fsync_us.p99"), "us"};
    layer["store.wal_syncs_per_update"] = {
        sum("store.wal_syncs") / static_cast<double>(replicas_.size()) / committed, "ratio"};

    // A span per client read before the capacity search (whose reads have
    // one span per step); the replays then hang under them.
    std::vector<std::uint64_t> read_span(cap_first_op, 0);
    for (std::size_t i = 0; i < cap_first_op; ++i) {
      const Driver::Op& op = drv_.op(static_cast<std::uint32_t>(i));
      if (op.kind != Driver::Kind::kRead) continue;
      read_span[i] = trace_.add({0, 0, "client.read", op.sched_ns, op.done_ns, op.sock,
                                 op.id, i});
    }
    for (auto& r : replay_.reads) r.second = read_span[r.second];
    replay_.cluster_dir = dep_->dir();
    replay_.scratch_dir = opt_.work_dir + "/replay";
    replay_.tsig_name = dep_->files().tsig_name;
    replay_.tsig_secret_hex = dep_->files().tsig_secret_hex;
    for (auto& [name, m] : replay_layers(replay_, trace_)) layer[name] = m;

    // The blocking path of one update, from the replays: TSIG verify, apply,
    // then per SIG task share generation, a mesh one-way hop, assembly and
    // verification; then the journal and the WAL fsync.
    const auto v = [&](const char* k) { return layer.count(k) ? layer[k].value : 0.0; };
    const double per_sig_ms = (v("threshold.share_gen_us") + v("threshold.assemble_us") +
                               v("threshold.verify_sig_us")) / 1e3 +
                              v("mesh.rtt_1frame_ms") / 2;
    const double sum_ms = (v("dns.tsig_verify_us") + v("dns.apply_update_us") +
                           v("dns.finalize_journal_us") + v("store.fsync_us.p50")) / 1e3 +
                          v("dns.sig_tasks_per_update") * per_sig_ms;
    layer["update.layer_sum_ms"] = {sum_ms, "ms"};
    layer["update.unattributed_ms"] = {e2e["update_p50_ms"].value - sum_ms, "ms"};
    // The traced run's own end-to-end numbers, for the tracing overhead.
    for (const auto& [name, m] : e2e) layer["traced." + name] = m;

    trace_.write(opt_.work_dir + "/trace.tsv");
  }

  result_.correct = result_.problems.empty();
  dep_->stop();
  return result_;
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
  for (const WorkloadSpec& spec : specs()) {
    if (spec.name != options.workload) continue;
    pin_self({kDriverCpu});
    Runner runner(options, spec);
    return runner.run();
  }
  throw std::invalid_argument("unknown workload " + options.workload);
}

void Trace::write(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tparent\tname\tstart_ns\tend_ns\tsock\tdns_id\tseq\n";
  for (const Span& s : spans_) {
    out << s.id << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns << '\t'
        << s.end_ns << '\t' << s.sock << '\t' << s.dns_id << '\t' << s.seq << '\n';
  }
}

}  // namespace sdnsbench
