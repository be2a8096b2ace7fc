// The traced run's layer replays: each layer's public functions, timed one
// call at a time on the inputs the workload generated, in this process.
#include <algorithm>
#include <filesystem>
#include <memory>

#include "cluster.hpp"
#include "dns/dnssec.hpp"
#include "dns/server.hpp"
#include "dns/tsig.hpp"
#include "dns/xfr.hpp"
#include "net/cache.hpp"
#include "net/mesh.hpp"
#include "net/runtime.hpp"
#include "store/durable.hpp"
#include "threshold/shoup.hpp"
#include "workload.hpp"

namespace sdnsbench {

namespace bn = sdns::bn;
namespace store = sdns::store;
namespace threshold = sdns::threshold;

namespace {

constexpr std::size_t kUpdateReplays = 24;
constexpr std::size_t kMissReplays = 2000;
constexpr std::size_t kCacheBatch = 1000;

/// Times `fn` as one span named `name` under `parent`; returns microseconds.
template <typename Fn>
double timed(Trace& trace, const char* name, std::uint64_t parent, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t t1 = now_ns();
  trace.add({0, parent, name, t0, t1});
  return static_cast<double>(t1 - t0) / 1e3;
}

double p(std::vector<double> v, double q) { return percentile(v, q).value_or(median(v)); }

/// Round-trip times of one and of two back-to-back 300-byte frames between
/// two in-process mesh endpoints on loopback, in both connection
/// directions (endpoint 1 initiates the connection, endpoint 0 accepts).
std::pair<double, double> mesh_rtts(Trace& trace, std::uint64_t parent) {
  constexpr int kRounds = 10;
  net::EventLoop loop;
  const std::uint16_t base = free_port_block(static_cast<std::uint64_t>(now_ns()), 2);
  std::vector<net::SockAddr> peers = {
      net::SockAddr::parse("127.0.0.1:" + std::to_string(base)),
      net::SockAddr::parse("127.0.0.1:" + std::to_string(base + 1))};
  const util::Bytes secret(32, 0x5a);
  std::unique_ptr<net::Mesh> mesh[2];
  struct Round {
    int from = 0, burst = 1, got = 0;
    std::int64_t t0 = 0;
  } round;
  std::vector<double> rtt[3];  // indexed by burst size
  int done_rounds = 0;
  std::function<void()> start_round;
  const auto deliver = [&](unsigned self, unsigned from, util::Bytes msg) {
    if (msg.empty()) return;
    if (msg[0] == 'P') {
      if (msg[1] == msg[2] + 1) {  // last ping of the burst: answer it in kind
        for (int i = 0; i < msg[1]; ++i) mesh[self]->send(from, util::Bytes(300, 'R'));
      }
      return;
    }
    if (++round.got < round.burst) return;
    const std::int64_t t1 = now_ns();
    rtt[round.burst].push_back(static_cast<double>(t1 - round.t0) / 1e6);
    trace.add({0, parent, round.burst == 1 ? "mesh.rtt_1frame" : "mesh.rtt_2frame",
               round.t0, t1});
    ++done_rounds;
    loop.add_timer(0.002, start_round);
  };
  for (unsigned i = 0; i < 2; ++i) {
    net::Mesh::Options o;
    o.self = i;
    o.peers = peers;
    o.mesh_secret = secret;
    mesh[i] = std::make_unique<net::Mesh>(
        loop, o, [&deliver, i](unsigned from, util::Bytes m) { deliver(i, from, std::move(m)); },
        util::Rng(7 + i));
  }
  start_round = [&] {
    if (done_rounds >= 4 * kRounds) {
      loop.stop();
      return;
    }
    // Rounds cycle through (sender 0, 1 frame), (sender 1, 1 frame),
    // (sender 0, 2 frames), (sender 1, 2 frames).
    round.from = done_rounds % 2;
    round.burst = done_rounds / (2 * kRounds) + 1;
    round.got = 0;
    round.t0 = now_ns();
    const unsigned to = 1 - static_cast<unsigned>(round.from);
    for (int i = 0; i < round.burst; ++i) {
      util::Bytes ping(300, 0);
      ping[0] = 'P';
      ping[1] = static_cast<std::uint8_t>(round.burst);
      ping[2] = static_cast<std::uint8_t>(i);
      mesh[round.from]->send(to, std::move(ping));
    }
  };
  mesh[0]->start();
  mesh[1]->start();
  std::function<void()> wait_connected = [&] {
    if (mesh[0]->connected(1) && mesh[1]->connected(0)) {
      start_round();
    } else {
      loop.add_timer(0.01, wait_connected);
    }
  };
  loop.add_timer(0.01, wait_connected);
  loop.add_timer(30.0, [&] { loop.stop(); });
  loop.run();
  return {median(rtt[1]), median(rtt[2])};
}

}  // namespace

std::map<std::string, Metric> replay_layers(const ReplayInputs& in, Trace& trace) {
  std::map<std::string, Metric> out;
  const dns::Zone zone = dns::Zone::from_wire(net::read_file(in.cluster_dir + "/zone.wire"));
  const auto pub = threshold::ThresholdPublicKey::decode(
      net::read_file(in.cluster_dir + "/zone.pub"));
  const std::vector<threshold::KeyShare> shares = {
      threshold::KeyShare::decode(net::read_file(in.cluster_dir + "/zone0.share")),
      threshold::KeyShare::decode(net::read_file(in.cluster_dir + "/zone1.share"))};
  const std::uint64_t first_update = in.updates.empty() ? 0 : in.updates.front().second;
  const std::uint64_t last_update = in.updates.empty() ? 0 : in.updates.back().second;

  // ---- net cache: lookup, and store on a miss, over the read key stream ----
  std::vector<std::size_t> misses;
  {
    net::PacketCache cache(4096);
    const util::Bytes stub(300, 0);
    std::string key;
    double total_ns = 0;
    std::size_t ops = 0;
    for (std::size_t b = 0; b < in.reads.size(); b += kCacheBatch) {
      const std::size_t e = std::min(in.reads.size(), b + kCacheBatch);
      total_ns += 1e3 * timed(trace, "net.cache.lookup", in.reads[b].second, [&] {
        for (std::size_t i = b; i < e; ++i) {
          const auto& wire = in.reads[i].first;
          net::QueryShape shape;
          if (!net::scan_query(util::BytesView(wire.data(), wire.size()), shape)) continue;
          key.clear();
          net::append_cache_key(key, util::BytesView(wire.data(), wire.size()), shape);
          if (!cache.lookup(key, 1)) {
            cache.store(key, stub, shape.question_len, 1);
            misses.push_back(i);
          }
        }
      });
      ops += e - b;
    }
    out["net.cache.lookup_ns"] = {ops ? total_ns / static_cast<double>(ops) : 0, "ns"};
  }

  // ---- dns server: answer_query on the miss stream ----
  {
    const dns::AuthoritativeServer server{dns::Zone(zone)};
    std::vector<double> us;
    for (std::size_t k = 0; k < misses.size() && k < kMissReplays; ++k) {
      const auto& [wire, span] = in.reads[misses[k]];
      const dns::Message q = dns::Message::decode(util::BytesView(wire.data(), wire.size()));
      us.push_back(timed(trace, "dns.answer_query", span, [&] {
        const dns::Message r = server.answer_query(q, 4096);
        (void)r;
      }));
    }
    out["dns.answer_query_us.p50"] = {p(us, 0.5), "us"};
    out["dns.answer_query_us.p99"] = {p(us, 0.99), "us"};
  }

  // ---- dns updates, and each SIG task through the threshold scheme ----
  dns::AuthoritativeServer server{dns::Zone(zone)};
  std::optional<dns::Zone> before_last;
  std::vector<double> tsig_us, apply_us, finalize_us, tasks, gen_us, verify_share_us,
      assemble_us, verify_sig_us;
  util::Rng rng(99);
  const util::Bytes secret = util::hex_decode(in.tsig_secret_hex);
  const auto lookup = [&](const std::string& name) -> std::optional<util::Bytes> {
    if (name == in.tsig_name || name + "." == in.tsig_name || name == in.tsig_name + ".") {
      return secret;
    }
    return std::nullopt;
  };
  const std::size_t n_updates = std::min(in.updates.size(), kUpdateReplays);
  for (std::size_t u = 0; u < n_updates; ++u) {
    const auto& [wire, span] = in.updates[u];
    dns::Message msg = dns::Message::decode(util::BytesView(wire.data(), wire.size()));
    if (u + 1 == n_updates) before_last = server.zone();
    dns::TsigStatus st{};
    tsig_us.push_back(timed(trace, "dns.tsig_verify", span,
                            [&] { st = dns::tsig_verify(msg, lookup); }));
    if (st != dns::TsigStatus::kOk) throw std::runtime_error("replay: TSIG did not verify");
    dns::UpdateResult res;
    apply_us.push_back(timed(trace, "dns.apply_update", span, [&] {
      res = server.apply_update(msg, static_cast<std::uint32_t>(1'000'000 + u));
    }));
    if (res.rcode != dns::Rcode::kNoError) throw std::runtime_error("replay: update refused");
    tasks.push_back(static_cast<double>(res.sig_tasks.size()));
    for (const dns::SigTask& task : res.sig_tasks) {
      const bn::BigInt x = threshold::hash_to_element(pub, util::BytesView(task.data));
      std::vector<threshold::SignatureShare> sh;
      for (const auto& share : shares) {
        gen_us.push_back(timed(trace, "threshold.share_gen", span, [&] {
          sh.push_back(threshold::generate_share(pub, share, x, false, rng));
        }));
      }
      const threshold::SignatureShare proved =
          threshold::generate_share(pub, shares[0], x, true, rng);
      bool share_ok = false;
      verify_share_us.push_back(timed(trace, "threshold.share_verify", span, [&] {
        share_ok = threshold::verify_share(pub, x, proved);
      }));
      std::optional<bn::BigInt> y;
      assemble_us.push_back(timed(trace, "threshold.assemble", span,
                                  [&] { y = threshold::assemble(pub, x, sh); }));
      bool sig_ok = false;
      verify_sig_us.push_back(timed(trace, "threshold.verify_sig", span, [&] {
        sig_ok = y && threshold::verify_signature(pub, x, *y);
      }));
      if (!share_ok || !sig_ok) throw std::runtime_error("replay: threshold signature failed");
      server.install_signature(task, threshold::signature_bytes(pub, *y));
    }
    if (!res.sig_tasks.empty()) {
      finalize_us.push_back(
          timed(trace, "dns.finalize_journal", span, [&] { server.finalize_journal(); }));
    }
  }
  out["dns.tsig_verify_us"] = {median(tsig_us), "us"};
  out["dns.apply_update_us"] = {median(apply_us), "us"};
  out["dns.finalize_journal_us"] = {median(finalize_us), "us"};
  out["dns.sig_tasks_per_update"] = {median(tasks), "count"};
  out["threshold.share_gen_us"] = {median(gen_us), "us"};
  out["threshold.share_verify_us"] = {median(verify_share_us), "us"};
  out["threshold.assemble_us"] = {median(assemble_us), "us"};
  out["threshold.verify_sig_us"] = {median(verify_sig_us), "us"};

  // ---- dns xfr: one journal IXFR out and in; a full verify of the zone ----
  {
    std::vector<double> answer_us, apply_xfr_us, verify_ms;
    if (before_last) {
      const dns::RRset* soa = before_last->find(before_last->origin(), dns::RRType::kSOA);
      const dns::Message q = dns::make_ixfr_query(
          1, before_last->origin(), dns::SoaRdata::decode(soa->rdatas.front()));
      for (int i = 0; i < 5; ++i) {
        std::vector<dns::Message> resp;
        answer_us.push_back(timed(trace, "dns.answer_xfr", last_update,
                                  [&] { resp = server.answer_xfr(q, 0); }));
        dns::Zone copy = *before_last;
        dns::XfrOutcome o{};
        apply_xfr_us.push_back(timed(trace, "dns.apply_xfr", last_update, [&] {
          o = dns::apply_xfr_response(copy, resp.front());
        }));
        if (o != dns::XfrOutcome::kAppliedIxfr) throw std::runtime_error("replay: IXFR not applied");
      }
    }
    for (int i = 0; i < 3; ++i) {
      dns::ZoneVerifyResult r;
      verify_ms.push_back(timed(trace, "dns.verify_zone", last_update, [&] {
                            r = dns::verify_zone(server.zone());
                          }) / 1e3);
      if (!r.ok) throw std::runtime_error("replay: zone does not verify: " + r.first_error);
    }
    out["dns.answer_xfr_us"] = {median(answer_us), "us"};
    out["dns.apply_xfr_us"] = {median(apply_xfr_us), "us"};
    out["dns.verify_zone_ms"] = {median(verify_ms), "ms"};
  }

  // ---- store: append + sync with the workload's update sizes ----
  {
    std::filesystem::remove_all(in.scratch_dir);
    store::DurableZoneStore::Options o;
    o.dir = in.scratch_dir;
    o.snapshot_log_bytes = 0;
    store::DurableZoneStore st(o);
    std::vector<double> us;
    for (std::size_t u = 0; u < n_updates; ++u) {
      const auto& [wire, span] = in.updates[u];
      us.push_back(timed(trace, "store.append_sync", span, [&] {
        st.append(u + 1, util::BytesView(wire.data(), wire.size()), false);
        st.sync();
      }));
    }
    out["store.append_sync_us"] = {median(us), "us"};
  }

  // ---- net mesh ----
  const auto [one, two] = mesh_rtts(trace, first_update);
  out["mesh.rtt_1frame_ms"] = {one, "ms"};
  out["mesh.rtt_2frame_ms"] = {two, "ms"};
  return out;
}

}  // namespace sdnsbench
