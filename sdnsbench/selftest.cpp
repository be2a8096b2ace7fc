// Self-tests of the benchmark's own statistics and checks; no cluster.
//
//   sdnsbench_selftest     (exit 0 when every check holds)
#include <cmath>
#include <cstdio>
#include <string>

#include "driver.hpp"
#include "inputs.hpp"
#include "stats.hpp"

using namespace sdnsbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += !ok;
}

void percentile_rule() {
  check(min_samples_for(0.99) == 1000, "p99 needs 1000 samples");
  check(min_samples_for(0.90) == 100, "p90 needs 100 samples");
  check(min_samples_for(0.50) == 20, "p50 needs 20 samples");
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  check(!percentile(v, 0.99), "p99 withheld at 999 samples");
  v.push_back(999);
  const auto p = percentile(v, 0.99);
  check(p && *p == 989, "p99 of 0..999 is 989 (ten samples beyond it)");
  std::vector<double> few = {3, 1, 2};
  check(!percentile(few, 0.5), "median withheld below 20 samples");
}

void zipf_determinism() {
  for (std::uint64_t seed : {1ull, 2ull, 77ull}) {
    const Zipf z(1000, 1.0);
    SeededRng a(seed, 2), b(seed, 2);
    bool same = true;
    std::vector<std::size_t> counts(1000);
    for (int i = 0; i < 100'000; ++i) {
      const std::size_t x = z.draw(a);
      same = same && x == z.draw(b);
      ++counts[x];
    }
    check(same, "Zipf draws repeat for seed " + std::to_string(seed));
    // Zipf(1) over 1000: P(rank 0) = 1 / H(1000) ~ 0.1336, P(rank 1) half that.
    const double p0 = counts[0] / 1e5, p1 = counts[1] / 1e5;
    check(std::abs(p0 - 0.1336) < 0.01 && std::abs(p1 - 0.0668) < 0.01,
          "Zipf(1) rank shares for seed " + std::to_string(seed));
  }
  const ZoneInputs z1 = make_zone(5), z2 = make_zone(5), z3 = make_zone(6);
  check(z1.zone_text == z2.zone_text && z1.by_rank == z2.by_rank, "zone repeats per seed");
  check(z1.zone_text != z3.zone_text, "zone differs across seeds");
  ReadMix r1(z1, 5), r2(z2, 5);
  bool same = true;
  int junk = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto a = r1.next(), b = r2.next();
    same = same && a.name == b.name;
    junk += a.junk;
  }
  check(same, "read mix repeats per seed");
  check(junk > 1800 && junk < 2200, "read mix is 10 % junk");
  UpdateSeq u1(5), u2(5);
  bool useq = true;
  for (int i = 0; i < 500; ++i) {
    const auto a = u1.next(), b = u2.next();
    useq = useq && a.add == b.add && a.target == b.target;
  }
  check(useq, "update sequence repeats per seed");
}

/// A synthetic server: M/M/1-like latency that explodes at `cap`.
StepOutcome synthetic(double rate, double cap, double base_ms) {
  StepOutcome s;
  s.offered = rate;
  const double rho = rate / cap;
  if (rho >= 1) {
    s.answered_share = cap / rate;
    s.p99_ms = 500;
    s.first_half_p50_ms = 20;
    s.second_half_p50_ms = 200;  // the backlog grows
    return s;
  }
  s.answered_share = 1;
  s.p99_ms = base_ms * 4.6 / (1 - rho);  // exponential tail: p99 = 4.6 mean
  s.first_half_p50_ms = s.second_half_p50_ms = base_ms * 0.69 / (1 - rho);
  return s;
}

void step_search_curves() {
  for (double cap : {50'000.0, 180'000.0, 600'000.0}) {
    const double base = 0.1;
    // p99 <= 10 ms holds while base * 4.6 / (1 - rho) <= 10.
    const double limit = cap * (1 - base * 4.6 / 10);
    const SearchResult r =
        step_search([&](double rate) { return synthetic(rate, cap, base); }, 40'000, 1.5, 3,
                    1e6);
    const bool close = r.max_rate <= limit && r.max_rate >= limit * 0.85;
    check(close, "step search near the limit " + std::to_string(limit) + " (found " +
                     std::to_string(r.max_rate) + ")");
    check(r.steps.size() <= 12, "step search takes few steps");
  }
  // A server failing already at the start rate: the search goes down.
  const SearchResult low =
      step_search([](double rate) { return synthetic(rate, 25'000, 0.1); }, 40'000, 1.5, 3, 1e6);
  check(low.max_rate > 0 && low.max_rate < 25'000, "step search below a failing start");
  // Loss alone fails a step even when latency is fine.
  StepOutcome lossy = synthetic(10'000, 100'000, 0.1);
  lossy.answered_share = 0.998;
  check(!step_passes(lossy, {}), "0.2 % loss fails a step");
  StepOutcome growing = synthetic(10'000, 100'000, 0.1);
  growing.second_half_p50_ms = 3 * growing.first_half_p50_ms + 1;
  check(!step_passes(growing, {}), "a growing backlog fails a step");
}

void tally() {
  Tally t;
  for (int i = 0; i < 997; ++i) t.ok();
  for (int i = 0; i < 3; ++i) t.fail();
  check(t.consistent() && t.attempted == 1000, "answered + failed == attempted");
  check(t.fail_share() == 0.003, "fail_share = failed / attempted");
  Tally u;
  u.fail();
  t += u;
  check(t.consistent() && t.failed == 4 && t.attempted == 1001, "tallies add up");
}

void classify_answers() {
  const std::vector<std::uint8_t> q = encode_query(7, "a.example.com.");
  const std::size_t qlen = q.size() - 12 - 11;  // minus header and OPT
  const std::array<std::uint8_t, 4> ip = {10, 1, 2, 3};
  const auto response = [&](std::uint8_t rcode, std::vector<std::vector<std::uint8_t>> an,
                            std::vector<std::vector<std::uint8_t>> ns) {
    std::vector<std::uint8_t> r(q.begin(), q.begin() + 12 + static_cast<long>(qlen));
    r[2] = 0x84;
    r[3] = rcode;
    r[7] = static_cast<std::uint8_t>(an.size());
    r[9] = static_cast<std::uint8_t>(ns.size());
    r[11] = 0;
    for (auto* sec : {&an, &ns}) {
      for (const auto& rr : *sec) r.insert(r.end(), rr.begin(), rr.end());
    }
    return r;
  };
  const auto rr = [](std::uint16_t type, std::vector<std::uint8_t> rdata) {
    std::vector<std::uint8_t> w = {0xC0, 12, static_cast<std::uint8_t>(type >> 8),
                                   static_cast<std::uint8_t>(type), 0, 1, 0, 0, 1, 0,
                                   static_cast<std::uint8_t>(rdata.size() >> 8),
                                   static_cast<std::uint8_t>(rdata.size())};
    w.insert(w.end(), rdata.begin(), rdata.end());
    return w;
  };
  const auto sig_over = [&](std::uint16_t covered) {
    return rr(24, {static_cast<std::uint8_t>(covered >> 8), static_cast<std::uint8_t>(covered),
                   5, 2});
  };
  const std::uint8_t* qs = q.data() + 12;
  auto good = response(0, {rr(1, {10, 1, 2, 3}), sig_over(1)}, {});
  check(classify(good.data(), good.size(), qs, qlen, ip) == Verdict::kAnswer,
        "A + SIG(A) is an answer");
  auto unsigned_a = response(0, {rr(1, {10, 1, 2, 3})}, {});
  check(classify(unsigned_a.data(), unsigned_a.size(), qs, qlen, ip) == Verdict::kWrong,
        "A without SIG is wrong");
  auto other_ip = response(0, {rr(1, {10, 9, 9, 9}), sig_over(1)}, {});
  check(classify(other_ip.data(), other_ip.size(), qs, qlen, ip) == Verdict::kWrong,
        "A with another address is wrong");
  auto nx = response(3, {}, {rr(30, {0}), sig_over(30)});
  check(classify(nx.data(), nx.size(), qs, qlen, ip) == Verdict::kNxDomain,
        "NXDOMAIN + NXT + SIG is a denial");
  auto nxt_unsigned = response(3, {}, {rr(6, {0}), sig_over(6), rr(30, {0})});
  check(classify(nxt_unsigned.data(), nxt_unsigned.size(), qs, qlen, ip) == Verdict::kWrong,
        "NXDOMAIN + NXT + SIG(SOA) without SIG(NXT) is wrong");
  auto bare_nx = response(3, {}, {});
  check(classify(bare_nx.data(), bare_nx.size(), qs, qlen, ip) == Verdict::kWrong,
        "NXDOMAIN without NXT is wrong");
  auto other_q = good;
  other_q[13] ^= 0x20;
  check(classify(other_q.data(), other_q.size(), qs, qlen, ip) == Verdict::kWrong,
        "a different echoed question is wrong");
}

}  // namespace

int main() {
  percentile_rule();
  zipf_determinism();
  step_search_curves();
  tally();
  classify_answers();
  std::printf("%s\n", failures ? "SELF-TEST FAILED" : "all self-tests passed");
  return failures ? 1 : 0;
}
