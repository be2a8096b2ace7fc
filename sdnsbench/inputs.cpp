#include "inputs.hpp"

#include <numeric>

namespace sdnsbench {

namespace {

constexpr std::uint64_t kZoneStream = 1, kReadStream = 2, kUpdateStream = 3;

std::string seed_tag(std::uint64_t seed) {
  static const char* digits = "abcdefghijklmnopqrstuvwxyz0123456789";
  SeededRng rng(seed, 0);
  std::string tag;
  for (int i = 0; i < 4; ++i) tag += digits[rng.below(36)];
  return tag;
}

Ip random_ip(SeededRng& rng, std::uint8_t first) {
  return {first, static_cast<std::uint8_t>(rng.below(256)),
          static_cast<std::uint8_t>(rng.below(256)),
          static_cast<std::uint8_t>(1 + rng.below(254))};
}

std::string ip_text(const Ip& ip) {
  return std::to_string(ip[0]) + "." + std::to_string(ip[1]) + "." +
         std::to_string(ip[2]) + "." + std::to_string(ip[3]);
}

}  // namespace

ZoneInputs make_zone(std::uint64_t seed) {
  ZoneInputs z;
  z.tag = seed_tag(seed);
  SeededRng rng(seed, kZoneStream);
  z.zone_text =
      "@ 3600 IN SOA ns1.example.com. admin.example.com. 1 7200 3600 1209600 3600\n"
      "@ 3600 IN NS ns1.example.com.\n"
      "ns1 3600 IN A 10.0.0.1\n";
  for (std::size_t i = 0; i < kOwners; ++i) {
    const std::string label = "h" + z.tag + "-" + std::to_string(i);
    z.owners.push_back(label + "." + kOrigin);
    z.ips.push_back(random_ip(rng, 10));
    z.zone_text += label + " 300 IN A " + ip_text(z.ips.back()) + "\n";
  }
  z.by_rank.resize(kOwners);
  std::iota(z.by_rank.begin(), z.by_rank.end(), 0u);
  for (std::size_t i = kOwners - 1; i > 0; --i) {
    std::swap(z.by_rank[i], z.by_rank[rng.below(i + 1)]);
  }
  return z;
}

ReadMix::ReadMix(const ZoneInputs& zone, std::uint64_t seed)
    : zone_(zone), zipf_(zone.owners.size(), 1.0), rng_(seed, kReadStream) {}

ReadMix::Read ReadMix::next() {
  Read r;
  if (rng_.unit() < 0.10) {
    r.junk = true;
    r.name = "x" + zone_.tag + "-" + std::to_string(junk_count_++) + "-" +
             std::to_string(rng_.below(1'000'000)) + "." + kOrigin;
  } else {
    r.owner = zone_.by_rank[zipf_.draw(rng_)];
    r.name = zone_.owners[r.owner];
  }
  return r;
}

UpdateSeq::UpdateSeq(std::uint64_t seed)
    : rng_(seed, kUpdateStream), tag_(seed_tag(seed)) {}

UpdateSeq::Step UpdateSeq::next() {
  const std::size_t step = steps_++;
  // The first kDeleteLag steps add; then odd steps delete.
  if (step >= kDeleteLag && (step - kDeleteLag) % 2 == 1) {
    const std::size_t pick = rng_.below(pool_.size());
    const std::uint32_t target = pool_[pick];
    pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(pick));
    return {false, target};
  }
  const auto target = static_cast<std::uint32_t>(names_.size());
  names_.push_back("u" + tag_ + "-" + std::to_string(target) + "." + kOrigin);
  ips_.push_back(random_ip(rng_, 172));
  if (names_.size() > kDeleteLag) {
    pool_.push_back(static_cast<std::uint32_t>(names_.size() - 1 - kDeleteLag));
  }
  return {true, target};
}

}  // namespace sdnsbench
