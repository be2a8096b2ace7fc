// Everything the benchmark feeds the program, derived from the seed alone:
// the zone's owner names and addresses, the Zipf popularity order, the
// junk names of the read mix and the update sequence.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace sdnsbench {

using Ip = std::array<std::uint8_t, 4>;

inline constexpr const char* kOrigin = "example.com.";
inline constexpr std::size_t kOwners = 1000;

struct ZoneInputs {
  std::string tag;  ///< short seed-derived label fragment
  std::vector<std::string> owners;  ///< absolute names
  std::vector<Ip> ips;
  std::vector<std::uint32_t> by_rank;  ///< Zipf rank -> owner index
  std::string zone_text;               ///< master-file text for the dealer
};

ZoneInputs make_zone(std::uint64_t seed);

/// The read mix: 90 % A queries for owners drawn Zipf(s = 1), 10 % A
/// queries for unique nonexistent names.
class ReadMix {
 public:
  struct Read {
    bool junk = false;
    std::uint32_t owner = 0;  ///< valid when !junk
    std::string name;
  };
  ReadMix(const ZoneInputs& zone, std::uint64_t seed);
  Read next();

 private:
  const ZoneInputs& zone_;
  Zipf zipf_;
  SeededRng rng_;
  std::uint64_t junk_count_ = 0;
};

/// The update sequence: adds of fresh owners alternating, after the first
/// `kDeleteLag` adds, with deletes of an owner added at least `kDeleteLag`
/// adds earlier, so the zone stays near its seeded size.
class UpdateSeq {
 public:
  static constexpr std::size_t kDeleteLag = 64;
  struct Step {
    bool add = true;
    std::uint32_t target = 0;  ///< index of the added owner
  };
  explicit UpdateSeq(std::uint64_t seed);
  Step next();
  const std::string& name(std::uint32_t target) const { return names_[target]; }
  const Ip& ip(std::uint32_t target) const { return ips_[target]; }

 private:
  SeededRng rng_;
  std::string tag_;
  std::vector<std::string> names_;
  std::vector<Ip> ips_;
  std::vector<std::uint32_t> pool_;  ///< added, old enough, not yet deleted
  std::size_t steps_ = 0;
};

}  // namespace sdnsbench
