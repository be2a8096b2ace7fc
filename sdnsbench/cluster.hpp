// Deploying the system under test: deal a (4,1) cluster with the paper's
// 1024-bit threshold key over the seeded zone, start four durable replicas
// (sdnsd) as separate pinned processes, and see them only from outside: DNS
// answers, the `stats.sdns. CH TXT` scrape, and /proc.
#pragma once

#include <sys/types.h>

#include <map>
#include <string>
#include <vector>

#include "net/cluster.hpp"

namespace sdnsbench {

namespace net = sdns::net;
namespace dns = sdns::dns;
namespace util = sdns::util;

/// CPU of the driver and of replica 3, which takes no reads.
inline constexpr unsigned kDriverCpu = 3;

struct DeployOptions {
  std::string dir;      ///< fresh directory for keys, configs and data
  std::string bin_dir;  ///< where sdnsd was built
  std::string zone_text;
  std::string probe_name;  ///< an owner every server must answer for
  std::uint64_t seed = 1;  ///< spreads the port choice of concurrent runs
};

/// A dealt cluster and, between boot() and stop(), its running processes.
/// Destruction stops every process and waits for it.
class Deployment {
 public:
  /// Deal the keys and sign the zone into `options.dir`.
  explicit Deployment(const DeployOptions& options);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const net::ClusterFiles& files() const { return files_; }
  const std::string& dir() const { return dir_; }
  /// Seconds the deal took.
  double deal_seconds() const { return deal_s_; }
  /// Start every replica on empty data directories and wait until each
  /// answers `probe_name` correctly. Returns the seconds that took.
  /// Throws on any failure (after stopping what it started).
  double boot();

  /// Peak resident set (VmHWM) of the largest replica, MiB, over every boot.
  double max_rss_mib() const;
  /// User + system CPU seconds of the replicas so far.
  double replica_cpu_seconds() const;
  /// Stop every process (idempotent).
  void stop();

 private:
  void spawn(const std::string& binary, const std::string& config,
             const std::vector<unsigned>& cpus);

  DeployOptions opt_;
  std::string dir_;
  net::ClusterFiles files_;
  std::vector<pid_t> pids_;
  double deal_s_ = 0;
  double stopped_rss_mib_ = 0;  ///< largest VmHWM of the stopped boots
};

/// One server's counters over `stats.sdns. CH TXT`; empty if unreachable.
std::map<std::string, std::string> scrape(const net::SockAddr& addr);
/// Numeric value of `key` in a scrape (0 when absent).
double counter(const std::map<std::string, std::string>& c, const std::string& key);

/// First base port B below the ephemeral range such that B..B+span-1 are
/// free for both UDP and TCP on loopback. `hint` spreads concurrent callers.
std::uint16_t free_port_block(std::uint64_t hint, unsigned span);

/// CPUs this process may run on, in order.
std::vector<unsigned> usable_cpus();
/// Pin the calling thread (or process, before threads exist) to `cpus`,
/// each taken modulo usable_cpus().
void pin_self(const std::vector<unsigned>& cpus);

}  // namespace sdnsbench
