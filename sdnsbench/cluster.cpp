#include "cluster.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/prctl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/resolver.hpp"

namespace sdnsbench {

namespace {

constexpr std::uint64_t kKeySeed = 1;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool port_free(std::uint16_t port, int type) {
  const int fd = ::socket(AF_INET, type | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

std::uint16_t free_port_block(std::uint64_t hint, unsigned span) {
  for (unsigned attempt = 0; attempt < 2000; ++attempt) {
    const auto base = static_cast<std::uint16_t>(
        20000 + ((hint + attempt) * 16) % 12000);
    bool ok = true;
    for (unsigned i = 0; i < span && ok; ++i) {
      ok = port_free(static_cast<std::uint16_t>(base + i), SOCK_STREAM) &&
           port_free(static_cast<std::uint16_t>(base + i), SOCK_DGRAM);
    }
    if (ok) return base;
  }
  throw std::runtime_error("no free port block");
}

namespace {

/// True once `addr` answers `name` A with NOERROR and a non-empty answer.
bool answers(const net::SockAddr& addr, const std::string& name) {
  net::StubResolver::Options ropt;
  ropt.servers = {addr};
  ropt.timeout = 0.05;
  ropt.attempts = 1;
  ropt.edns_payload = 4096;
  net::StubResolver probe(ropt);
  const auto r = probe.query(dns::Name::parse(name), dns::RRType::kA);
  return r.ok && r.response.rcode == dns::Rcode::kNoError && !r.response.answers.empty();
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

std::vector<unsigned> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<unsigned> out;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (unsigned c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  if (out.empty()) out.push_back(0);
  return out;
}

void pin_self(const std::vector<unsigned>& cpus) {
  static const std::vector<unsigned> usable = usable_cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned cpu : cpus) CPU_SET(usable[cpu % usable.size()], &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

Deployment::Deployment(const DeployOptions& options) : opt_(options), dir_(options.dir) {
  const double t0 = now_s();
  net::ClusterOptions copt;
  copt.n = 4;
  copt.t = 1;
  copt.key_bits = 1024;
  copt.require_tsig = true;
  copt.zone_text = opt_.zone_text;
  // One key for every run: the time the deal spends finding primes depends
  // on the key seed, and set-up should not vary with the workload seed.
  copt.seed = kKeySeed;
  copt.durable = true;
  const std::uint16_t base =
      free_port_block(opt_.seed * 7919 + static_cast<std::uint64_t>(::getpid()), 8);
  copt.dns_base_port = base;
  copt.mesh_base_port = static_cast<std::uint16_t>(base + 4);
  files_ = net::generate_cluster(dir_, copt);
  deal_s_ = now_s() - t0;
}

double Deployment::boot() {
  for (const std::string& d : files_.data_dirs) std::filesystem::remove_all(d);
  const double t0 = now_s();
  try {
    // Replica i on CPU i, so replicas 0-2 (the read targets) each have a
    // CPU of their own.
    for (std::size_t i = 0; i < files_.configs.size(); ++i) {
      spawn(opt_.bin_dir + "/sdnsd", files_.configs[i], {static_cast<unsigned>(i)});
    }
    const auto wait_for = [&](const net::SockAddr& addr, const char* what) {
      const double deadline = now_s() + 60;
      while (!answers(addr, opt_.probe_name)) {
        if (now_s() > deadline) {
          throw std::runtime_error(std::string(what) + " at " + addr.to_string() +
                                   " never answered");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    };
    for (const net::SockAddr& addr : files_.dns_addrs) wait_for(addr, "replica");
  } catch (...) {
    stop();
    throw;
  }
  const double up = now_s();
  std::fprintf(stderr, "boot %.3f s (deal %.3f s)\n", up - t0, deal_s_);
  return up - t0;
}

Deployment::~Deployment() { stop(); }

void Deployment::spawn(const std::string& binary, const std::string& config,
                       const std::vector<unsigned>& cpus) {
  const std::string log = config + ".log";
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // A benchmark that dies must not leave servers behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    pin_self(cpus);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    ::execl(binary.c_str(), binary.c_str(), config.c_str(), "--log", "warn",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  pids_.push_back(pid);
}

void Deployment::stop() {
  stopped_rss_mib_ = max_rss_mib();
  for (pid_t pid : pids_) ::kill(pid, SIGTERM);
  const double deadline = now_s() + 5;
  for (pid_t pid : pids_) {
    while (::waitpid(pid, nullptr, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  pids_.clear();
}

double Deployment::max_rss_mib() const {
  double best = stopped_rss_mib_;
  for (pid_t pid : pids_) {
    std::istringstream in(read_text("/proc/" + std::to_string(pid) + "/status"));
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        best = std::max(best, std::stod(line.substr(6)) / 1024.0);
      }
    }
  }
  return best;
}

double Deployment::replica_cpu_seconds() const {
  double total = 0;
  const long ticks = ::sysconf(_SC_CLK_TCK);
  for (pid_t pid : pids_) {
    const std::string stat = read_text("/proc/" + std::to_string(pid) + "/stat");
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream in(stat.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    // Fields after the command: state is field 3; utime and stime are 14, 15.
    for (int f = 3; f <= 15 && in >> field; ++f) {
      if (f == 14) utime = std::stod(field);
      if (f == 15) stime = std::stod(field);
    }
    total += (utime + stime) / static_cast<double>(ticks);
  }
  return total;
}

std::map<std::string, std::string> scrape(const net::SockAddr& addr) {
  std::map<std::string, std::string> out;
  net::StubResolver::Options ropt;
  ropt.servers = {addr};
  ropt.timeout = 1.0;
  ropt.attempts = 3;
  ropt.edns_payload = 4096;
  net::StubResolver scraper(ropt);
  const auto r = scraper.query(dns::Name::parse("stats.sdns."), dns::RRType::kTXT,
                               dns::RRClass::kCH);
  if (!r.ok) return out;
  for (const dns::ResourceRecord& rr : r.response.answers) {
    if (rr.type != dns::RRType::kTXT || rr.rdata.empty()) continue;
    const std::size_t len = rr.rdata[0];
    if (1 + len > rr.rdata.size()) continue;
    const std::string txt(rr.rdata.begin() + 1,
                          rr.rdata.begin() + 1 + static_cast<std::ptrdiff_t>(len));
    const auto eq = txt.find('=');
    if (eq != std::string::npos) out[txt.substr(0, eq)] = txt.substr(eq + 1);
  }
  return out;
}

double counter(const std::map<std::string, std::string>& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

}  // namespace sdnsbench
