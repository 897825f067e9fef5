// The daemon under test as a child process, a minimal keep-alive HTTP/1.1
// client for it, and the /proc readers the end-to-end metrics come from.
// The client is the benchmark's own, not the program's net::HttpClient,
// so a change to the program's client code cannot move the measurement.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

class Connection {
 public:
  explicit Connection(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one complete request and reads one response. Returns the HTTP
  /// status, or -1 when no complete response arrived (the connection is
  /// then reopened on the next call).
  int exchange(const std::string& raw, std::string* body);

 private:
  bool open();
  void close_fd();

  int port_;
  int fd_ = -1;
  std::string buf_;
};

/// One-shot GET on a fresh connection; -1 on transport failure.
int http_get(int port, const std::string& target, std::string* body);

class Daemon {
 public:
  /// Spawns `exe` on a free loopback port with the benchmark's thread
  /// budget, stdout/stderr appended to `log_path`, and returns once
  /// /v1/health answers 200. Throws std::runtime_error on failure.
  Daemon(const std::string& exe, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// utime + stime of the whole process so far, in seconds.
  double cpu_seconds() const;
  /// VmHWM, in MiB.
  double peak_rss_mb() const;
  /// SIGTERM, then wait for exit (SIGKILL after a grace period). Returns
  /// true when the daemon exited 0 on its own.
  bool stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Host-wide CPU tick counters from /proc/stat ("cpu" line).
struct HostTicks {
  std::uint64_t iowait = 0;
  std::uint64_t steal = 0;
};
HostTicks read_host_ticks();
std::string read_loadavg();

/// Reads `"key": <number>` from a flat-keyed JSON text (the first match);
/// returns -1 when the key is absent.
double json_number(const std::string& json, const std::string& key);

/// Sum of every Prometheus sample of `family` whose label set contains
/// every string in `label_parts` (e.g. {"kernel=\"Rat22\""}).
double prom_sum(const std::string& text, const std::string& family,
                const std::string& label_part1,
                const std::string& label_part2 = "");

}  // namespace perfbench
