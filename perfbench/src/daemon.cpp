#include "daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "inputs.hpp"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = 0;
  socklen_t len = sizeof a;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot pick a free port");
  }
  ::close(fd);
  return ntohs(a.sin_port);
}

bool send_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

}  // namespace

Connection::Connection(int port) : port_(port) { open(); }

Connection::~Connection() { close_fd(); }

bool Connection::open() {
  close_fd();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
    close_fd();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return true;
}

void Connection::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

int Connection::exchange(const std::string& raw, std::string* body) {
  if (fd_ < 0 && !open()) return -1;
  if (!send_all(fd_, raw.data(), raw.size())) {
    close_fd();
    return -1;
  }
  std::size_t header_end = std::string::npos;
  std::size_t content_length = 0;
  int status = -1;
  bool keep_alive = true;
  char chunk[16384];
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = buf_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::string head = lower(buf_.substr(0, header_end));
        if (head.compare(0, 7, "http/1.") != 0 || head.size() < 12) {
          close_fd();
          return -1;
        }
        status = std::atoi(head.c_str() + 9);
        const std::size_t cl = head.find("\r\ncontent-length:");
        if (cl == std::string::npos) {
          close_fd();
          return -1;
        }
        content_length = std::strtoull(head.c_str() + cl + 17, nullptr, 10);
        keep_alive = head.find("\r\nconnection: close") == std::string::npos;
      }
    }
    if (header_end != std::string::npos &&
        buf_.size() >= header_end + 4 + content_length) {
      if (body != nullptr) body->assign(buf_, header_end + 4, content_length);
      buf_.erase(0, header_end + 4 + content_length);
      if (!keep_alive) close_fd();
      return status;
    }
    const ssize_t r = ::recv(fd_, chunk, sizeof chunk, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      close_fd();
      return -1;
    }
    buf_.append(chunk, static_cast<std::size_t>(r));
  }
}

int http_get(int port, const std::string& target, std::string* body) {
  Connection c(port);
  return c.exchange(
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Length: 0\r\n\r\n",
      body);
}

Daemon::Daemon(const std::string& exe, const std::string& log_path) {
  // A free port can be taken between probing and the daemon's bind; a
  // daemon that exits early is respawned on a new port.
  for (int attempt = 0; attempt < 5; ++attempt) {
    port_ = free_port();
    std::vector<std::string> args = {
        exe,
        "--port=" + std::to_string(port_),
        "--threads=" + std::to_string(kPredictionThreads),
        "--http-threads=2",
        "--io-threads=1",
        "--slow-trace-ms=-1"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    const int rc =
        posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + exe + ": " +
                               std::strerror(rc));
    }
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    bool exited = false;
    while (Clock::now() < deadline) {
      int st = 0;
      if (::waitpid(pid_, &st, WNOHANG) == pid_) {
        exited = true;
        pid_ = -1;
        break;
      }
      std::string body;
      if (http_get(port_, "/v1/health", &body) == 200) return;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (!exited) {
      stop();
      throw std::runtime_error("daemon never became healthy");
    }
  }
  throw std::runtime_error("daemon exited at start-up five times (see " +
                           log_path + ")");
}

Daemon::~Daemon() { stop(); }

bool Daemon::stop() {
  if (pid_ < 0) return false;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  int st = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &st, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) break;
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &st, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(st) && WEXITSTATUS(st) == 0;
}

double Daemon::cpu_seconds() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(f, line);
  // Fields after the parenthesised command name: state is field 3,
  // utime field 14, stime field 15.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream is(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (is >> field); ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

HostTicks read_host_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  f >> cpu;
  for (auto& x : v) f >> x;
  // user nice system idle iowait irq softirq steal
  HostTicks t;
  t.iowait = v[4];
  t.steal = v[7];
  return t;
}

std::string read_loadavg() {
  std::ifstream f("/proc/loadavg");
  std::string a, b, c;
  f >> a >> b >> c;
  return a + " " + b + " " + c;
}

double json_number(const std::string& json, const std::string& key) {
  const std::string k = "\"" + key + "\":";
  const std::size_t p = json.find(k);
  if (p == std::string::npos) return -1;
  return std::strtod(json.c_str() + p + k.size(), nullptr);
}

double prom_sum(const std::string& text, const std::string& family,
                const std::string& label_part1,
                const std::string& label_part2) {
  double sum = 0;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.compare(0, family.size() + 1, family + "{") != 0) continue;
    const std::size_t close = line.find('}');
    if (close == std::string::npos) continue;
    const std::string labels = line.substr(family.size(), close);
    if (labels.find(label_part1) == std::string::npos) continue;
    if (!label_part2.empty() &&
        labels.find(label_part2) == std::string::npos) {
      continue;
    }
    sum += std::strtod(line.c_str() + close + 1, nullptr);
  }
  return sum;
}

}  // namespace perfbench
