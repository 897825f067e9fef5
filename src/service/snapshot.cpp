#include "service/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/hash.hpp"
#include "core/prediction_io.hpp"
#include "core/text_parse.hpp"
#include "fault/checked_io.hpp"

namespace estima::service {
namespace {

constexpr int kFormatVersion = 1;

// Ceiling on one frame's payload. Real payloads are a few KB; a corrupted
// length field must not turn into a gigabyte read-to-EOF.
constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 26;

std::uint64_t entry_crc(std::uint64_t key, const std::string& payload) {
  // The key is folded into the checksum so a flipped key bit cannot
  // re-home an intact payload under a different campaign.
  core::Fnv1a h;
  h.u64(key);
  h.bytes(payload.data(), payload.size());
  return h.value();
}

using core::textparse::strip_cr;

std::string os_error(int err) {
  return std::string(std::strerror(err)) + " (errno " + std::to_string(err) +
         ")";
}

// Writes the whole buffer through the "snapshot.write" fault site,
// resuming after genuine short writes (a full disk typically delivers a
// short count before the -1/ENOSPC). Returns 0 on success, the failing
// errno otherwise; a zero-progress write reports ENOSPC rather than
// spinning.
int write_fully(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = fault::checked_write("snapshot.write", fd,
                                           data.data() + off,
                                           data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (n == 0) return ENOSPC;
    off += static_cast<std::size_t>(n);
  }
  return 0;
}

}  // namespace

SnapshotWriteReport save_snapshot(const std::string& path,
                                  std::uint64_t config_signature,
                                  const std::vector<SnapshotEntry>& entries) {
  // Unique temp name across threads (counter) AND processes (pid):
  // concurrent writers of the same path each stage their own file, and
  // whichever rename lands last wins atomically.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));

  // Serialise everything first: the file content is pure function of the
  // entries, and a single buffer keeps the failure surface to three
  // syscall sites (open / write / rename), each individually injectable.
  std::string content;
  {
    // The header carries its own checksum: version, signature and entry
    // count steer whole-file decisions, so a flipped header byte must
    // reject the file, not silently skew restore accounting.
    char header[128];
    std::snprintf(header, sizeof header,
                  "#estima-snapshot v=%d config_signature=%016" PRIx64
                  " entries=%zu",
                  kFormatVersion, config_signature, entries.size());
    core::Fnv1a hh;
    hh.bytes(header, std::strlen(header));
    char hcrc[32];
    std::snprintf(hcrc, sizeof hcrc, " hcrc=%016" PRIx64 "\n", hh.value());
    content += header;
    content += hcrc;

    for (const auto& e : entries) {
      const std::string payload = core::render_prediction(*e.prediction);

      char frame[128];
      std::snprintf(frame, sizeof frame,
                    "#entry key=%016" PRIx64 " len=%zu crc=%016" PRIx64 "\n",
                    e.key, payload.size(), entry_crc(e.key, payload));
      content += frame;
      // The record's trailing newline doubles as the frame separator.
      content += payload;
    }
    content += "#end\n";
  }

  const int fd = fault::checked_open("snapshot.open", tmp.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    const int err = errno;
    throw SnapshotIoError("snapshot: cannot create " + tmp + ": " +
                          os_error(err));
  }
  if (const int err = write_fully(fd, content)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw SnapshotIoError("snapshot: write failed for " + tmp + ": " +
                          os_error(err));
  }
  if (::close(fd) != 0) {
    // Deferred write errors (NFS, some filesystems on ENOSPC) surface at
    // close; an incompletely persisted temp must not be renamed live.
    const int err = errno;
    ::unlink(tmp.c_str());
    throw SnapshotIoError("snapshot: close failed for " + tmp + ": " +
                          os_error(err));
  }
  if (fault::checked_rename("snapshot.rename", tmp.c_str(), path.c_str()) !=
      0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw SnapshotIoError("snapshot: cannot rename into " + path + ": " +
                          os_error(err));
  }

  SnapshotWriteReport report;
  report.path = path;
  report.entries_written = entries.size();
  report.config_signature = config_signature;
  return report;
}

SnapshotLoadReport load_snapshot(
    const std::string& path,
    std::optional<std::uint64_t> expected_config_signature) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("snapshot: cannot open " + path);

  SnapshotLoadReport report;
  std::string line;

  if (!std::getline(is, line)) {
    throw std::runtime_error("snapshot: empty file " + path);
  }
  strip_cr(line);
  {
    int version = 0;
    std::uint64_t sig = 0, hcrc = 0;
    std::size_t declared = 0;
    int consumed = 0;
    // %n pins the grammar end-to-end: an unknown extra header token —
    // before hcrc (the literal match fails) or after it (consumed !=
    // line.size()) — rejects the file. A future writer extending the
    // header must bump v= rather than rely on this reader ignoring tails.
    if (std::sscanf(line.c_str(),
                    "#estima-snapshot v=%d config_signature=%16" SCNx64
                    " entries=%zu hcrc=%16" SCNx64 "%n",
                    &version, &sig, &declared, &hcrc, &consumed) != 4 ||
        static_cast<std::size_t>(consumed) != line.size()) {
      throw std::runtime_error("snapshot: not an estima snapshot: " + path);
    }
    // Verify the header's self-checksum (over everything before " hcrc=")
    // before trusting version, signature or the declared entry count.
    const auto hcrc_at = line.rfind(" hcrc=");
    if (hcrc_at == std::string::npos) {
      throw std::runtime_error("snapshot: header checksum missing: " + path);
    }
    core::Fnv1a hh;
    hh.bytes(line.data(), hcrc_at);
    if (hh.value() != hcrc) {
      throw std::runtime_error("snapshot: header checksum mismatch: " + path);
    }
    if (version != kFormatVersion) {
      throw std::runtime_error("snapshot: unsupported format version " +
                               std::to_string(version) + " in " + path);
    }
    if (expected_config_signature && sig != *expected_config_signature) {
      throw std::runtime_error(
          "snapshot: config signature mismatch (snapshot was written by a "
          "service with a different prediction config): " + path);
    }
    report.config_signature = sig;
    report.entries_declared = declared;
  }

  // Frame loop with resync: write_prediction payload lines never start
  // with '#', so after a damaged frame the next line beginning "#entry "
  // (or "#end") is a trustworthy boundary.
  bool saw_end = false;
  std::size_t frames_seen = 0;
  while (std::getline(is, line)) {
    strip_cr(line);
    if (line == "#end") {
      saw_end = true;
      break;
    }
    if (line.rfind("#entry ", 0) != 0) continue;  // resync scan

    const std::size_t frame_index = frames_seen++;
    std::uint64_t key = 0, crc = 0;
    std::size_t len = 0;
    if (std::sscanf(line.c_str(),
                    "#entry key=%16" SCNx64 " len=%zu crc=%16" SCNx64, &key,
                    &len, &crc) != 3) {
      report.skipped.push_back({frame_index, "malformed entry header"});
      continue;
    }
    if (len > kMaxPayloadBytes) {
      report.skipped.push_back({frame_index, "implausible payload length"});
      continue;
    }
    std::string payload(len, '\0');
    is.read(payload.empty() ? nullptr : &payload[0],
            static_cast<std::streamsize>(len));
    if (static_cast<std::size_t>(is.gcount()) != len) {
      report.skipped.push_back({frame_index, "truncated payload"});
      report.truncated = true;
      break;
    }
    if (entry_crc(key, payload) != crc) {
      report.skipped.push_back({frame_index, "checksum mismatch"});
      continue;
    }
    try {
      std::istringstream payload_is(payload);
      auto pred = std::make_shared<const core::Prediction>(
          core::read_prediction(payload_is));
      report.entries.push_back({key, std::move(pred)});
    } catch (const std::exception& e) {
      // The checksum passed but the content failed validation — a writer
      // bug or an unlucky collision; either way skip, never crash.
      report.skipped.push_back(
          {frame_index, std::string("payload rejected: ") + e.what()});
    }
  }

  if (!saw_end || frames_seen < report.entries_declared) {
    report.truncated = true;
  }
  return report;
}

}  // namespace estima::service
