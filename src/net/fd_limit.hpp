// Process file-descriptor headroom for the serving edge and the programs
// that load it: the daemon (one fd per admitted connection), the network
// bench and the net tests (both ends of every loopback connection live in
// one process, so an idle horde needs ~2 fds per connection). Default
// soft limits are often 1024.
#pragma once

#include <sys/resource.h>

#include <algorithm>

namespace estima::net {

/// Best-effort: raises the RLIMIT_NOFILE soft limit toward `want`, capped
/// by the hard limit. Never lowers it.
inline void raise_fd_limit(rlim_t want) {
  struct rlimit rl;
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  if (rl.rlim_cur >= want) return;
  rl.rlim_cur = rl.rlim_max == RLIM_INFINITY
                    ? want
                    : std::min<rlim_t>(want, rl.rlim_max);
  ::setrlimit(RLIMIT_NOFILE, &rl);
}

}  // namespace estima::net
