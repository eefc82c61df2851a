// Transport plumbing shared by the daemon's server and its clients:
// endpoint parsing, socket setup for both families (TCP and AF_UNIX),
// hex payload encoding, and the exponential-backoff schedule every
// reconnect loop draws from.
//
// Everything here is deliberately tiny and dependency-free (BSD sockets
// only). The interesting protocol machinery lives next door: frame.h
// (length-framed NDJSON), handshake.h (shared-secret hello), server.h
// (the daemon side), client.h (retry/resume side).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/rng.h"

namespace gpustl::net {

/// A `host:port` pair, or an AF_UNIX socket when `path` is non-empty
/// (host and port are then ignored). Listening with port 0 binds an
/// ephemeral port.
struct Endpoint {
  // Every member has an initializer, so `{host, port}` and `{.path = p}`
  // stay warning-free under -Wmissing-field-initializers.
  std::string host = {};
  std::uint16_t port = 0;
  std::string path = {};
};

/// Parses `host:port` (numeric IPv4 or a resolvable name). Returns
/// nullopt with a diagnostic in `error` (nullable) on malformed input.
std::optional<Endpoint> ParseEndpoint(std::string_view text,
                                      std::string* error = nullptr);

/// Lowercase hex codec for binary payloads embedded in JSON frames (unit
/// files, store entries). Decode rejects odd lengths and non-hex bytes.
std::string HexEncode(std::string_view bytes);
std::optional<std::string> HexDecode(std::string_view hex);

/// Reconnect/backoff policy: attempt k (0-based) sleeps
/// `min(base_ms << k, max_ms)` scaled by a random factor in
/// [1-jitter, 1], so synchronized clients spread out instead of
/// thundering back in lockstep.
struct RetryPolicy {
  int attempts = 8;       // connect cycles before giving up
  int base_ms = 50;       // first-retry delay
  int max_ms = 2000;      // backoff cap
  double jitter = 0.5;    // fraction of the delay randomized away
};

/// The delay before retry `attempt` (0-based; attempt 0 = the delay after
/// the first failure). Deterministic in (policy, attempt, rng state).
int BackoffDelayMs(const RetryPolicy& policy, int attempt, Rng& rng);

/// Binds and listens on `endpoint`. Returns the listen fd, or -1 with a
/// diagnostic.
///
/// TCP: SO_REUSEADDR; `bound_port` (nullable) receives the actual port —
/// the way an ephemeral `:0` listener learns its address.
///
/// AF_UNIX: a path that does not fit `sun_path` fails ("too long"). A
/// socket file some live process still accepts on fails ("another daemon
/// is listening"); a stale one left by a crashed daemon (connect
/// refused) is unlinked and reclaimed.
int ListenTcp(const Endpoint& endpoint, std::string* error,
              std::uint16_t* bound_port = nullptr);

/// Accepts one connection on a ListenTcp fd. A TCP connection gets
/// TCP_NODELAY like the dial side: replies are small frames, and Nagle's
/// algorithm would hold each one back until the peer's delayed ACK
/// (~40 ms). Returns the connected fd, or -1 when accept fails.
int AcceptTcp(int listen_fd);

/// Connects with a bounded wait (TCP; an AF_UNIX connect does not
/// block). Returns the connected fd or -1 with a diagnostic. The fd is
/// left in blocking mode; Conn flips it.
int ConnectTcp(const Endpoint& endpoint, int timeout_ms, std::string* error);

}  // namespace gpustl::net
