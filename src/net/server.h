// Server: gpustld's one listener, for local and off-box peers alike.
//
// Listens on any mix of TCP and AF_UNIX endpoints (net/net.h) and serves
// every connection the same way: the framed transport (net/frame.h),
// then the handshake (net/handshake.h), then one of two peer roles:
//
//   clients  the gpustld op surface (ping/status/shutdown/submit), with
//            submit made idempotent and resumable by the JobLedger —
//            every submit must carry a client-generated `client_job` id
//            and may carry `after_seq` to resume its event stream.
//   workers  the distrib claim protocol brokered as RPCs
//            (fetch/renew/publish/done/release — net/broker.h).
//
// A TCP connection must prove the shared secret. An AF_UNIX connection
// handshakes with the empty secret (any proof passes): the socket file's
// permissions are its access control.
//
// Threading: one accept loop polling every listen socket and a
// self-pipe, one thread per connection. The loop joins and releases
// finished connections (closing their descriptors) as it accepts new
// ones, so a long-lived daemon holds descriptors and thread stacks for
// its open connections, not for every connection it ever served. Event
// writes happen on service worker threads under a per-connection mutex
// with a bounded deadline — a peer that stops draining (chaos
// `slow-peer`) is disconnected, and its job's events keep accumulating
// in the ledger for the reconnect.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/broker.h"
#include "net/frame.h"
#include "net/ledger.h"
#include "net/net.h"
#include "service/service.h"

namespace gpustl::net {

struct ServerOptions {
  /// Where to listen: TCP `host:port` and/or AF_UNIX `path` endpoints.
  std::vector<Endpoint> endpoints;
  /// Shared handshake secret for TCP peers; empty accepts any peer.
  std::string secret;
  /// Handshake must finish within this budget.
  int handshake_deadline_ms = 10000;
  /// Per-frame write budget for events and replies (slow-peer bound).
  int write_deadline_ms = 30000;
  /// Worker-connection read slice: lease sweeps run at this cadence.
  int worker_slice_ms = 1000;
  FrameLimits limits;
};

class Server {
 public:
  /// `broker` may be disabled (no distrib dir) — worker connections are
  /// then refused with an error frame.
  Server(service::CampaignService& service, WorkBroker broker,
         ServerOptions options);
  /// Closes the listeners and unlinks the socket files this server bound.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on every endpoint. False (with a diagnostic) on
  /// the first failure — an over-long socket path, a socket file another
  /// daemon still serves, a TCP port in use, ... — after closing (and
  /// unlinking) whatever it had bound.
  bool Start(std::string* error);

  /// Accept loop; blocks until RequestStop or a `shutdown` op.
  void Serve();

  /// Async-signal-safe stop (a single write to the self-pipe).
  void RequestStop();

  /// After Serve returns and the service is drained: wakes blocked
  /// connection readers and joins their threads.
  void JoinConnections();

  /// The first TCP listener's actual port (resolves `:0` ephemeral
  /// binds); 0 when there is none.
  std::uint16_t bound_port() const;

  /// Ledger introspection for tests.
  JobLedger& ledger() { return ledger_; }

 private:
  struct Connection;
  struct Listener {
    Endpoint endpoint;
    int fd = -1;
    std::uint16_t port = 0;
  };
  /// Closes every listen socket and unlinks the socket files.
  void CloseListeners();
  void HandleConnection(const std::shared_ptr<Connection>& conn,
                        const std::string& secret);
  void ServeClient(const std::shared_ptr<Connection>& conn);
  void ServeWorker(const std::shared_ptr<Connection>& conn);

  service::CampaignService& service_;
  WorkBroker broker_;
  ServerOptions options_;
  JobLedger ledger_;

  std::vector<Listener> listeners_;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};

  struct ConnThread {
    std::shared_ptr<Connection> conn;
    std::thread thread;
  };
  std::mutex conns_mu_;
  std::vector<ConnThread> conns_;  // guarded by conns_mu_
};

}  // namespace gpustl::net
