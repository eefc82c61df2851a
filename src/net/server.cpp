#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/error.h"
#include "net/handshake.h"
#include "service/protocol.h"

namespace gpustl::net {

using service::Json;

namespace {

/// The handshake secret of AF_UNIX connections: any proof passes.
const std::string kNoSecret;

}  // namespace

struct Server::Connection {
  explicit Connection(int fd, FrameLimits limits) : conn(fd, limits) {}

  Conn conn;
  std::mutex write_mu;
  bool broken = false;  // a write failed; drop further sends (write_mu)

  // Ledger attachments made by this connection's reader thread (reader
  // thread only; detached when the connection ends).
  std::vector<std::pair<std::string, std::uint64_t>> attachments;

  // Set by the reader thread as its last act: the accept loop may join it.
  std::atomic<bool> finished{false};

  /// Serialized, deadline-bounded frame write. Returns false once the
  /// connection is broken; never detaches from the ledger here (the
  /// reader thread owns that) — events simply stop being delivered and
  /// keep accumulating in the ledger.
  bool WriteDoc(const Json& doc, int deadline_ms,
                std::string_view chaos_tag) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (broken || conn.closed()) return false;
    if (conn.WriteJson(doc, deadline_ms, chaos_tag) != IoStatus::kOk) {
      broken = true;
      return false;
    }
    return true;
  }
};

Server::Server(service::CampaignService& service, WorkBroker broker,
               ServerOptions options)
    : service_(service),
      broker_(std::move(broker)),
      options_(std::move(options)) {}

Server::~Server() {
  CloseListeners();
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

void Server::CloseListeners() {
  for (const Listener& listener : listeners_) {
    ::close(listener.fd);
    if (!listener.endpoint.path.empty()) {
      ::unlink(listener.endpoint.path.c_str());
    }
  }
  listeners_.clear();
}

bool Server::Start(std::string* error) {
  if (::pipe(stop_pipe_) != 0) {
    if (error) *error = "pipe failed";
    return false;
  }
  for (const Endpoint& endpoint : options_.endpoints) {
    Listener listener{endpoint};
    listener.fd = ListenTcp(endpoint, error, &listener.port);
    if (listener.fd < 0) {
      // All or nothing: a daemon that exits on this error (without
      // unwinding) must not leave a socket file it bound behind.
      CloseListeners();
      return false;
    }
    listeners_.push_back(std::move(listener));
  }
  return true;
}

std::uint16_t Server::bound_port() const {
  for (const Listener& listener : listeners_) {
    if (listener.endpoint.path.empty()) return listener.port;
  }
  return 0;
}

void Server::RequestStop() {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
}

void Server::Serve() {
  std::vector<pollfd> fds;
  for (const Listener& listener : listeners_) {
    fds.push_back({listener.fd, POLLIN, 0});
  }
  fds.push_back({stop_pipe_[0], POLLIN, 0});
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds.back().revents != 0) {
      stopping_.store(true, std::memory_order_relaxed);
      break;
    }
    for (std::size_t i = 0; i < listeners_.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int fd = AcceptTcp(listeners_[i].fd);
      if (fd < 0) continue;
      // Local peers are gated by the socket file's permissions instead.
      const std::string& secret =
          listeners_[i].endpoint.path.empty() ? options_.secret : kNoSecret;
      auto conn = std::make_shared<Connection>(fd, options_.limits);
      std::lock_guard<std::mutex> lock(conns_mu_);
      // Release finished connections. Their threads are past their last
      // statement, so the join is immediate, and each Conn (with its fd)
      // dies with its last reference — a job event sink holds one only
      // while the connection is attached.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->conn->finished.load(std::memory_order_acquire)) {
          it->thread.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      conns_.push_back({conn, std::thread([this, conn, &secret] {
                          HandleConnection(conn, secret);
                        })});
    }
  }
}

void Server::JoinConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (ConnThread& ct : conns_) ct.conn->conn.Shutdown();
  for (ConnThread& ct : conns_) ct.thread.join();
  conns_.clear();
}

void Server::HandleConnection(const std::shared_ptr<Connection>& conn,
                              const std::string& secret) {
  const HandshakeResult hs =
      ServerHandshake(conn->conn, secret, options_.handshake_deadline_ms);
  if (!hs.ok) return;
  if (hs.role == "worker") {
    ServeWorker(conn);
  } else {
    ServeClient(conn);
  }
  for (const auto& [client_job, attach_id] : conn->attachments) {
    ledger_.Detach(client_job, attach_id);
  }
  conn->finished.store(true, std::memory_order_release);
}

void Server::ServeClient(const std::shared_ptr<Connection>& conn) {
  while (!conn->conn.closed()) {
    Json request;
    // Infinite read: a client parked between requests waiting for job
    // events is normal. JoinConnections wakes us via Shutdown.
    const IoStatus status = conn->conn.ReadJson(&request, -1, "request");
    if (status != IoStatus::kOk) break;

    const std::string op = service::RequestOp(request);
    if (op == "ping") {
      conn->WriteDoc(service::EventPong(), options_.write_deadline_ms,
                     "reply");
    } else if (op == "status") {
      conn->WriteDoc(service_.Status(), options_.write_deadline_ms,
                     "reply");
    } else if (op == "shutdown") {
      Json ok = Json::Object();
      ok.Set("event", "ok");
      conn->WriteDoc(ok, options_.write_deadline_ms, "reply");
      RequestStop();
      break;
    } else if (op == "submit") {
      const std::string client_job = request.GetString("client_job", "");
      if (client_job.empty()) {
        conn->WriteDoc(
            service::EventRejected(0, "bad-request",
                                   "submit requires client_job"),
            options_.write_deadline_ms, "event");
        continue;
      }
      const auto after_seq =
          static_cast<std::uint64_t>(request.GetInt("after_seq", 0));
      const int deadline = options_.write_deadline_ms;
      auto info = ledger_.Open(
          client_job, after_seq, [conn, deadline](const Json& event) {
            conn->WriteDoc(event, deadline, "event");
          });
      conn->attachments.emplace_back(client_job, info.attach_id);
      if (!info.created) continue;  // dedup: replay + attach did the work

      service::SubmitRequest req;
      std::string error;
      if (!service::ParseSubmitRequest(request, &req, &error)) {
        // Recorded, not just written: a resubmit of a malformed job
        // replays the same rejection instead of dangling forever.
        info.record(service::EventRejected(0, "bad-request", error));
        continue;
      }
      service::JobSpec spec;
      try {
        spec = service::MakeJobSpec(req);
      } catch (const Error& e) {
        info.record(service::EventRejected(0, "bad-request", e.what()));
        continue;
      }
      service_.Submit(std::move(spec), info.record);
    } else {
      conn->WriteDoc(service::EventError("unknown op: " + op),
                     options_.write_deadline_ms, "reply");
    }
  }
}

void Server::ServeWorker(const std::shared_ptr<Connection>& conn) {
  if (!broker_.enabled()) {
    Json deny;
    deny.Set("op", "error");
    deny.Set("error", "daemon has no distrib dir (start with --distrib)");
    conn->WriteDoc(deny, options_.write_deadline_ms, "reply");
    return;
  }
  auto session = broker_.OpenSession(
      "net-worker-" + std::to_string(conn->conn.fd()) + "-" +
      std::to_string(static_cast<unsigned long>(::getpid())));
  while (!conn->conn.closed() &&
         !stopping_.load(std::memory_order_relaxed)) {
    Json request;
    const IoStatus status =
        conn->conn.ReadJson(&request, options_.worker_slice_ms, "request");
    if (status == IoStatus::kTimeout) {
      // Heartbeat-loss path: a worker that went quiet without
      // disconnecting loses its leases after the horizon.
      session->SweepExpired();
      continue;
    }
    if (status != IoStatus::kOk) break;
    if (!conn->WriteDoc(session->Handle(request),
                        options_.write_deadline_ms, "reply")) {
      break;
    }
  }
  // ~BrokerSession releases every held lease: a SIGKILLed remote worker's
  // unit is back in the pool the moment its connection dies.
}

}  // namespace gpustl::net
