#include "net/broker.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "common/hash.h"
#include "distrib/units.h"
#include "net/net.h"
#include "store/result_store.h"

namespace gpustl::net {

namespace fs = std::filesystem;

namespace {

service::Json ErrorReply(std::string error) {
  service::Json reply;
  reply.Set("op", "error");
  reply.Set("error", std::move(error));
  return reply;
}

service::Json OkReply() {
  service::Json reply;
  reply.Set("op", "ok");
  return reply;
}

}  // namespace

BrokerSession::BrokerSession(const WorkBroker& broker, std::string owner)
    : broker_(broker),
      board_(broker.options().distrib_dir, std::move(owner),
             broker.options().lease_seconds) {}

BrokerSession::~BrokerSession() {
  // A dropped connection is lease death: every held unit goes straight
  // back to the pool, same as a stale local claim being stolen.
  for (const auto& [unit, when] : leases_) {
    (void)when;
    board_.Release(unit);
  }
}

service::Json BrokerSession::Handle(const service::Json& request) {
  const std::string op = request.GetString("op", "");
  if (op == "fetch") return Fetch();
  if (op == "renew") return Renew(request);
  if (op == "publish") return Publish(request);
  if (op == "done") return Finish(request, /*mark_done=*/true);
  if (op == "release") return Finish(request, /*mark_done=*/false);
  return ErrorReply("unknown worker op '" + op + "'");
}

service::Json BrokerSession::Fetch() {
  const std::string& dir = broker_.options().distrib_dir;
  for (const std::string& name : distrib::ListUnits(dir)) {
    if (board_.IsDone(name)) continue;
    if (leases_.count(name) != 0) continue;  // already ours
    if (!board_.TryClaim(name).claimed) continue;

    const std::string path = distrib::UnitsDir(dir) + "/" + name + ".unit";
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      if (in) {
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
      }
      if (!in || bytes.empty()) {
        // Torn or vanished unit file: give it back; the coordinator
        // computes it inline, same as the local worker's skip path.
        board_.Release(name);
        continue;
      }
    }
    leases_[name] = Clock::now();
    service::Json reply;
    reply.Set("op", "unit");
    reply.Set("unit", name);
    reply.Set("data", HexEncode(bytes));
    reply.Set("lease_seconds", broker_.options().lease_seconds);
    return reply;
  }
  service::Json reply;
  reply.Set("op", "idle");
  reply.Set("done", distrib::CampaignDone(dir));
  return reply;
}

service::Json BrokerSession::Renew(const service::Json& request) {
  const std::string unit = request.GetString("unit", "");
  const auto it = leases_.find(unit);
  if (it == leases_.end()) {
    // Swept, stolen, or never fetched here — the worker must abandon it.
    service::Json reply;
    reply.Set("op", "lease-lost");
    reply.Set("unit", unit);
    return reply;
  }
  board_.Heartbeat(unit);
  it->second = Clock::now();
  return OkReply();
}

service::Json BrokerSession::Publish(const service::Json& request) {
  const std::string& cache_dir = broker_.options().cache_dir;
  if (cache_dir.empty()) return ErrorReply("daemon has no cache dir");
  Hash128 key;
  if (!Hash128::FromHex(request.GetString("key", ""), &key)) {
    return ErrorReply("bad entry key");
  }
  const auto bytes = HexDecode(request.GetString("data", ""));
  if (!bytes) return ErrorReply("bad entry encoding");
  // Same header check (magic, version, key, size, checksum) the store
  // applies on every read.
  if (const char* why = store::CheckEntry(*bytes, key); why != nullptr) {
    return ErrorReply(std::string("entry rejected: ") + why);
  }

  const std::string path = cache_dir + "/" + key.ToHex() + ".gsr";
  std::error_code ec;
  if (fs::exists(path, ec)) return OkReply();  // idempotent re-publish

  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      path + "." + std::to_string(static_cast<unsigned long>(::getpid())) +
      ".net" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) +
      ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return ErrorReply("cannot write entry temp file");
    out.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
    out.flush();
    if (!out) {
      fs::remove(tmp, ec);
      return ErrorReply("entry temp write failed");
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return ErrorReply("entry install failed");
  }
  return OkReply();
}

service::Json BrokerSession::Finish(const service::Json& request,
                                    bool mark_done) {
  const std::string unit = request.GetString("unit", "");
  if (unit.empty()) return ErrorReply("missing unit");
  if (mark_done) board_.MarkDone(unit);
  board_.Release(unit);
  leases_.erase(unit);
  return OkReply();
}

void BrokerSession::SweepExpired() {
  const auto horizon =
      std::chrono::duration<double>(broker_.options().lease_seconds);
  const auto now = Clock::now();
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (now - it->second > horizon) {
      board_.Release(it->first);
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace gpustl::net
