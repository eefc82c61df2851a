#include "store/result_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <system_error>
#include <vector>

#include "common/chaos.h"
#include "common/error.h"
#include "common/status.h"
#include "fault/parallel.h"
#include "fault/transition.h"
#include "store/io_retry.h"

namespace gpustl::store {
namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'G', 'S', 'R', 'E'};
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::size_t kHeaderBytes = 4 + 4 + 16 + 8 + 16;

/// Largest #faults or #patterns a payload may declare. The decoder sizes
/// per-fault and per-pattern arrays from these counts, so a damaged count
/// must be refused before it allocates. 2^26 is over two orders of
/// magnitude above the largest module and pattern set here (TPGEN's
/// 177,600 SP patterns); a larger entry is a miss, never a wrong hit.
constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 26;

void PutU32(std::string& out, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) out.push_back(static_cast<char>(v >> (8 * k)));
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) out.push_back(static_cast<char>(v >> (8 * k)));
}

/// Bounded little-endian reader over a byte buffer; Ok() goes false on the
/// first out-of-range read and stays false (truncation-safe decoding).
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool Ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  std::uint8_t U8() { return static_cast<std::uint8_t>(Raw(1)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Raw(4)); }
  std::uint64_t U64() { return Raw(8); }

  bool Expect(const char* bytes, std::size_t n) {
    if (pos_ + n > data_.size()) return ok_ = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (data_[pos_ + i] != bytes[i]) return ok_ = false;
    }
    pos_ += n;
    return true;
  }

 private:
  std::uint64_t Raw(std::size_t n) {
    if (!ok_ || pos_ + n > data_.size()) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t k = 0; k < n; ++k) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + k]))
           << (8 * k);
    }
    pos_ += n;
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

Hash128 Checksum(std::string_view payload) {
  Hasher128 h;
  h.AddString("gpustl-entry-v2");
  h.AddBytes(payload.data(), payload.size());
  return h.Finish();
}

void LogBadEntry(const std::string& path, const char* why) {
  std::fprintf(stderr, "gpustl-store: discarding %s (%s); will recompute\n",
               path.c_str(), why);
}

thread_local StoreAttribution* t_attribution = nullptr;

/// Holds `<dir>/.eviction.lock` via flock for the scope's lifetime.
/// flock locks belong to the open file description, so two handles in ONE
/// process contend just like two processes do — which is what makes the
/// cross-process eviction exclusion testable in-process.
class EvictionLock {
 public:
  explicit EvictionLock(const std::string& dir) {
    fd_ = ::open((dir + "/.eviction.lock").c_str(),
                 O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      // Can't create the sidecar (odd permissions?): proceed unlocked —
      // the budget is advisory and a double-evict only over-trims.
      held_ = true;
      return;
    }
    held_ = ::flock(fd_, LOCK_EX | LOCK_NB) == 0;
  }

  ~EvictionLock() {
    if (fd_ >= 0) {
      if (held_) ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }

  bool held() const { return held_; }

 private:
  int fd_ = -1;
  bool held_ = false;
};

}  // namespace

ScopedStoreAttribution::ScopedStoreAttribution(StoreAttribution* record)
    : prev_(t_attribution) {
  t_attribution = record;
}

ScopedStoreAttribution::~ScopedStoreAttribution() { t_attribution = prev_; }

ResultStore::ResultStore(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw IoError("store: cannot create cache directory '" + dir_ +
                  "': " + ec.message());
  }
}

std::string ResultStore::EntryPath(const StoreKey& key) const {
  return (fs::path(dir_) / (key.ToHex() + ".gsr")).string();
}

const char* CheckEntry(std::string_view data, const StoreKey& key,
                       std::string_view* payload) {
  Reader r(data);
  if (data.size() < kHeaderBytes) return "truncated header";
  if (!r.Expect(kMagic, 4)) return "bad magic";
  if (r.U32() != kFormatVersion) return "format version mismatch";
  const std::uint64_t key_lo = r.U64();
  const std::uint64_t key_hi = r.U64();
  const std::uint64_t payload_size = r.U64();
  const std::uint64_t sum_lo = r.U64();
  const std::uint64_t sum_hi = r.U64();
  if (key_lo != key.lo || key_hi != key.hi) return "key mismatch";
  if (data.size() - kHeaderBytes != payload_size) {
    return "payload size mismatch";
  }
  const std::string_view body = data.substr(kHeaderBytes);
  const Hash128 sum = Checksum(body);
  if (sum.lo != sum_lo || sum.hi != sum_hi) return "checksum mismatch";
  if (payload != nullptr) *payload = body;
  return nullptr;
}

std::string ResultStore::EncodeResult(const fault::FaultSimResult& result) {
  const std::size_t num_patterns = result.detects_per_pattern.size();
  std::vector<std::uint32_t> histogram(num_patterns, 0);
  std::string pairs;
  std::uint64_t num_pairs = 0;
  for (std::size_t f = 0; f < result.first_detect.size(); ++f) {
    const std::uint32_t fd = result.first_detect[f];
    if (fd == fault::FaultSimResult::kNotDetected) continue;
    PutU32(pairs, static_cast<std::uint32_t>(f));
    PutU32(pairs, fd);
    if (fd < num_patterns) ++histogram[fd];
    ++num_pairs;
  }
  // Dropped runs count first detections only, so their histogram is the
  // one the decoder derives; other runs store theirs explicitly.
  const bool explicit_detects = histogram != result.detects_per_pattern;

  std::string out;
  PutU64(out, result.first_detect.size());
  PutU64(out, num_patterns);
  PutU64(out, num_pairs);
  out += pairs;
  out.push_back(explicit_detects ? 1 : 0);
  if (explicit_detects) {
    for (const std::uint32_t v : result.detects_per_pattern) PutU32(out, v);
  }
  return out;
}

bool ResultStore::DecodeResult(std::string_view payload,
                               fault::FaultSimResult* out) {
  Reader r(payload);
  const std::uint64_t num_faults = r.U64();
  const std::uint64_t num_patterns = r.U64();
  const std::uint64_t num_pairs = r.U64();
  // Every count is bounded before anything is sized by it.
  if (!r.Ok() || num_faults > kMaxCount || num_patterns > kMaxCount ||
      num_pairs > num_faults || num_pairs > r.remaining() / 8) {
    return false;
  }
  fault::FaultSimResult res =
      fault::InitFaultSimResult(num_faults, num_patterns);
  std::uint64_t next_fault = 0;  // pairs are strictly ascending by fault
  for (std::uint64_t i = 0; i < num_pairs; ++i) {
    const std::uint32_t f = r.U32();
    const std::uint32_t fd = r.U32();
    if (f < next_fault || f >= num_faults || fd >= num_patterns) return false;
    next_fault = std::uint64_t{f} + 1;
    res.first_detect[f] = fd;
    res.detected_mask.Set(f, true);
    ++res.detects_per_pattern[fd];
  }
  res.num_detected = num_pairs;

  const std::uint8_t mode = r.U8();
  if (!r.Ok() || mode > 1) return false;
  if (mode == 1) {
    if (r.remaining() != num_patterns * 4) return false;
    for (std::uint32_t& v : res.detects_per_pattern) v = r.U32();
  }
  if (!r.AtEnd()) return false;
  *out = std::move(res);
  return true;
}

std::optional<fault::FaultSimResult> ResultStore::Load(const StoreKey& key) {
  const std::string path = EntryPath(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Absent — or vanished between a concurrent user's eviction and this
    // open. Either way a plain miss, never a failure.
    if (t_attribution != nullptr) ++t_attribution->misses;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.misses;
    return std::nullopt;
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  // Chaos: damage the in-memory read buffer. The validation chain below
  // must classify any damage as a bad entry and fall back to recompute.
  if (chaos::Armed() && !data.empty()) {
    if (chaos::Fail(chaos::Site::kStoreReadShort)) {
      data.resize(data.size() / 2);
    }
    if (!data.empty() && chaos::Fail(chaos::Site::kStoreReadCorrupt)) {
      data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
    }
  }

  fault::FaultSimResult result;
  std::string_view payload;
  const char* why = CheckEntry(data, key, &payload);
  if (why == nullptr && !DecodeResult(payload, &result)) {
    why = "undecodable payload";
  }

  if (why != nullptr) {
    LogBadEntry(path, why);
    if (t_attribution != nullptr) ++t_attribution->misses;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.bad_entries;
      ++stats_.misses;
    }
    std::error_code ec;
    fs::remove(path, ec);
    return std::nullopt;
  }

  if (t_attribution != nullptr) {
    ++t_attribution->hits;
    t_attribution->bytes_read += data.size();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.hits;
    stats_.bytes_read += data.size();
  }
  return result;
}

void ResultStore::Store(const StoreKey& key,
                        const fault::FaultSimResult& result) {
  const std::string payload = EncodeResult(result);
  const Hash128 sum = Checksum(payload);

  std::string data;
  data.reserve(kHeaderBytes + payload.size());
  data.append(kMagic, 4);
  PutU32(data, kFormatVersion);
  PutU64(data, key.lo);
  PutU64(data, key.hi);
  PutU64(data, payload.size());
  PutU64(data, sum.lo);
  PutU64(data, sum.hi);
  data += payload;

  const std::string path = EntryPath(key);
  // Unique temp name per write: two handles (threads or processes) storing
  // the same key concurrently must never interleave into one temp file.
  const std::string tmp =
      path + "." + std::to_string(static_cast<unsigned long>(::getpid())) +
      "." +
      std::to_string(tmp_seq_.fetch_add(1, std::memory_order_relaxed)) +
      ".tmp";
  const auto attempt = [&]() -> bool {
    if (chaos::Fail(chaos::Site::kStoreWriteFail)) return false;
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return false;
      out.write(data.data(), static_cast<std::streamsize>(data.size()));
      if (!out) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return false;
      }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
      fs::remove(tmp, ec);
      return false;
    }
    return true;
  };
  std::uint64_t retries = 0;
  const bool ok = RetryIo(RetryPolicy{}, attempt, &retries);
  if (ok && t_attribution != nullptr) {
    ++t_attribution->stores;
    t_attribution->bytes_written += data.size();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.io_retries += retries;
    if (!ok) {
      ++stats_.write_failures;
    } else {
      ++stats_.stores;
      stats_.bytes_written += data.size();
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "gpustl-store: cannot write %s after retries "
                 "(caching skipped)\n",
                 path.c_str());
    return;
  }
  if (max_bytes_ > 0) EnforceBudget();
}

void ResultStore::Discard(const StoreKey& key) {
  const std::string path = EntryPath(key);
  LogBadEntry(path, "query shape mismatch");
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.bad_entries;
  }
  std::error_code ec;
  fs::remove(path, ec);
}

void ResultStore::EnforceBudget() {
  std::unique_lock<std::mutex> single_flight(budget_mu_, std::try_to_lock);
  if (!single_flight.owns_lock()) return;

  // Cross-process single-flight. A daemon, a CLI run and a fleet of
  // distrib workers may all share this directory; if two of them scan an
  // over-budget directory concurrently, each evicts enough on its own and
  // the cache lands far below budget. Skipping on contention is safe for
  // the same reason skipping on the mutex is: whoever holds the lock is
  // already evicting, and the next over-budget Store re-checks.
  EvictionLock eviction_lock(dir_);
  if (!eviction_lock.held()) return;

  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t size;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return;
  const fs::directory_iterator end;
  while (it != end) {
    // Every stat below uses its own error code and skips the entry on
    // failure: with several handles sharing the directory a file can
    // vanish between listing and stat (a concurrent eviction), and that
    // must never abort the scan — or worse, half-count the entry.
    if (it->path().extension() == ".gsr") {
      std::error_code type_ec;
      if (it->is_regular_file(type_ec) && !type_ec) {
        Entry e;
        e.path = it->path();
        std::error_code mtime_ec;
        std::error_code size_ec;
        e.mtime = fs::last_write_time(e.path, mtime_ec);
        e.size = fs::file_size(e.path, size_ec);
        if (!mtime_ec && !size_ec) {
          total += e.size;
          entries.push_back(std::move(e));
        }
      }
    }
    it.increment(ec);
    if (ec) break;  // the iterator is end() after a failed increment
  }
  if (total <= max_bytes_) return;
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
  });
  for (const Entry& e : entries) {
    if (total <= max_bytes_) break;
    std::error_code remove_ec;
    const bool removed = fs::remove(e.path, remove_ec);
    if (remove_ec) continue;  // unremovable; try the next oldest
    // removed == false: already gone (the other handle evicted it) — its
    // bytes are freed either way, but only count evictions we performed.
    total -= e.size;
    if (removed) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.evictions;
    }
  }
}

fault::FaultSimResult SimulateWithStore(ResultStore* store,
                                        const netlist::Netlist& nl,
                                        const netlist::PatternSet& patterns,
                                        const std::vector<fault::Fault>& faults,
                                        const BitVec* skip,
                                        const fault::FaultSimOptions& options,
                                        SimModel model,
                                        const Hash128* faults_fp) {
  auto run = [&] {
    return model == SimModel::kTransition
               ? fault::RunTransitionFaultSim(nl, patterns, faults, skip,
                                              options)
               : fault::RunFaultSim(nl, patterns, faults, skip, options);
  };
  if (store == nullptr) return run();

  const StoreKey key =
      faults_fp != nullptr
          ? FaultSimKeyWith(nl, patterns, *faults_fp, skip,
                            options.drop_detected, model)
          : FaultSimKey(nl, patterns, faults, skip, options.drop_detected,
                        model);
  if (auto cached = store->Load(key)) {
    if (cached->first_detect.size() == faults.size() &&
        cached->detects_per_pattern.size() == patterns.size()) {
      return std::move(*cached);
    }
    store->Discard(key);
  }
  fault::FaultSimResult result = run();
  store->Store(key, result);
  return result;
}

}  // namespace gpustl::store
