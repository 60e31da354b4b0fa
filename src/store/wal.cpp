#include "store/wal.hpp"

#include <algorithm>
#include <optional>

#include "net/reactor.hpp"

namespace ace::store {

namespace {

// Anything past this is a corrupt length field, not a real record.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

util::Bytes encode_payload(const WalRecord& r) {
  util::ByteWriter w;
  w.u8(r.kind);
  switch (r.kind) {
    case WalRecord::kPut:
      w.str(r.key);
      w.varint(r.version);
      w.blob(r.data);
      break;
    case WalRecord::kDelete:
      w.str(r.key);
      w.varint(r.version);
      break;
    case WalRecord::kHint:
      w.str(r.key);
      w.varint(r.version);
      w.str(r.owner);
      break;
    case WalRecord::kHintDrained:
      w.str(r.key);
      w.str(r.owner);
      break;
    case WalRecord::kErase:
      w.str(r.key);
      break;
    case WalRecord::kSeal:
      w.varint(r.version);
      break;
    default:
      break;
  }
  return w.take();
}

bool decode_payload(util::BytesView payload, WalRecord& out) {
  util::ByteReader r(payload);
  auto kind = r.u8();
  if (!kind) return false;
  out.kind = *kind;
  switch (out.kind) {
    case WalRecord::kPut: {
      auto key = r.str();
      auto version = r.varint();
      auto data = r.blob();
      if (!key || !version || !data) return false;
      out.key = std::move(*key);
      out.version = *version;
      out.data = std::move(*data);
      break;
    }
    case WalRecord::kDelete: {
      auto key = r.str();
      auto version = r.varint();
      if (!key || !version) return false;
      out.key = std::move(*key);
      out.version = *version;
      break;
    }
    case WalRecord::kHint: {
      auto key = r.str();
      auto version = r.varint();
      auto owner = r.str();
      if (!key || !version || !owner) return false;
      out.key = std::move(*key);
      out.version = *version;
      out.owner = std::move(*owner);
      break;
    }
    case WalRecord::kHintDrained: {
      auto key = r.str();
      auto owner = r.str();
      if (!key || !owner) return false;
      out.key = std::move(*key);
      out.owner = std::move(*owner);
      break;
    }
    case WalRecord::kErase: {
      auto key = r.str();
      if (!key) return false;
      out.key = std::move(*key);
      break;
    }
    case WalRecord::kSeal: {
      auto count = r.varint();
      if (!count) return false;
      out.version = *count;
      break;
    }
    default:
      return false;
  }
  return r.at_end();
}

void frame_record(util::ByteWriter& w, const WalRecord& r) {
  util::Bytes payload = encode_payload(r);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(util::crc32(payload));
  w.raw(payload);
}

}  // namespace

util::Bytes encode_wal_record(const WalRecord& r) {
  util::ByteWriter w;
  frame_record(w, r);
  return w.take();
}

std::size_t Wal::scan(util::BytesView data,
                      const std::function<void(const WalRecord&)>& fn) {
  std::size_t pos = 0;
  while (data.size() - pos >= 8) {
    util::ByteReader hdr(data.data() + pos, 8);
    std::uint32_t len = *hdr.u32();
    std::uint32_t crc = *hdr.u32();
    if (len > kMaxRecordBytes || data.size() - pos - 8 < len) break;
    util::BytesView payload(data.data() + pos + 8, len);
    if (util::crc32(payload) != crc) break;
    WalRecord r;
    if (!decode_payload(payload, r)) break;
    fn(r);
    pos += 8 + len;
  }
  return pos;
}

Wal::Wal(io::SimDisk& disk, std::string file, WalCounters counters,
         std::uint64_t resume_records, std::size_t resume_bytes)
    : disk_(disk),
      file_(std::move(file)),
      counters_(counters),
      appended_(resume_records),
      synced_(resume_records),
      bytes_(resume_bytes) {}

std::uint64_t Wal::append(const WalRecord& r) {
  util::Bytes frame = encode_wal_record(r);
  std::scoped_lock lock(mu_);
  if (closed_) return 0;
  if (!disk_.append(file_, frame).ok()) return 0;
  bytes_ += frame.size();
  if (counters_.appends) counters_.appends->inc();
  return ++appended_;
}

bool Wal::sync(std::uint64_t lsn) {
  if (lsn == 0) return true;
  std::unique_lock lock(mu_);
  for (;;) {
    if (synced_ >= lsn) return true;
    if (closed_) return false;
    if (!sync_inflight_) {
      // Leader: one fsync covers every record appended so far; waiters
      // that arrived meanwhile ride the same flush (group commit).
      sync_inflight_ = true;
      const std::uint64_t target = appended_;
      lock.unlock();
      util::Status st = disk_.fsync(file_);
      lock.lock();
      sync_inflight_ = false;
      if (st.ok()) {
        synced_ = std::max(synced_, target);
        if (counters_.fsyncs) counters_.fsyncs->inc();
      }
      cv_.notify_all();
      if (!st.ok()) return false;
    } else {
      cv_.wait(lock);
    }
  }
}

bool Wal::sync_all() {
  std::uint64_t target;
  {
    std::scoped_lock lock(mu_);
    target = appended_;
  }
  return sync(target);
}

void Wal::close() {
  std::scoped_lock lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

std::uint64_t Wal::records() const {
  std::scoped_lock lock(mu_);
  return appended_;
}

std::size_t Wal::bytes() const {
  std::scoped_lock lock(mu_);
  return bytes_;
}

DurableLog::DurableLog(io::SimDisk& disk, std::string prefix,
                       WalCounters counters)
    : disk_(disk), prefix_(std::move(prefix)), counters_(counters) {}

std::string DurableLog::wal_file(int gen) const {
  return prefix_ + ".wal." + std::to_string(gen);
}

std::string DurableLog::snap_file(int gen) const {
  return prefix_ + ".snap." + std::to_string(gen);
}

std::shared_ptr<Wal> DurableLog::current() const {
  std::scoped_lock lock(mu_);
  return wal_;
}

namespace {

// Splits "<prefix>.wal.<g>" / "<prefix>.snap.<g>" into kind + generation.
std::optional<std::pair<char, int>> parse_gen(const std::string& name,
                                              const std::string& prefix) {
  if (name.rfind(prefix + ".", 0) != 0) return std::nullopt;
  std::string rest = name.substr(prefix.size() + 1);
  char kind;
  if (rest.rfind("wal.", 0) == 0) {
    kind = 'w';
    rest = rest.substr(4);
  } else if (rest.rfind("snap.", 0) == 0) {
    kind = 's';
    rest = rest.substr(5);
  } else {
    return std::nullopt;
  }
  if (rest.empty() ||
      rest.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  return std::make_pair(kind, std::stoi(rest));
}

}  // namespace

DurableLog::RecoveryStats DurableLog::recover(
    const std::function<void(const WalRecord&)>& fn) {
  std::scoped_lock lock(mu_);
  RecoveryStats rs;

  // A .tmp is an interrupted compaction that never published; discard it.
  (void)disk_.remove(prefix_ + ".snap.tmp");

  std::vector<int> snap_gens, wal_gens;
  for (const std::string& name : disk_.list(prefix_ + ".")) {
    if (auto parsed = parse_gen(name, prefix_)) {
      (parsed->first == 'w' ? wal_gens : snap_gens).push_back(parsed->second);
    }
  }
  std::sort(snap_gens.rbegin(), snap_gens.rend());
  std::sort(wal_gens.begin(), wal_gens.end());

  // Newest snapshot whose every record decodes, whose bytes are exactly
  // consumed, and that ends in a matching seal. Anything less (bit rot,
  // torn write that somehow got renamed) falls back a generation.
  int snap_gen = -1;
  for (int g : snap_gens) {
    auto data = disk_.read(snap_file(g));
    if (!data.ok()) {
      ++rs.snapshot_fallbacks;
      continue;
    }
    std::vector<WalRecord> records;
    std::size_t consumed =
        Wal::scan(*data, [&](const WalRecord& r) { records.push_back(r); });
    bool sealed = consumed == data->size() && !records.empty() &&
                  records.back().kind == WalRecord::kSeal &&
                  records.back().version == records.size() - 1;
    if (!sealed) {
      ++rs.snapshot_fallbacks;
      continue;
    }
    records.pop_back();  // drop the seal
    for (const WalRecord& r : records) fn(r);
    rs.snapshot_records = records.size();
    snap_gen = g;
    break;
  }

  // Replay every WAL at or after the chosen snapshot, oldest first. LWW
  // apply makes the overlap from a fallback harmless. A short or
  // CRC-failing tail is a torn write: count it and chop it off so it can
  // never prefix future appends.
  std::uint64_t live_records = 0;
  std::size_t live_bytes = 0;
  for (int g : wal_gens) {
    if (g < snap_gen) continue;
    auto data = disk_.read(wal_file(g));
    if (!data.ok()) continue;
    std::uint64_t n = 0;
    std::size_t consumed = Wal::scan(*data, [&](const WalRecord& r) {
      fn(r);
      ++n;
    });
    rs.wal_records += n;
    if (consumed < data->size()) {
      rs.torn_bytes += data->size() - consumed;
      ++rs.torn_tails;
      (void)disk_.truncate(wal_file(g), consumed);
      if (counters_.torn_tail_dropped) counters_.torn_tail_dropped->inc();
    }
    live_records = n;
    live_bytes = consumed;
  }

  gen_ = std::max({snap_gen, wal_gens.empty() ? 0 : wal_gens.back(), 0});
  if (wal_gens.empty() || wal_gens.back() != gen_) {
    live_records = 0;
    live_bytes = 0;
  }
  wal_ = std::make_shared<Wal>(disk_, wal_file(gen_), counters_, live_records,
                               live_bytes);
  rs.generation = gen_;
  return rs;
}

WalTicket DurableLog::append(const WalRecord& r) {
  std::shared_ptr<Wal> w = current();
  if (!w) return {};
  std::uint64_t lsn = w->append(r);
  if (lsn == 0) return {};
  return {std::move(w), lsn};
}

bool DurableLog::sync(const WalTicket& t) {
  net::expect_may_block("DurableLog::sync");  // a group-commit wait
  if (!t.wal) return true;
  return t.wal->sync(t.lsn);
}

bool DurableLog::sync_all() {
  std::shared_ptr<Wal> w = current();
  return w ? w->sync_all() : true;
}

void DurableLog::close() {
  std::shared_ptr<Wal> w = current();
  if (w) w->close();
}

util::Status DurableLog::compact(const std::vector<WalRecord>& records) {
  std::scoped_lock lock(mu_);
  if (!wal_) return {util::Errc::invalid, "durable log not recovered"};
  const int next = gen_ + 1;
  const std::string tmp = prefix_ + ".snap.tmp";
  (void)disk_.remove(tmp);

  util::ByteWriter w;
  for (const WalRecord& r : records) frame_record(w, r);
  WalRecord seal;
  seal.kind = WalRecord::kSeal;
  seal.version = records.size();
  frame_record(w, seal);
  util::Bytes body = w.take();

  // tmp → fsync → atomic rename: a crash anywhere before the rename leaves
  // the previous generation authoritative; after it, the new one is.
  if (auto st = disk_.append(tmp, body); !st.ok()) return st;
  if (auto st = disk_.fsync(tmp); !st.ok()) return st;
  if (auto st = disk_.rename(tmp, snap_file(next)); !st.ok()) return st;

  // Rotate appends to the new generation. The old Wal object stays open:
  // stragglers holding tickets fsync the retained old file harmlessly
  // (their records are durable via the snapshot either way).
  wal_ = std::make_shared<Wal>(disk_, wal_file(next), counters_);
  gen_ = next;

  // Keep generation next-1 as the fallback chain; prune anything older.
  for (const std::string& name : disk_.list(prefix_ + ".")) {
    if (auto parsed = parse_gen(name, prefix_)) {
      if (parsed->second <= next - 2) (void)disk_.remove(name);
    }
  }
  return util::Status::ok_status();
}

int DurableLog::generation() const {
  std::scoped_lock lock(mu_);
  return gen_;
}

std::uint64_t DurableLog::wal_records() const {
  std::shared_ptr<Wal> w = current();
  return w ? w->records() : 0;
}

std::size_t DurableLog::wal_bytes() const {
  std::shared_ptr<Wal> w = current();
  return w ? w->bytes() : 0;
}

}  // namespace ace::store
