#include "net/udp_framing.h"

#include <algorithm>

#include "net/buffer_pool.h"

namespace dyconits::net::udpwire {

namespace {

/// Unsigned LEB128, appended (ByteWriter adopt-clears its buffer, but
/// datagram coalescing needs append semantics).
void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  do {
    std::uint8_t byte = static_cast<std::uint8_t>(v & 0x7F);
    v >>= 7;
    if (v) byte |= 0x80;
    out.push_back(byte);
  } while (v);
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, std::uint8_t tag, std::uint32_t seq,
                  const std::uint8_t* payload, std::size_t n) {
  out.push_back(tag);
  append_varint(out, seq);
  append_varint(out, n);
  out.insert(out.end(), payload, payload + n);
}

bool parse_frames(const std::uint8_t* body, std::size_t n, std::vector<Frame>& out) {
  ByteReader r(body, n);
  while (!r.at_end()) {
    Frame f;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> payload = BufferPool::instance().acquire();
    payload.clear();
    if (!r.u8(f.tag) || !r.varint(seq) || seq > 0xFFFFFFFFull || !r.blob(payload)) {
      BufferPool::instance().release(std::move(payload));
      return false;
    }
    f.seq = static_cast<std::uint32_t>(seq);
    f.payload = std::move(payload);
    out.push_back(std::move(f));
  }
  return true;
}

std::vector<std::vector<std::uint8_t>> fragment_frame(std::uint8_t tag, std::uint32_t seq,
                                                      const std::uint8_t* payload,
                                                      std::size_t n, std::size_t mtu,
                                                      std::uint32_t msg_id) {
  // Slice the frame's Data-body encoding (header, then the payload read in
  // place) into chunks sized so every Fragment datagram (kind byte + header
  // varints + chunk blob) fits the MTU.
  std::vector<std::uint8_t> header;
  header.push_back(tag);
  append_varint(header, seq);
  append_varint(header, n);
  const std::size_t total = header.size() + n;

  const std::size_t budget = mtu > kFragmentOverhead ? mtu - kFragmentOverhead : 1;
  const std::size_t count = (total + budget - 1) / budget;
  if (count > kMaxFragments) return {};

  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t off = i * budget;
    const std::size_t len = std::min(budget, total - off);
    std::vector<std::uint8_t> d;
    d.reserve(len + kFragmentOverhead);
    d.push_back(static_cast<std::uint8_t>(DatagramKind::Fragment));
    append_varint(d, msg_id);
    append_varint(d, i);
    append_varint(d, count);
    append_varint(d, len);
    const std::size_t from_header =
        off < header.size() ? std::min(len, header.size() - off) : 0;
    if (from_header > 0) {
      d.insert(d.end(), header.data() + off, header.data() + off + from_header);
    }
    if (len > from_header) {
      const std::size_t p = off + from_header - header.size();
      d.insert(d.end(), payload + p, payload + p + (len - from_header));
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::optional<Frame> Reassembler::feed(const std::uint8_t* body, std::size_t n, SimTime now) {
  ByteReader r(body, n);
  std::uint64_t msg_id = 0, index = 0, count = 0;
  std::vector<std::uint8_t> chunk;
  // fragment_frame never sends an empty chunk, and an empty part would
  // read as a missing one below (a copy of it would count twice).
  if (!r.varint(msg_id) || !r.varint(index) || !r.varint(count) || !r.blob(chunk) ||
      !r.at_end() || chunk.empty() || count == 0 || count > kMaxFragments ||
      index >= count || msg_id > 0xFFFFFFFFull) {
    ++stats_.malformed;
    return std::nullopt;
  }

  Partial& p = partials_[static_cast<std::uint32_t>(msg_id)];
  if (p.parts.empty()) {
    p.parts.resize(count);
    p.first_seen = now;
  } else if (p.parts.size() != count) {
    // Same msg_id, contradictory fragment count: drop the whole message.
    ++stats_.malformed;
    partials_.erase(static_cast<std::uint32_t>(msg_id));
    return std::nullopt;
  }
  if (!p.parts[index].empty()) {
    ++stats_.duplicate_fragments;
    return std::nullopt;
  }
  p.parts[index] = std::move(chunk);
  ++p.received;
  if (p.received < p.parts.size()) return std::nullopt;

  // Complete: restore the contiguous encoding and parse it as a one-frame
  // Data body.
  std::vector<std::uint8_t> encoded;
  std::size_t total = 0;
  for (const auto& part : p.parts) total += part.size();
  encoded.reserve(total);
  for (const auto& part : p.parts) encoded.insert(encoded.end(), part.begin(), part.end());
  partials_.erase(static_cast<std::uint32_t>(msg_id));

  std::vector<Frame> frames;
  if (!parse_frames(encoded.data(), encoded.size(), frames) || frames.size() != 1) {
    for (auto& f : frames) BufferPool::instance().release(std::move(f.payload));
    ++stats_.malformed;
    return std::nullopt;
  }
  ++stats_.completed;
  return std::move(frames.front());
}

void Reassembler::gc(SimTime now) {
  for (auto it = partials_.begin(); it != partials_.end();) {
    if (now - it->second.first_seen > timeout_) {
      ++stats_.stale_dropped;
      it = partials_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace dyconits::net::udpwire
