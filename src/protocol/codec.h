// Encode/decode between message structs and net::Frame. decode() returns
// nullopt for unknown tags or malformed payloads (trailing bytes included),
// so a fuzzing test can assert memory-safe rejection of arbitrary input.
#pragma once

#include <cstddef>
#include <optional>

#include "net/shared_frame.h"
#include "net/sim_network.h"
#include "protocol/messages.h"

namespace dyconits::protocol {

/// Encodes any protocol message into a tagged frame. The payload buffer is
/// drawn from net::BufferPool, so steady-state encodes reuse capacity
/// instead of allocating (DESIGN.md §11).
net::Frame encode(const AnyMessage& msg);

/// Encodes once into a single-owner broadcast payload (DESIGN.md §11): a
/// batch destined for N subscribers serializes a single master, which each
/// recipient's Transport::send_shared reads.
net::SharedFrame encode_shared(const AnyMessage& msg);

/// Exact wire size encode(msg) would produce — tag byte, seq varint (encode
/// leaves seq = 0: one byte), payload-length varint, payload — computed by
/// a pure sizing visitor with no buffer writes. Replaces measure-by-encode
/// for queue-cap admission; the codec property test pins
/// wire_size_of(m) == encode(m).wire_size() for every message type.
std::size_t wire_size_of(const AnyMessage& msg);

/// Decodes a frame; nullopt on unknown tag or malformed payload.
std::optional<AnyMessage> decode(const net::Frame& frame);

/// Tag carried by the frame for `msg` (for per-type byte accounting).
MessageType type_of(const AnyMessage& msg);

}  // namespace dyconits::protocol
