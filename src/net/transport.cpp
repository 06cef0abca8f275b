#include "net/transport.h"

#include "net/shared_frame.h"

namespace dyconits::net {

bool Transport::send_shared(EndpointId from, EndpointId to, const SharedFrame& shared,
                            std::uint32_t seq, SimTime trace_origin) {
  return send(from, to, shared.instance(seq, trace_origin));
}

}  // namespace dyconits::net
