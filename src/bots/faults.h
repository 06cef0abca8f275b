// Bot-level fault schedules: what an experiment means by "10% loss plus a
// partition at t=20s and a crash at t=30s", expressed against bot indices
// and seconds instead of endpoint ids and SimTimes. The Simulation
// translates this into the net::FaultPlan of its fault layer (and drives
// the client-side half of crash/restart: reset_session + reconnect).
// Loadable from a text file so bench binaries take --faults=FILE.
//
// File format — one directive per line, '#' starts a comment:
//
//   loss P            # per-frame loss probability, all links
//   duplicate P       # per-frame duplication probability
//   corrupt P         # per-frame payload-corruption probability
//   reorder P [MS]    # reorder probability [+ extra delay ceiling, ms]
//   sendfail P        # sender-edge send-failure probability (a modeled
//                     # EAGAIN, reported through send pressure)
//   flap T0 T1 BOT    # link of bot BOT down from T0 to T1 (seconds)
//   partition T0 T1 F # leading fraction F of bots cut off from T0 to T1
//   crash T0 T1 BOT   # bot BOT crashes at T0, restarts+rejoins at T1
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/faults.h"

namespace dyconits::bots {

struct ScheduledFault {
  enum class Kind : std::uint8_t { Flap, Partition, Crash };

  Kind kind = Kind::Flap;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Flap/Crash: which bot (index into the simulation's bot list).
  std::size_t bot = 0;
  /// Partition: the leading fraction of bots cut off, in (0, 1].
  double fraction = 0.0;
};

struct FaultScheduleConfig {
  /// Probabilistic per-frame faults applied to every bot<->server link.
  net::LinkFaults link;
  std::vector<ScheduledFault> events;

  bool any() const { return link.any() || link.send_fail > 0.0 || !events.empty(); }
};

/// Parses the directive text format above. Returns false and sets *error
/// (with a line number) on malformed input; *out is untouched on failure.
bool parse_fault_schedule(const std::string& text, FaultScheduleConfig* out,
                          std::string* error);

/// Reads and parses a fault schedule file (the --faults=FILE flag).
bool load_fault_schedule(const std::string& path, FaultScheduleConfig* out,
                         std::string* error);

}  // namespace dyconits::bots
