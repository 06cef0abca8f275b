// Integration-level unit tests for the game server: join flow, interest
// management, update propagation on both dispatch paths, keep-alives, and
// session teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "dyconit/policies/basic.h"
#include "dyconit/policies/factory.h"
#include "server/game_server.h"

namespace dyconits::server {
namespace {

using protocol::AnyMessage;
using world::ChunkPos;
using world::Vec3;

/// A scripted protocol client with no behavior of its own.
class TestClient {
 public:
  TestClient(SimClock& clock, net::SimNetwork& net, net::EndpointId server,
             std::string name)
      : clock_(clock), net_(net), server_(server), name_(std::move(name)) {
    ep_ = net_.create_endpoint(name_);
    net_.connect(ep_, server_, {SimDuration::millis(0), 0.0});
  }

  void join() { send(protocol::JoinRequest{name_}); }

  void send(const AnyMessage& m) { net_.send(ep_, server_, protocol::encode(m)); }

  /// Drains deliveries into the inbox.
  void poll() {
    for (const auto& d : net_.poll(ep_)) {
      auto msg = protocol::decode(d.frame);
      ASSERT_TRUE(msg.has_value());
      inbox_.push_back(std::move(*msg));
    }
  }

  template <typename T>
  std::size_t count() const {
    std::size_t n = 0;
    for (const auto& m : inbox_) n += std::holds_alternative<T>(m) ? 1 : 0;
    return n;
  }

  template <typename T>
  const T* last() const {
    const T* found = nullptr;
    for (const auto& m : inbox_) {
      if (const T* p = std::get_if<T>(&m)) found = p;
    }
    return found;
  }

  /// Total entity-move updates, counting batch contents.
  std::size_t total_moves() const {
    std::size_t n = 0;
    for (const auto& m : inbox_) {
      if (std::holds_alternative<protocol::EntityMove>(m)) ++n;
      if (const auto* b = std::get_if<protocol::EntityMoveBatch>(&m)) n += b->moves.size();
    }
    return n;
  }

  void clear() { inbox_.clear(); }
  const std::vector<AnyMessage>& inbox() const { return inbox_; }
  net::EndpointId ep() const { return ep_; }

 private:
  SimClock& clock_;
  net::SimNetwork& net_;
  net::EndpointId server_;
  std::string name_;
  net::EndpointId ep_ = 0;
  std::vector<AnyMessage> inbox_;
};

class ServerTest : public ::testing::Test {
 protected:
  /// policy spec "" = vanilla. `tweak` adjusts the config before the
  /// server is built.
  void build(const std::string& policy_spec,
             const std::function<void(ServerConfig&)>& tweak = {}) {
    ServerConfig cfg;
    cfg.view_distance = 2;
    cfg.unload_margin = 1;
    cfg.max_chunk_sends_per_tick = 100;
    cfg.use_dyconits = !policy_spec.empty();
    cfg.net_cost_per_frame = SimDuration::micros(0);  // raw CPU in tests
    cfg.net_cost_per_byte_ns = 0.0;
    cfg.spawn_provider = [this](const std::string& name) {
      const auto it = spawns_.find(name);
      return it != spawns_.end() ? it->second : Vec3{8.5, 1, 8.5};
    };
    if (tweak) tweak(cfg);
    std::unique_ptr<dyconit::Policy> policy;
    if (!policy_spec.empty()) {
      policy = dyconit::make_policy(policy_spec);
      ASSERT_NE(policy, nullptr);
    }
    server_ = std::make_unique<GameServer>(clock_, net_, world_, std::move(policy),
                                           std::move(cfg));
  }

  TestClient make_client(const std::string& name, Vec3 spawn = {8.5, 1, 8.5}) {
    spawns_[name] = spawn;
    return TestClient(clock_, net_, server_->endpoint(), name);
  }

  /// One full round: advance time, server tick, clients poll.
  void step(std::initializer_list<TestClient*> clients, int ticks = 1) {
    for (int i = 0; i < ticks; ++i) {
      clock_.advance(SimDuration::millis(50));
      server_->tick();
      for (TestClient* c : clients) c->poll();
    }
  }

  SimClock clock_;
  net::SimNetwork net_{clock_};
  world::World world_;  // flat: deterministic, ground at y=0
  std::unique_ptr<GameServer> server_;
  std::unordered_map<std::string, Vec3> spawns_;
};

// -------------------------------------------------------------------- join

TEST_F(ServerTest, JoinProducesAckAndChunks) {
  build("");
  TestClient c = make_client("alice");
  c.join();
  step({&c});

  EXPECT_EQ(server_->player_count(), 1u);
  const auto* ack = c.last<protocol::JoinAck>();
  ASSERT_NE(ack, nullptr);
  EXPECT_NE(ack->self_id, 0u);
  EXPECT_EQ(ack->view_distance, 2);
  EXPECT_DOUBLE_EQ(ack->spawn.y, 1.0);
  // View square (2*2+1)^2 = 25 chunks.
  EXPECT_EQ(c.count<protocol::ChunkData>(), 25u);
}

TEST_F(ServerTest, ChunkStreamingIsThrottled) {
  build("");
  server_ = nullptr;
  ServerConfig cfg;
  cfg.view_distance = 2;
  cfg.max_chunk_sends_per_tick = 10;
  cfg.use_dyconits = false;
  cfg.net_cost_per_frame = SimDuration::micros(0);
  cfg.net_cost_per_byte_ns = 0.0;
  server_ = std::make_unique<GameServer>(clock_, net_, world_, nullptr, std::move(cfg));

  TestClient c = make_client("alice");
  c.join();
  step({&c});
  EXPECT_EQ(c.count<protocol::ChunkData>(), 10u);
  step({&c});
  EXPECT_EQ(c.count<protocol::ChunkData>(), 20u);
  step({&c});
  EXPECT_EQ(c.count<protocol::ChunkData>(), 25u);
}

TEST_F(ServerTest, TwoNearbyPlayersSeeEachOther) {
  build("");
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {10.5, 1, 10.5});
  a.join();
  step({&a, &b});
  b.join();
  step({&a, &b});

  const auto* spawn_seen_by_a = a.last<protocol::EntitySpawn>();
  ASSERT_NE(spawn_seen_by_a, nullptr);
  EXPECT_EQ(spawn_seen_by_a->name, "bob");
  const auto* spawn_seen_by_b = b.last<protocol::EntitySpawn>();
  ASSERT_NE(spawn_seen_by_b, nullptr);
  EXPECT_EQ(spawn_seen_by_b->name, "alice");
}

TEST_F(ServerTest, DistantPlayersInvisible) {
  build("");
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {500.5, 1, 500.5});
  a.join();
  b.join();
  step({&a, &b}, 3);
  EXPECT_EQ(a.count<protocol::EntitySpawn>(), 0u);
  EXPECT_EQ(b.count<protocol::EntitySpawn>(), 0u);
}

TEST_F(ServerTest, StrangerMessagesIgnored) {
  build("");
  TestClient c = make_client("alice");
  c.send(protocol::PlayerMove{{1, 1, 1}, 0, 0});  // never joined
  step({&c});
  EXPECT_EQ(server_->player_count(), 0u);
  EXPECT_TRUE(c.inbox().empty());
}

// --------------------------------------------------------------- movement

class ServerDispatchTest : public ServerTest,
                           public ::testing::WithParamInterface<const char*> {};

TEST_P(ServerDispatchTest, MovePropagatesToNearbyViewer) {
  build(GetParam());
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {12.5, 1, 8.5});
  a.join();
  b.join();
  step({&a, &b}, 2);
  b.clear();

  a.send(protocol::PlayerMove{{9.5, 1, 8.5}, 90.0f, 0});
  step({&a, &b}, 2);

  EXPECT_GE(b.total_moves(), 1u);
  const entity::EntityId alice_id = server_->entity_of(a.ep());
  const entity::Entity* e = server_->entities().find(alice_id);
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->pos.x, 9.5);
}

TEST_P(ServerDispatchTest, OriginatorDoesNotEchoOwnMove) {
  build(GetParam());
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  a.clear();
  a.send(protocol::PlayerMove{{9.5, 1, 8.5}, 0, 0});
  step({&a}, 3);
  EXPECT_EQ(a.total_moves(), 0u);
}

TEST_P(ServerDispatchTest, BlockChangePropagates) {
  build(GetParam());
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {12.5, 1, 8.5});
  a.join();
  b.join();
  step({&a, &b}, 2);
  a.clear();
  b.clear();

  a.send(protocol::PlayerPlace{{9, 1, 9}, world::Block::Planks});
  step({&a, &b}, 2);

  EXPECT_EQ(world_.block_at({9, 1, 9}), world::Block::Planks);
  const auto* bc = b.last<protocol::BlockChange>();
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(bc->pos, (world::BlockPos{9, 1, 9}));
  EXPECT_EQ(bc->block, world::Block::Planks);
  // The originator is not re-notified of its own edit.
  EXPECT_EQ(a.count<protocol::BlockChange>(), 0u);
  EXPECT_EQ(a.count<protocol::MultiBlockChange>(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Paths, ServerDispatchTest, ::testing::Values("", "zero"),
                         [](const auto& info) {
                           return std::string(info.param).empty() ? "vanilla"
                                                                  : "dyconit_zero";
                         });

TEST_F(ServerTest, InfinitePolicyHoldsUpdates) {
  build("infinite");
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {12.5, 1, 8.5});
  a.join();
  b.join();
  step({&a, &b}, 2);
  b.clear();
  a.send(protocol::PlayerMove{{9.5, 1, 8.5}, 0, 0});
  step({&a, &b}, 10);
  EXPECT_EQ(b.total_moves(), 0u);  // queued forever, never flushed
  EXPECT_GT(server_->dyconits().total_queued(), 0u);
}

TEST_F(ServerTest, EnvironmentTicksRegrowGrassAndPropagate) {
  // Flat world with exposed dirt; environmental ticks regrow grass and the
  // change reaches viewers through the normal dispatch path.
  for (int x = 0; x < 16; ++x) {
    for (int z = 0; z < 16; ++z) world_.set_block({x, 1, z}, world::Block::Dirt);
  }
  ServerConfig cfg;
  cfg.view_distance = 2;
  cfg.max_chunk_sends_per_tick = 100;
  cfg.use_dyconits = false;
  cfg.env_ticks_per_tick = 32;
  cfg.net_cost_per_frame = SimDuration::micros(0);
  cfg.net_cost_per_byte_ns = 0.0;
  cfg.spawn_provider = [this](const std::string& name) { return spawns_[name]; };
  server_ = std::make_unique<GameServer>(clock_, net_, world_, nullptr, std::move(cfg));

  TestClient a = make_client("alice", {8.5, 2, 8.5});
  a.join();
  step({&a}, 2);
  a.clear();
  step({&a}, 200);

  EXPECT_GT(server_->env_changes(), 10u);
  ASSERT_GT(a.count<protocol::BlockChange>(), 0u);
  EXPECT_EQ(a.last<protocol::BlockChange>()->block, world::Block::Grass);
}

TEST_F(ServerTest, EnvironmentTicksDisabledByDefault) {
  build("");
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 100);
  EXPECT_EQ(server_->env_changes(), 0u);
}

TEST_F(ServerTest, SnapshotCatchUpResendsChunkState) {
  // Infinite bounds + a tiny snapshot threshold: deltas are never flushed,
  // so a viewer that falls far behind is caught up with a ChunkData resend.
  ServerConfig cfg;
  cfg.view_distance = 2;
  cfg.max_chunk_sends_per_tick = 100;
  cfg.use_dyconits = true;
  cfg.snapshot_queue_threshold = 4;
  cfg.net_cost_per_frame = SimDuration::micros(0);
  cfg.net_cost_per_byte_ns = 0.0;
  cfg.spawn_provider = [this](const std::string& name) { return spawns_[name]; };
  server_ = std::make_unique<GameServer>(clock_, net_, world_,
                                         dyconit::make_policy("infinite"), std::move(cfg));

  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {12.5, 1, 8.5});
  a.join();
  b.join();
  step({&a, &b}, 2);
  b.clear();

  // Alice edits 8 distinct blocks in one chunk: exceeds bob's threshold.
  for (int i = 0; i < 8; ++i) {
    a.send(protocol::PlayerPlace{{1 + i, 1, 1}, world::Block::Planks});
  }
  step({&a, &b}, 4);

  EXPECT_GT(server_->dyconit_stats().snapshots_requested, 0u);
  EXPECT_EQ(b.count<protocol::BlockChange>(), 0u);       // deltas never flushed
  EXPECT_EQ(b.count<protocol::MultiBlockChange>(), 0u);
  ASSERT_GE(b.count<protocol::ChunkData>(), 1u);         // fresh snapshot instead
  const auto* cd = b.last<protocol::ChunkData>();
  world::Chunk decoded(cd->pos);
  ASSERT_TRUE(decoded.decode_rle(cd->rle.data(), cd->rle.size()));
  EXPECT_EQ(decoded.get_local(3, 1, 1), world::Block::Planks);
}

TEST_F(ServerTest, AntiTeleportRejected) {
  build("");
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  a.send(protocol::PlayerMove{{100.5, 1, 8.5}, 0, 0});  // 92 blocks in one message
  step({&a}, 2);
  const entity::Entity* e = server_->entities().find(server_->entity_of(a.ep()));
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->pos.x, 8.5);  // unchanged
}

TEST_F(ServerTest, DigBedrockRejected) {
  build("");
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  a.send(protocol::PlayerDig{{8, 0, 8}});  // bedrock floor
  step({&a}, 2);
  EXPECT_EQ(world_.block_at({8, 0, 8}), world::Block::Bedrock);
}

TEST_F(ServerTest, PlaceIntoOccupiedRejected) {
  build("");
  world_.set_block({9, 1, 9}, world::Block::Stone);
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  a.send(protocol::PlayerPlace{{9, 1, 9}, world::Block::Planks});
  step({&a}, 2);
  EXPECT_EQ(world_.block_at({9, 1, 9}), world::Block::Stone);
}

// --------------------------------------------------------------- survival

class SurvivalTest : public ServerTest {
 protected:
  void build_survival(SimDuration item_ttl = SimDuration::seconds(60)) {
    ServerConfig cfg;
    cfg.view_distance = 2;
    cfg.max_chunk_sends_per_tick = 100;
    cfg.use_dyconits = false;
    cfg.survival_mode = true;
    cfg.item_ttl = item_ttl;
    cfg.net_cost_per_frame = SimDuration::micros(0);
    cfg.net_cost_per_byte_ns = 0.0;
    cfg.spawn_provider = [this](const std::string& name) { return spawns_[name]; };
    server_ = std::make_unique<GameServer>(clock_, net_, world_, nullptr, std::move(cfg));
  }
};

TEST_F(SurvivalTest, DigDropsAnItemEntity) {
  build_survival();
  world_.set_block({10, 1, 8}, world::Block::Stone);
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {12.5, 1, 10.5});
  a.join();
  b.join();
  step({&a, &b}, 2);
  b.clear();

  a.send(protocol::PlayerDig{{10, 1, 8}});
  step({&a, &b}, 2);

  EXPECT_EQ(world_.block_at({10, 1, 8}), world::Block::Air);
  EXPECT_EQ(server_->items_dropped(), 1u);
  const auto* spawn = b.last<protocol::EntitySpawn>();
  ASSERT_NE(spawn, nullptr);
  EXPECT_EQ(spawn->kind, entity::EntityKind::Item);
  EXPECT_EQ(static_cast<world::Block>(spawn->data), world::Block::Stone);
}

TEST_F(SurvivalTest, WalkingOverItemPicksItUp) {
  build_survival();
  world_.set_block({10, 1, 8}, world::Block::Stone);
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  a.send(protocol::PlayerDig{{10, 1, 8}});
  step({&a}, 2);
  // Walk onto the drop.
  a.send(protocol::PlayerMove{{10.5, 1, 8.5}, 0, 0});
  step({&a}, 3);

  EXPECT_EQ(server_->items_picked_up(), 1u);
  EXPECT_EQ(server_->inventory_of(a.ep(), world::Block::Stone), 1u);
  const auto* inv = a.last<protocol::InventoryUpdate>();
  ASSERT_NE(inv, nullptr);
  EXPECT_EQ(inv->item, world::Block::Stone);
  EXPECT_EQ(inv->count, 1u);
  // The item entity is gone for everyone.
  EXPECT_GE(a.count<protocol::EntityDespawn>(), 1u);
}

TEST_F(SurvivalTest, PlacementConsumesInventoryAndRejectsWhenEmpty) {
  build_survival();
  world_.set_block({10, 1, 8}, world::Block::Stone);
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);

  // Empty-handed placement is rejected.
  a.send(protocol::PlayerPlace{{9, 1, 9}, world::Block::Stone});
  step({&a}, 2);
  EXPECT_EQ(world_.block_at({9, 1, 9}), world::Block::Air);

  // Gather one stone, then place it.
  a.send(protocol::PlayerDig{{10, 1, 8}});
  step({&a}, 2);
  a.send(protocol::PlayerMove{{10.5, 1, 8.5}, 0, 0});
  step({&a}, 3);
  ASSERT_EQ(server_->inventory_of(a.ep(), world::Block::Stone), 1u);

  a.send(protocol::PlayerPlace{{9, 1, 9}, world::Block::Stone});
  step({&a}, 2);
  EXPECT_EQ(world_.block_at({9, 1, 9}), world::Block::Stone);
  EXPECT_EQ(server_->inventory_of(a.ep(), world::Block::Stone), 0u);
  const auto* inv = a.last<protocol::InventoryUpdate>();
  ASSERT_NE(inv, nullptr);
  EXPECT_EQ(inv->count, 0u);

  // And now it is empty again.
  a.send(protocol::PlayerPlace{{9, 2, 9}, world::Block::Stone});
  step({&a}, 2);
  EXPECT_EQ(world_.block_at({9, 2, 9}), world::Block::Air);
}

TEST_F(SurvivalTest, UnclaimedItemsExpire) {
  build_survival(SimDuration::millis(500));
  world_.set_block({12, 1, 12}, world::Block::Stone);  // out of pickup range
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  a.send(protocol::PlayerDig{{12, 1, 12}});
  step({&a}, 2);
  EXPECT_EQ(server_->items_dropped(), 1u);
  step({&a}, 15);  // > 500 ms
  EXPECT_EQ(server_->items_expired(), 1u);
  EXPECT_EQ(server_->items_picked_up(), 0u);
}

TEST_F(SurvivalTest, CreativeModeDropsNothing) {
  build("");  // default config: creative
  world_.set_block({10, 1, 8}, world::Block::Stone);
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  a.send(protocol::PlayerDig{{10, 1, 8}});
  step({&a}, 2);
  EXPECT_EQ(server_->items_dropped(), 0u);
  EXPECT_EQ(world_.block_at({10, 1, 8}), world::Block::Air);
}

// --------------------------------------------------------------- interest

TEST_F(ServerTest, WalkingAwayUnloadsChunksAndDespawns) {
  build("");
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {12.5, 1, 8.5});
  a.join();
  b.join();
  step({&a, &b}, 2);
  a.clear();

  // Walk alice east in legal steps until far beyond view+margin.
  double x = 8.5;
  for (int i = 0; i < 20; ++i) {
    x += 10.0;
    a.send(protocol::PlayerMove{{x, 1, 8.5}, 0, 0});
    step({&a, &b});
  }
  EXPECT_GT(a.count<protocol::UnloadChunk>(), 0u);
  EXPECT_EQ(a.count<protocol::EntityDespawn>(), 1u);  // bob left behind
  EXPECT_GT(a.count<protocol::ChunkData>(), 0u);      // new terrain streamed
  EXPECT_EQ(b.count<protocol::EntityDespawn>(), 1u);  // alice left bob's view
}

TEST_F(ServerTest, ReturningPlayerRespawnsForViewer) {
  build("");
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {12.5, 1, 8.5});
  a.join();
  b.join();
  step({&a, &b}, 2);

  double x = 8.5;
  for (int i = 0; i < 12; ++i) {
    x += 10.0;
    a.send(protocol::PlayerMove{{x, 1, 8.5}, 0, 0});
    step({&a, &b});
  }
  b.clear();
  for (int i = 0; i < 12; ++i) {
    x -= 10.0;
    a.send(protocol::PlayerMove{{x, 1, 8.5}, 0, 0});
    step({&a, &b});
  }
  EXPECT_EQ(b.count<protocol::EntitySpawn>(), 1u);  // alice came back
}

TEST_F(ServerTest, DyconitSubscriptionsFollowInterest) {
  build("zero");
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  // 25 chunks in view, two domains each.
  const auto sub = a.ep();
  EXPECT_TRUE(server_->dyconits().is_subscribed(
      dyconit::DyconitId::chunk_entities({0, 0}), sub));
  EXPECT_TRUE(server_->dyconits().is_subscribed(
      dyconit::DyconitId::chunk_blocks({2, 2}), sub));
  EXPECT_FALSE(server_->dyconits().is_subscribed(
      dyconit::DyconitId::chunk_blocks({3, 0}), sub));
}

TEST_F(ServerTest, VanillaMoveReachesExactlyTheViewersThatKnowTheEntity) {
  build("");
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {12.5, 1, 8.5});
  TestClient c = make_client("carol", {500.5, 1, 8.5});
  a.join();
  b.join();
  c.join();
  step({&a, &b, &c}, 2);
  const entity::EntityId alice = server_->entity_of(a.ep());
  const auto moves_of = [](const TestClient& t, entity::EntityId id, std::size_t from) {
    std::size_t n = 0;
    for (std::size_t i = from; i < t.inbox().size(); ++i) {
      if (const auto* mv = std::get_if<protocol::EntityMove>(&t.inbox()[i])) {
        n += mv->id == id ? 1 : 0;
      }
    }
    return n;
  };
  b.clear();
  c.clear();

  // bob was sent alice's spawn and gets her move; carol, who never was,
  // gets nothing.
  a.send(protocol::PlayerMove{{9.5, 1, 8.5}, 0, 0});
  step({&a, &b, &c});
  EXPECT_EQ(moves_of(b, alice, 0), 1u);
  EXPECT_EQ(moves_of(c, alice, 0), 0u);

  // Alice walks east out of bob's view: bob is sent her despawn, and none
  // of her later moves reach him.
  double x = 9.5;
  for (int i = 0; i < 12; ++i) {
    x += 8.0;
    a.send(protocol::PlayerMove{{x, 1, 8.5}, 0, 0});
    step({&a, &b, &c});
  }
  std::size_t despawned_at = b.inbox().size();
  for (std::size_t i = 0; i < b.inbox().size(); ++i) {
    const auto* d = std::get_if<protocol::EntityDespawn>(&b.inbox()[i]);
    if (d != nullptr && d->id == alice) despawned_at = i;
  }
  ASSERT_LT(despawned_at, b.inbox().size()) << "bob was never sent alice's despawn";
  EXPECT_GT(moves_of(b, alice, 0), 1u);
  EXPECT_EQ(moves_of(b, alice, despawned_at), 0u);
  EXPECT_EQ(moves_of(c, alice, 0), 0u);
}

TEST_F(ServerTest, ResyncReplaysSpawnsInAscendingEntityId) {
  // Mobs spread over the view at seeded random positions: the client first
  // learns of them in chunk-streaming order, not in id order.
  build("", [](ServerConfig& cfg) {
    cfg.mob_count = 40;
    cfg.mob_seed = 7;
    cfg.mob_spawn_radius = 20.0;
  });
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  std::vector<entity::EntityId> ids;
  for (const auto& m : a.inbox()) {
    if (const auto* sp = std::get_if<protocol::EntitySpawn>(&m)) ids.push_back(sp->id);
  }
  ASSERT_EQ(ids.size(), 40u);
  ASSERT_FALSE(std::is_sorted(ids.begin(), ids.end()));
  a.clear();

  a.send(protocol::ResyncRequest{0});
  step({&a});
  std::vector<entity::EntityId> replayed;
  for (const auto& m : a.inbox()) {
    if (const auto* sp = std::get_if<protocol::EntitySpawn>(&m)) replayed.push_back(sp->id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(replayed, ids);
}

// -------------------------------------------------------------- keepalive

TEST_F(ServerTest, KeepAliveRoundtripKeepsSession) {
  build("");
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  std::size_t keepalives = 0;
  for (int t = 0; t < 1000; ++t) {
    step({&a});
    if (a.count<protocol::KeepAlive>() > keepalives) {
      keepalives = a.count<protocol::KeepAlive>();
      a.send(protocol::KeepAliveReply{a.last<protocol::KeepAlive>()->nonce});
    }
  }
  EXPECT_GE(keepalives, 9u);
  EXPECT_EQ(server_->player_count(), 1u);
  EXPECT_EQ(server_->sessions_timed_out(), 0u);
}

TEST_F(ServerTest, KeepAliveMeasuresRtt) {
  build("");
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  EXPECT_EQ(server_->rtt_of(a.ep()).count_micros(), 0);  // not yet measured
  std::size_t seen = 0;
  for (int t = 0; t < 450; ++t) {
    step({&a});
    if (a.count<protocol::KeepAlive>() > seen) {
      seen = a.count<protocol::KeepAlive>();
      a.send(protocol::KeepAliveReply{a.last<protocol::KeepAlive>()->nonce});
    }
  }
  const SimDuration rtt = server_->rtt_of(a.ep());
  // Zero-latency links, but the reply is only processed on the next tick:
  // RTT is one-to-two ticks of scheduling delay.
  EXPECT_GT(rtt.count_millis(), 0);
  EXPECT_LE(rtt.count_millis(), 101);
  EXPECT_EQ(server_->rtt_of(99999).count_micros(), 0);  // unknown subscriber
}

TEST_F(ServerTest, SilentClientTimesOut) {
  build("");
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {12.5, 1, 8.5});
  a.join();
  b.join();
  step({&a, &b}, 2);
  // bob answers keep-alives, alice never does.
  for (int t = 0; t < 600; ++t) {
    step({&b});  // alice does not even poll
    if (const auto* ka = b.last<protocol::KeepAlive>()) {
      b.send(protocol::KeepAliveReply{ka->nonce});
    }
  }
  EXPECT_EQ(server_->player_count(), 1u);
  EXPECT_EQ(server_->sessions_timed_out(), 1u);
  EXPECT_EQ(b.count<protocol::EntityDespawn>(), 1u);  // alice despawned
}

// ------------------------------------------------------------------- chat

TEST_F(ServerTest, ChatBroadcastsToEveryone) {
  build("");
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {500.5, 1, 500.5});  // out of view range
  a.join();
  b.join();
  step({&a, &b}, 2);
  a.send(protocol::ChatSend{"hello"});
  step({&a, &b}, 2);
  ASSERT_EQ(b.count<protocol::ChatBroadcast>(), 1u);
  EXPECT_EQ(b.last<protocol::ChatBroadcast>()->text, "hello");
  EXPECT_EQ(b.last<protocol::ChatBroadcast>()->from, server_->entity_of(a.ep()));
  EXPECT_EQ(a.count<protocol::ChatBroadcast>(), 1u);  // echoed to sender
}

// ------------------------------------------------------------- disconnect

TEST_F(ServerTest, DisconnectCleansUpEverything) {
  build("zero");
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {12.5, 1, 8.5});
  a.join();
  b.join();
  step({&a, &b}, 2);
  const auto alice_entity = server_->entity_of(a.ep());
  b.clear();

  server_->disconnect(a.ep());
  step({&b}, 2);

  EXPECT_EQ(server_->player_count(), 1u);
  EXPECT_EQ(server_->entities().find(alice_entity), nullptr);
  EXPECT_EQ(b.count<protocol::EntityDespawn>(), 1u);
  EXPECT_FALSE(server_->dyconits().is_subscribed(
      dyconit::DyconitId::chunk_entities({0, 0}), a.ep()));
  // Double disconnect is harmless.
  server_->disconnect(a.ep());
}

TEST_F(ServerTest, MalformedFrameIgnored) {
  build("");
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 2);
  net::Frame junk;
  junk.tag = 13;
  junk.payload = {0xFF, 0xFF, 0xFF};
  net_.send(a.ep(), server_->endpoint(), std::move(junk));
  step({&a}, 2);
  EXPECT_EQ(server_->player_count(), 1u);  // server survives
}

TEST_F(ServerTest, TickCpuIsMeasured) {
  build("");
  TestClient a = make_client("alice");
  a.join();
  step({&a}, 5);
  EXPECT_EQ(server_->tick_cpu_ms().count(), 5u);
  EXPECT_EQ(server_->tick_count(), 5u);
}

TEST_F(ServerTest, PlayerViewsReflectSessions) {
  build("");
  TestClient a = make_client("alice");
  TestClient b = make_client("bob", {20.5, 1, 20.5});
  a.join();
  b.join();
  step({&a, &b}, 2);
  const auto views = server_->player_views();
  EXPECT_EQ(views.size(), 2u);
  for (const auto& v : views) {
    EXPECT_NE(v.sub, 0u);
    EXPECT_NE(v.entity, 0u);
  }
}

}  // namespace
}  // namespace dyconits::server
