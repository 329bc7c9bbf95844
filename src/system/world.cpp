#include "system/world.hpp"

#include <algorithm>
#include <cstdio>

#include "util/assert.hpp"

namespace air::system {

namespace {

/// The module's next online window close (kInfiniteTime without a plane).
Ticks next_close(const Module& module) {
  const telemetry::OnlinePlane* online = module.online();
  return online != nullptr ? online->next_close_tick() : kInfiniteTime;
}

}  // namespace

World::~World() = default;

Module& World::add_module(ModuleConfig config) {
  const ModuleId id = config.id;
  // The bus recorder owns the 0xFFFF origin namespace; a module there would
  // alias its span ids and break cross-module flow stitching.
  AIR_ASSERT_MSG(static_cast<std::uint32_t>(id.value()) !=
                     telemetry::SpanRecorder::kBusOrigin,
                 "module id collides with the bus span origin");
  for (const auto& existing : modules_) {
    AIR_ASSERT_MSG(existing->config().id != id, "duplicate module id");
  }
  modules_.push_back(std::make_unique<Module>(std::move(config)));
  staged_.emplace_back();
  Module& module = *modules_.back();
  mods_.push_back(&module);
  live_.push_back(kWarping);  // refresh_columns() sets the real state
  lag_.push_back(0);
  quiet_.push_back(0);
  close_.push_back(kInfiniteTime);
  staged_dirty_.push_back(0);
  // Telemetry state must be module-confined: no recorder may be shared
  // with the bus (or, by unique origin above, with any other module).
  AIR_ASSERT_MSG(module.spans().origin() != bus_spans_.origin(),
                 "module span recorder aliases the bus recorder");
  // The bus recorder is bounded like its modules: while every module keeps
  // a bounded span ring, it keeps the largest of their capacities; one
  // unbounded module makes it unbounded too (DESIGN.md §13).
  std::size_t bus_capacity = module.config().telemetry.spans_capacity;
  if (modules_.size() > 1 && bus_capacity != 0) {
    const std::size_t current = bus_spans_.capacity();
    bus_capacity = current == 0 ? 0 : std::max(current, bus_capacity);
  }
  if (bus_capacity != bus_spans_.capacity()) {
    bus_spans_.set_capacity(bus_capacity);
  }

  // Remote sends are staged, never injected directly: an epoch runs each
  // due module through the whole span before the next one starts, so
  // direct sends would reach the bus grouped by module, not by tick. The
  // driver merges staged frames into the bus at the barrier in (tick,
  // module attach order), which is exactly the order direct Bus::send
  // calls had under per-tick lockstep -- TDMA arbitration and bus span
  // numbering stay the same on both drivers.
  const std::size_t index = modules_.size() - 1;
  module.remote_send = [this, index](const ipc::RemotePortRef& dest,
                                     const ipc::Message& message,
                                     ipc::ChannelKind kind) {
    staged_[index].push_back({mods_[index]->now(), dest, message, kind});
    staged_dirty_[index] = 1;
  };
  // Deliveries land at the barrier, serially. A module whose warp the
  // epoch driver deferred is brought to the delivery tick first, and its
  // headroom is re-read afterwards (the frame may have woken a process).
  bus_.attach(id, [this, index](PartitionId partition, const std::string& port,
                                const ipc::Message& message,
                                ipc::ChannelKind kind) {
    settle(index);
    Module& target = *mods_[index];
    target.deliver_remote(partition, port, message, kind);
    quiet_[index] = target.warp_headroom();
  });
  return module;
}

void World::enable_online(telemetry::OnlineOptions options) {
  AIR_ASSERT_MSG(now_ == 0, "enable the bus plane before the first run");
  bus_plane_ = std::make_unique<telemetry::BusPlane>(options, "bus");
  bus_plane_->set_spans(&bus_spans_);
}

const telemetry::BusSample& World::sample_bus() const {
  telemetry::BusSample& sample = bus_sample_;
  const net::BusStats& stats = bus_.stats();
  sample.frames_sent = stats.frames_sent;
  sample.frames_delivered = stats.frames_delivered;
  sample.backlog = bus_.pending_total();
  sample.spans_dropped = bus_spans_.dropped_spans();
  bus_.station_stats(station_scratch_);
  sample.stations.clear();
  sample.stations.reserve(station_scratch_.size());
  for (const net::StationStats& s : station_scratch_) {
    telemetry::StationWindow w;
    w.module = s.module.value();
    w.frames_sent = static_cast<std::int64_t>(s.frames_sent);
    w.frames_delivered = static_cast<std::int64_t>(s.frames_delivered);
    w.backlog = static_cast<std::int64_t>(s.backlog);
    sample.stations.push_back(w);
  }
  return sample;
}

void World::refresh_live() {
  // `stopped` is monotone, so demotion is the only transition; scan the
  // compact byte column and only dereference modules still marked live.
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i] != kStopped && mods_[i]->stopped()) live_[i] = kStopped;
  }
}

void World::refresh_columns() {
  refresh_live();
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i] == kStopped) continue;
    const Module& module = *mods_[i];
    live_[i] = module.time_warp_enabled() ? kWarping : kStepping;
    quiet_[i] = module.warp_headroom();
    close_[i] = next_close(module);
  }
}

void World::settle(std::size_t i) {
  if (lag_[i] == 0) return;
  // lag_ <= quiet_ by the due test, so this run is one pure warp.
  mods_[i]->run(lag_[i]);
  lag_[i] = 0;
  close_[i] = next_close(*mods_[i]);
  ++stats_.settles;
}

Ticks World::epoch_horizon(Ticks limit) const {
  AIR_ASSERT(limit > 0);
  Ticks horizon = limit;
  // Pre-existing traffic: nothing already queued or in flight may arrive
  // before the epoch's final tick (arrival exactly there is fine -- every
  // module has completed that tick when the barrier replays the bus, which
  // is precisely when lockstep would have delivered).
  const Ticks next = bus_.next_delivery(now_);
  if (next < kInfiniteTime) horizon = std::min(horizon, next - now_ + 1);
  // New traffic: a module quiescent for q ticks cannot emit a frame before
  // now + q, so nothing it sends can arrive before now + q + delay. A busy
  // module (q = 0) may send on the very next tick. A module lagging by l
  // ticks has warp_headroom() - l ticks left at now (split-warp property),
  // so the columns give exactly the headroom a module read would.
  const Ticks delay = bus_.config().propagation_delay;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i] == kStopped) continue;
    const Ticks quiet = quiet_[i] - lag_[i];
    if (quiet >= kInfiniteTime - delay - 1) continue;  // no constraint
    horizon = std::min(horizon, quiet + delay + 1);
  }
  return horizon > 1 ? horizon : 1;
}

void World::merge_and_run_bus(Ticks start, Ticks ticks) {
  // The dirty byte column is the only full-width scan: modules that stayed
  // silent cost one byte load each.
  merge_list_.clear();
  for (std::size_t i = 0; i < staged_dirty_.size(); ++i) {
    if (staged_dirty_[i] != 0) merge_list_.push_back(i);
  }
  if (merge_list_.empty() && bus_.pending_total() == 0) {
    // Every earlier tick of the span is provably a no-op (no queued
    // frames, and the horizon placed the first possible arrival at the
    // final tick): jump straight to the delivery edge. Digest boundaries
    // inside the skipped prefix close with the frozen pre-delivery stats,
    // exactly what per-tick replay would have sampled there.
    if (bus_plane_ != nullptr && ticks > 1) {
      bus_plane_->close_through(start + ticks - 2, sample_bus());
    }
    bus_.tick(start + ticks - 1);
    if (bus_plane_ != nullptr) {
      bus_plane_->close_through(start + ticks - 1, sample_bus());
    }
    return;
  }
  // Per-tick merge walks only the dirty modules (attach order is preserved
  // because merge_list_ is built in index order); the cursors are member
  // scratch so an epoch barrier allocates nothing in the steady state.
  merge_cursor_.assign(merge_list_.size(), 0);
  for (Ticks u = start; u < start + ticks; ++u) {
    for (std::size_t m = 0; m < merge_list_.size(); ++m) {
      const std::size_t i = merge_list_[m];
      std::vector<StagedFrame>& queue = staged_[i];
      std::size_t& next = merge_cursor_[m];
      while (next < queue.size() && queue[next].tick == u) {
        bus_.send(mods_[i]->config().id, queue[next].dest,
                  queue[next].message, queue[next].kind, u);
        ++stats_.frames_merged;
        ++next;
      }
    }
    {
      telemetry::HostProfiler::Scope scope(profiler_,
                                           telemetry::ProfilePoint::kBusPump);
      bus_.tick(u);
    }
    if (bus_plane_ != nullptr && bus_plane_->next_close_tick() == u) {
      bus_plane_->close_through(u, sample_bus());
    }
  }
  for (std::size_t m = 0; m < merge_list_.size(); ++m) {
    const std::size_t i = merge_list_[m];
    AIR_ASSERT_MSG(merge_cursor_[m] == staged_[i].size(),
                   "staged frame timestamped outside its epoch");
    staged_[i].clear();
    staged_dirty_[i] = 0;
  }
}

void World::run(Ticks ticks) {
  if (ticks <= 0) return;
  // Every module sits at now_ (lag 0) between runs.
  refresh_columns();
  Ticks done = 0;
  while (done < ticks) {
    // One epoch round is the World profiler's sampling unit. The scopes
    // attribute the cross-module machinery only; module-interior cost
    // lands in each module's own profiler tree.
    profiler_.begin_tick();
    telemetry::HostProfiler::Scope epoch_scope(
        profiler_, telemetry::ProfilePoint::kEpoch);
    const Ticks span = epoch_horizon(ticks - done);
    const Ticks start = now_;
    // Due test: a module whose next event lies past the epoch would only
    // warp through it, so it just accrues the span as lag. A due module
    // runs its deferred warp and the epoch in one call, as soon as the scan
    // reaches it: its sends are staged, so it cannot touch another module.
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i] == kStopped) continue;
      if (live_[i] != kStepping && quiet_[i] - lag_[i] >= span &&
          close_[i] >= start + span) {
        lag_[i] += span;
        continue;
      }
      Module& module = *mods_[i];
      module.run(lag_[i] + span);
      lag_[i] = 0;
      quiet_[i] = module.warp_headroom();
      close_[i] = next_close(module);
      // Only a module that ran can have stopped; settles are pure warps.
      if (module.stopped()) live_[i] = kStopped;
      ++stats_.module_runs;
    }
    {
      telemetry::HostProfiler::Scope barrier_scope(
          profiler_, telemetry::ProfilePoint::kEpochBarrier);
      merge_and_run_bus(start, span);
    }
    now_ += span;
    done += span;
    ++stats_.epochs;
    stats_.epoch_ticks += static_cast<std::uint64_t>(span);
  }
  for (std::size_t i = 0; i < lag_.size(); ++i) settle(i);
}

Ticks World::lockstep_headroom(Ticks limit) {
  // Fast recheck: whatever forced stepping last tick almost always still
  // does; while it holds, the scan over every other module is skipped.
  if (warp_blocker_ != kUnblocked) {
    if (warp_blocker_ == kBusBlocked) {
      if (bus_.idle_ticks(now_) == 0) return 0;
    } else {
      const Module& module = *modules_[warp_blocker_];
      if (!module.stopped() &&
          (!module.time_warp_enabled() || module.warp_headroom() == 0)) {
        return 0;
      }
    }
    warp_blocker_ = kUnblocked;  // the blocker cleared: full rescan
  }
  Ticks n = std::min(limit, bus_.idle_ticks(now_));
  if (n == 0) {
    warp_blocker_ = kBusBlocked;
    return 0;
  }
  // A stopped module never changes state again, so it bounds nothing.
  refresh_live();
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i] == kStopped) continue;
    const Module& module = *mods_[i];
    if (!module.time_warp_enabled()) {
      warp_blocker_ = i;
      return 0;
    }
    const Ticks headroom = module.warp_headroom();
    if (headroom == 0) {
      warp_blocker_ = i;
      return 0;
    }
    n = std::min(n, headroom);
  }
  return n;
}

void World::run_lockstep(Ticks ticks) {
  if (ticks <= 0) return;
  Ticks done = 0;
  while (done < ticks) {
    // Lockstep time warp: skip a span only when *every* module is
    // quiescent for it and the bus would neither transmit nor deliver.
    const Ticks n = lockstep_headroom(ticks - done);
    if (n > 0) {
      // warp_advance is a no-op on stopped modules, so walking only the
      // live column is byte-identical to walking every module.
      for (std::size_t i = 0; i < live_.size(); ++i) {
        if (live_[i] != kStopped) mods_[i]->warp_advance(n);
      }
      // Bus stats are provably frozen across the warped span (no queued
      // frames, no delivery before its end), so boundaries inside it close
      // with exactly the values per-tick stepping would have sampled.
      if (bus_plane_ != nullptr) {
        bus_plane_->close_through(now_ + n - 1, sample_bus());
      }
      now_ += n;
      done += n;
      stats_.lockstep_warped += static_cast<std::uint64_t>(n);
      ++stats_.lockstep_spans;
      continue;
    }
    profiler_.begin_tick();
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i] != kStopped) mods_[i]->tick_once();
    }
    // Inject this tick's staged frames in module attach order -- exactly
    // where the modules' direct Bus::send calls used to land. The dirty
    // column keeps the injection sweep O(senders), not O(modules).
    for (std::size_t i = 0; i < staged_dirty_.size(); ++i) {
      if (staged_dirty_[i] == 0) continue;
      for (const StagedFrame& frame : staged_[i]) {
        bus_.send(mods_[i]->config().id, frame.dest, frame.message,
                  frame.kind, now_);
      }
      staged_[i].clear();
      staged_dirty_[i] = 0;
    }
    {
      telemetry::HostProfiler::Scope scope(profiler_,
                                           telemetry::ProfilePoint::kBusPump);
      bus_.tick(now_);
    }
    if (bus_plane_ != nullptr && bus_plane_->next_close_tick() == now_) {
      bus_plane_->close_through(now_, sample_bus());
    }
    ++now_;
    ++done;
    ++stats_.lockstep_ticks;
  }
}

std::string World::status_report() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof line, "world t=%lld  modules=%zu\n",
                static_cast<long long>(now_), modules_.size());
  out += line;
  const double mean_epoch =
      stats_.epochs > 0 ? static_cast<double>(stats_.epoch_ticks) /
                              static_cast<double>(stats_.epochs)
                        : 0.0;
  std::snprintf(line, sizeof line,
                "  epochs: %llu (ticks=%llu, mean length=%.1f)\n",
                static_cast<unsigned long long>(stats_.epochs),
                static_cast<unsigned long long>(stats_.epoch_ticks),
                mean_epoch);
  out += line;
  std::snprintf(line, sizeof line,
                "  sparse: module runs=%llu settles=%llu\n",
                static_cast<unsigned long long>(stats_.module_runs),
                static_cast<unsigned long long>(stats_.settles));
  out += line;
  std::snprintf(line, sizeof line,
                "  lockstep: ticks=%llu warped=%llu spans=%llu\n",
                static_cast<unsigned long long>(stats_.lockstep_ticks),
                static_cast<unsigned long long>(stats_.lockstep_warped),
                static_cast<unsigned long long>(stats_.lockstep_spans));
  out += line;
  const net::BusStats& bus = bus_.stats();
  std::snprintf(line, sizeof line,
                "  bus: sent=%llu delivered=%llu dropped=%llu merged=%llu\n",
                static_cast<unsigned long long>(bus.frames_sent),
                static_cast<unsigned long long>(bus.frames_delivered),
                static_cast<unsigned long long>(bus.frames_dropped),
                static_cast<unsigned long long>(stats_.frames_merged));
  out += line;
  const std::size_t span_capacity = bus_spans_.capacity();
  std::snprintf(line, sizeof line,
                "  bus spans: recorded=%llu retained=%zu dropped=%llu "
                "capacity=%s\n",
                static_cast<unsigned long long>(bus_spans_.recorded_spans()),
                bus_spans_.retained_spans(),
                static_cast<unsigned long long>(bus_spans_.dropped_spans()),
                span_capacity == 0 ? "unbounded"
                                   : std::to_string(span_capacity).c_str());
  out += line;
  const telemetry::StringArena::Stats& arena = arena_.stats();
  std::snprintf(line, sizeof line,
                "  bus arena: symbols=%zu blocks=%zu bytes=%zu "
                "high_water=%zu trims=%llu\n",
                arena.symbols, arena.blocks, arena.bytes_used,
                arena.high_water,
                static_cast<unsigned long long>(arena.trims));
  out += line;
  if (profiler_.enabled() && profiler_.ticks() > 0) {
    const telemetry::HostProfiler::PathStats epoch =
        profiler_.point_stats(telemetry::ProfilePoint::kEpoch);
    std::snprintf(line, sizeof line,
                  "  profile: sampled=%llu rounds (stride %u), "
                  "mean epoch=%.1f ns\n",
                  static_cast<unsigned long long>(profiler_.ticks()),
                  profiler_.stride(),
                  epoch.calls > 0 ? static_cast<double>(epoch.total_ns) /
                                        static_cast<double>(epoch.calls)
                                  : 0.0);
    out += line;
  }
  if (bus_plane_ != nullptr) out += bus_plane_->summary_line();
  return out;
}

}  // namespace air::system
