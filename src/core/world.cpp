#include "core/world.hpp"

#include <cstdio>
#include <cstdlib>

#include "core/export.hpp"

namespace xmp::core {

namespace {

std::unique_ptr<obs::TimelineTracer> make_tracer(const ExperimentConfig& cfg) {
  if (!cfg.obs.tracing()) return nullptr;
  obs::TimelineTracer::Config oc;
  oc.capacity = cfg.obs.capacity;
  oc.categories = cfg.obs.categories;
  return std::make_unique<obs::TimelineTracer>(oc);
}

topo::FatTree::Config fat_tree_config(const ExperimentConfig& cfg) {
  topo::FatTree::Config tc;
  tc.k = cfg.fat_tree_k;
  tc.queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.queue.capacity_packets = cfg.queue_capacity;
  tc.queue.mark_threshold = cfg.mark_threshold;
  return tc;
}

// The fabric must be attached before the topology is built: link and host
// construction consults it to place every node on its shard.
net::Network& attach(net::Network& netw, net::ShardFabric* fabric) {
  if (fabric != nullptr) netw.set_shard_fabric(fabric);
  return netw;
}

void save_tracer(ckpt::Saver& s, const obs::TimelineTracer& t) {
  s.u64(t.size());
  t.for_each([&](const obs::TimelineEvent& e) {
    s.i64(e.t_ns);
    s.f64(e.a);
    s.f64(e.b);
    s.u32(e.id);
    s.u8(static_cast<std::uint8_t>(e.kind));
    s.u8(e.subflow);
    s.u16(e.aux);
  });
  s.u64(t.dropped());
}

// Consumes one tracer section; applies it when `t` is non-null (presence
// flags let an untraced checkpoint be replayed with --trace and vice versa).
void load_tracer(ckpt::Loader& l, obs::TimelineTracer* t) {
  const std::uint64_t ne = l.u64();
  std::vector<obs::TimelineEvent> evs;
  for (std::uint64_t i = 0; i < ne && l.ok(); ++i) {
    obs::TimelineEvent e;
    e.t_ns = l.i64();
    e.a = l.f64();
    e.b = l.f64();
    e.id = l.u32();
    e.kind = static_cast<obs::EventKind>(l.u8());
    e.subflow = l.u8();
    e.aux = l.u16();
    evs.push_back(e);
  }
  const std::uint64_t ev_dropped = l.u64();
  if (t != nullptr && l.ok()) t->restore_snapshot(evs, ev_dropped);
}

}  // namespace

std::optional<RestoreImage> read_restore_image(const ExperimentConfig& cfg) {
  if (cfg.checkpoint.restore_path.empty()) return std::nullopt;
  RestoreImage img;
  std::string err;
  if (!ckpt::read_file(cfg.checkpoint.restore_path, ckpt::config_fingerprint(cfg), img.h,
                       img.payload, &err)) {
    std::fprintf(stderr, "xmpsim: restore failed: %s\n", err.c_str());
    std::exit(2);
  }
  return img;
}

World::World(const ExperimentConfig& cfg_in, net::ShardFabric* fabric_in)
    : cfg{cfg_in},
      fabric{fabric_in},
      tracer{make_tracer(cfg)},
      registry{cfg.obs.enabled() ? std::make_unique<obs::MetricsRegistry>() : nullptr},
      sim_metrics{registry ? std::make_unique<obs::SimMetrics>(*registry) : nullptr},
      scope{tracer.get(), sim_metrics.get()},
      netw{sched},
      tree{attach(netw, fabric), fat_tree_config(cfg)},
      // The default Pinned config replays the legacy built-in hash bit for
      // bit and schedules nothing while no link fails, so fault-free default
      // runs stay byte-identical.
      routes{sched, netw, cfg.routing},
      rng{cfg.seed},
      flows_a{sched, cfg.scheme},
      // The gauge hook samples into the category distributions directly;
      // the probe machinery just provides the periodic tick.
      rtt_tick{sched, cfg.rtt_sample_interval,
               [this] {
                 auto sample = [this](const workload::FlowManager& fm) {
                   fm.for_each_active_large_sender(
                       [this](const workload::FlowRecord& rec, const transport::TcpSender& s) {
                         if (!s.has_rtt_sample()) return;
                         const auto cat = tree.category(rec.src_host, rec.dst_host);
                         res.rtt_by_category[static_cast<int>(cat)].add(s.srtt().ms());
                       });
                 };
                 sample(flows_a);
                 if (flows_b) sample(*flows_b);
                 return 0.0;
               }},
      util{sched} {
  if (tracer) {
    if (fabric != nullptr) {
      for (int s = 0; s < fabric->n_shards(); ++s) shard_tracers.push_back(make_tracer(cfg));
    }
    for (int l = 0; l < 3; ++l) {
      const auto layer = static_cast<topo::FatTree::Layer>(l);
      for (const net::Link* link : tree.links(layer)) {
        tracer->name_link(link->id(), std::string{topo::FatTree::layer_name(layer)} + " link " +
                                          std::to_string(link->id()));
      }
    }
  }

  routes.install_all();

  if (fabric != nullptr) {
    flows_a.set_schedulers([this](int host) -> sim::Scheduler& {
      return fabric->sched(netw.shard_of(tree.host(host)));
    });
  }
  if (cfg.scheme_b) {
    // Disjoint id space: flow ids are endpoint demux keys at the hosts.
    flows_b = std::make_unique<workload::FlowManager>(sched, *cfg.scheme_b, net::FlowId{1} << 24);
  }

  // Fault injection (no-op when the plan is empty). arm() is deferred to
  // start(): a restore re-arms the pending plan events from the checkpoint.
  if (!cfg.fault_plan.empty()) {
    faults::FaultController::Config fcc;
    fcc.seed = cfg.fault_seed;
    fault_ctl = std::make_unique<faults::FaultController>(sched, netw, cfg.fault_plan, fcc);
  }

  if (cfg.check_invariants) {
    inv = std::make_unique<faults::InvariantChecker>(sched);
    inv->watch_network(netw);
    for (workload::FlowManager* fm : {&flows_a, flows_b.get()}) {
      if (fm == nullptr) continue;
      inv->add_sender_enumerator([fm](const faults::InvariantChecker::SenderVisitor& v) {
        fm->for_each_active_large_sender(
            [&v](const workload::FlowRecord&, const transport::TcpSender& s) { v(s); });
      });
      inv->add_connection_enumerator([fm](const faults::InvariantChecker::ConnectionVisitor& v) {
        fm->for_each_active_connection([&v](mptcp::MptcpConnection& c) { v(c); });
      });
    }
    // start() is deferred: on a restore it must schedule after the clock
    // and sequence counter have been restored.
  }

  // A hybrid run replaces the pattern entirely (the CLI rejects an explicit
  // --pattern), so it builds no generators.
  if (cfg.hybrid.enabled) {
    build_hybrid();
  } else {
    build_traffic();
  }

  std::size_t off = 0;
  for (int l = 0; l < 3; ++l) {
    const auto& ls = tree.links(static_cast<topo::FatTree::Layer>(l));
    all_links.insert(all_links.end(), ls.begin(), ls.end());
    layer_ranges[l] = {off, off + ls.size()};
    off += ls.size();
  }

  if (cfg.checkpoint.enabled()) ckpt_fp_ = ckpt::config_fingerprint(cfg);
}

// Generators are constructed on both the fresh and the restore path (the
// rng.split() draws happen here, identically); start() is deferred so a
// restore can rebuild their state instead.
void World::build_traffic() {
  switch (cfg.pattern) {
    case Pattern::Permutation: {
      workload::PermutationTraffic::Config pc;
      pc.min_bytes = cfg.perm_min_bytes;
      pc.max_bytes = cfg.perm_max_bytes;
      pc.rounds = cfg.permutation_rounds;
      perm = std::make_unique<workload::PermutationTraffic>(sched, tree, flows_a, rng.split(), pc);
      break;
    }
    case Pattern::Random: {
      workload::RandomTraffic::Config rc;
      rc.min_bytes = cfg.rand_min_bytes;
      rc.max_bytes = cfg.rand_max_bytes;
      if (flows_b) {
        // Coexistence: even hosts use scheme A, odd hosts scheme B.
        workload::RandomTraffic::Config rc_b = rc;
        for (int h = 0; h < tree.n_hosts(); ++h) {
          (h % 2 == 0 ? rc.senders : rc_b.senders).push_back(h);
        }
        rand_b = std::make_unique<workload::RandomTraffic>(sched, tree, *flows_b, rng.split(), rc_b);
      }
      rand_a = std::make_unique<workload::RandomTraffic>(sched, tree, flows_a, rng.split(), rc);
      break;
    }
    case Pattern::Incast: {
      incast =
          std::make_unique<workload::IncastTraffic>(sched, tree, flows_a, rng.split(), cfg.incast);
      workload::RandomTraffic::Config rc;
      rc.min_bytes = cfg.rand_min_bytes;
      rc.max_bytes = cfg.rand_max_bytes;
      rc.exclude_same_rack = true;  // paper footnote 8
      incast_bg = std::make_unique<workload::RandomTraffic>(sched, tree, flows_a, rng.split(), rc);
      break;
    }
    case Pattern::Workload: {
      const workload::WorkloadSpec& spec = *cfg.workload;
      workload::EmpiricalTraffic::Config ec;
      ec.cdf = spec.has_cdf ? &spec.cdf : nullptr;
      ec.load = cfg.offered_load > 0.0 ? cfg.offered_load : spec.default_load;
      ec.line_rate_bps = tree.config().link_rate_bps;
      ec.nodes = spec.nodes;
      ec.span = spec.span;
      ec.mice_threshold = spec.mice_threshold;
      ec.trace = &spec.flows;
      emp = std::make_unique<workload::EmpiricalTraffic>(sched, tree, flows_a, rng.split(), ec);
      break;
    }
  }
}

// The hybrid fluid/packet engine (DESIGN.md §14).
void World::build_hybrid() {
  model::hybrid::Engine::Config hc;
  hc.tick = cfg.hybrid.tick;
  hc.promote_bytes = cfg.hybrid.promote_bytes;
  hybrid = std::make_unique<model::hybrid::Engine>(sched, hc);

  const auto n_hosts = static_cast<std::uint64_t>(tree.n_hosts());
  const int half = cfg.fat_tree_k / 2;
  // Endpoint placement is derived by hashing (seed, index) rather than by
  // consuming the workload rng stream, so the fluid population never
  // perturbs the packet-domain draw sequence.
  auto pick_pair = [seed = cfg.seed, n_hosts](std::uint64_t salt, int& src, int& dst) {
    const std::uint64_t h = net::mix64(seed * 0x9e3779b97f4a7c15ULL + salt);
    src = static_cast<int>(h % n_hosts);
    dst = static_cast<int>(net::mix64(h) % (n_hosts - 1));
    if (dst >= src) ++dst;
  };
  // Interning a path registers its links on first sight; every queue in
  // the fabric shares the same ECN threshold K.
  const double mark_k = static_cast<double>(cfg.mark_threshold);
  std::vector<int> ids;
  auto intern_path = [&](int src, int dst, int agg_choice, int core_choice, double& base_rtt_s) {
    const auto links = tree.path_links(src, dst, agg_choice, core_choice);
    ids.clear();
    base_rtt_s = 0.0;
    for (net::Link* l : links) {
      ids.push_back(hybrid->add_link(l, mark_k));
      // Data out plus the ACK back over the mirror link: twice the
      // propagation, plus store-and-forward serialization of both packets.
      base_rtt_s += 2.0 * l->prop_delay().sec() +
                    static_cast<double>((net::kDataPacketBytes + net::kAckPacketBytes) * 8) /
                        static_cast<double>(l->rate_bps());
    }
    return hybrid->add_path(ids);
  };
  const int n_sub = cfg.scheme.multipath() ? cfg.scheme.subflows : 1;
  const auto n_bg = static_cast<std::size_t>(cfg.hybrid.bg_flows);
  hybrid->reserve(n_bg, n_bg * static_cast<std::size_t>(n_sub));
  model::hybrid::FluidAggregate agg;  // one registration record, reused
  agg.beta = static_cast<double>(cfg.scheme.beta);
  agg.total_bytes = cfg.hybrid.bg_bytes;
  for (int i = 0; i < cfg.hybrid.bg_flows; ++i) {
    agg.subflows.clear();
    pick_pair(0x1000000ULL + static_cast<std::uint64_t>(i), agg.src_host, agg.dst_host);
    const std::uint64_t hp =
        net::mix64(cfg.seed ^ 0xb5f0'd27cULL ^ (static_cast<std::uint64_t>(i) << 20));
    for (int r = 0; r < n_sub; ++r) {
      model::hybrid::FluidSubflowState sf;
      // Distinct aggregation-layer choice per subflow (one pinned path
      // each, as in the packet domain); inner-rack pairs collapse to the
      // single rack path and the engine dedups it.
      const int agg_choice = static_cast<int>((hp + static_cast<std::uint64_t>(r)) %
                                              static_cast<std::uint64_t>(half));
      const int core_choice = static_cast<int>((hp >> 24) % static_cast<std::uint64_t>(half));
      sf.path = intern_path(agg.src_host, agg.dst_host, agg_choice, core_choice, sf.base_rtt_s);
      agg.subflows.push_back(sf);
    }
    hybrid->add_aggregate(agg);
  }
  hybrid->set_on_promote([this](const model::hybrid::PromotionInfo& info) {
    workload::CallbackTag t;
    t.kind = workload::CallbackTag::kHybridPromoted;
    t.a = info.aggregate;
    flows_a.start_large_flow(tree.host(info.src_host), tree.host(info.dst_host), info.src_host,
                             info.dst_host, info.remaining_bytes, nullptr, t, info.cwnd_segments);
  });
  // Foreground flows restart on completion so the packet-accurate lane
  // covers the whole horizon; the slot index makes the restart chain
  // checkpointable (CallbackTag::kHybridFg).
  start_hybrid_fg = [this, pick_pair](int slot) {
    int src = 0;
    int dst = 0;
    pick_pair(0x2000000ULL + static_cast<std::uint64_t>(slot), src, dst);
    workload::CallbackTag t;
    t.kind = workload::CallbackTag::kHybridFg;
    t.a = slot;
    flows_a.start_large_flow(tree.host(src), tree.host(dst), src, dst, cfg.hybrid.fg_bytes,
                             [this, slot] { start_hybrid_fg(slot); }, t);
  };
}

// The pattern's generators in checkpoint (WKLD section) order.
template <class F>
void World::for_each_saved_generator(F&& f) {
  if (cfg.hybrid.enabled) return;
  switch (cfg.pattern) {
    case Pattern::Permutation:
      f(*perm);
      break;
    case Pattern::Random:
      f(*rand_a);
      break;
    case Pattern::Incast:
      f(*incast);
      f(*incast_bg);
      break;
    case Pattern::Workload:
      f(*emp);
      break;
  }
}

// The checkpoint payload (DESIGN.md §12). SHRD and SHST exist only when a
// fabric is present, HYBR only when it is not.
void World::save(ckpt::Saver& s) {
  auto save_clock = [&s](const sim::Scheduler& ss) {
    s.time(ss.now());
    s.u64(ss.next_seq());
    s.u64(ss.dispatched());
  };
  s.tag("SCHD");
  save_clock(sched);
  if (fabric != nullptr) {
    s.tag("SHRD");
    s.u64(static_cast<std::uint64_t>(fabric->n_shards()));
    for (int sh = 0; sh < fabric->n_shards(); ++sh) save_clock(fabric->sched(sh));
  }
  s.tag("LNKS");
  s.u64(netw.links().size());
  for (const auto& l : netw.links()) l->save_state(s);
  s.tag("SWCH");
  s.u64(netw.switches().size());
  for (const net::Switch* sw : netw.switches()) sw->save_state(s);
  s.tag("HOST");
  s.u64(netw.hosts().size());
  for (const net::Host* h : netw.hosts()) h->save_state(s);
  s.tag("RTEM");
  routes.save_state(s);
  s.tag("FLTC");
  s.b(fault_ctl != nullptr);
  if (fault_ctl) fault_ctl->save_state(s);
  s.tag("FLWA");
  flows_a.save_state(s);
  s.tag("WKLD");
  for_each_saved_generator([&s](const auto& g) { g.save_state(s); });
  if (fabric == nullptr) {
    s.tag("HYBR");
    s.b(hybrid != nullptr);
    if (hybrid) hybrid->save_state(s);
  }
  s.tag("PROB");
  rtt_tick.save_state(s);
  util.save_state(s);
  // The RTT gauge accumulates into the results object, not the probe, so
  // its pre-checkpoint samples must ride along explicitly.
  for (const auto& d : res.rtt_by_category) d.save_state(s);
  if (fabric != nullptr) {
    // Epoch accounting rides along so a resumed run's summary (epochs,
    // barriers, micro-steps) matches an uninterrupted run's. Replays are
    // process-local by design and deliberately not saved.
    s.tag("SHST");
    s.u64(res.shard.epochs);
    s.u64(res.shard.barriers);
    s.u64(res.shard.handoff_packets);
    s.u64(res.shard.micro_steps);
    s.u32(epoch_index);
  }
  // Observability state rides along so a resumed run's exports match an
  // uninterrupted run's byte for byte. Presence flags let a checkpoint
  // taken without --trace be replayed with it (and vice versa).
  s.tag("OBSV");
  s.b(tracer != nullptr);
  if (tracer) {
    save_tracer(s, *tracer);
    if (fabric != nullptr) {
      s.u64(shard_tracers.size());
      for (const auto& t : shard_tracers) save_tracer(s, *t);
    }
  }
  s.b(registry != nullptr);
  if (registry) registry->save_state(s);
}

bool World::restore(ckpt::Loader& l) {
  // Saved flow-completion callbacks come back as CallbackTags; resolve them
  // against the generators of this (identically constructed) world.
  const workload::FlowManager::BindFn bind =
      [this](const workload::CallbackTag& tag) -> std::function<void()> {
    using Tag = workload::CallbackTag;
    switch (tag.kind) {
      case Tag::kPermutation:
        return [g = perm.get()] { g->restored_flow_done(); };
      case Tag::kRandom: {
        workload::RandomTraffic* g =
            cfg.pattern == Pattern::Incast ? incast_bg.get() : rand_a.get();
        return [g, src = static_cast<int>(tag.a), dst = static_cast<int>(tag.b)] {
          g->restored_flow_done(src, dst);
        };
      }
      case Tag::kIncastRequest:
        return [g = incast.get(), job = static_cast<std::size_t>(tag.a),
                server = static_cast<int>(tag.b), client = static_cast<int>(tag.c)] {
          g->restored_request_done(job, server, client);
        };
      case Tag::kIncastResponse:
        return [g = incast.get(), job = static_cast<std::size_t>(tag.a)] {
          g->restored_response_done(job);
        };
      case Tag::kHybridFg:
        return [this, slot = static_cast<int>(tag.a)] { start_hybrid_fg(slot); };
      default:
        // Includes kHybridPromoted: a promoted tail has no completion hook
        // (its FlowRecord is the record of completion).
        return nullptr;
    }
  };
  auto restore_clock = [&l](sim::Scheduler& s) {
    const sim::Time now = l.time();
    const std::uint64_t next_seq = l.u64();
    const std::uint64_t disp = l.u64();
    if (!l.ok()) return false;
    s.restore_clock(now, next_seq, disp);
    return true;
  };

  l.tag("SCHD");
  if (!restore_clock(sched)) return false;
  if (fabric != nullptr) {
    l.tag("SHRD");
    if (l.u64() != static_cast<std::uint64_t>(fabric->n_shards())) return false;
    for (int sh = 0; sh < fabric->n_shards() && l.ok(); ++sh) {
      if (!restore_clock(fabric->sched(sh))) return false;
    }
  }
  l.tag("LNKS");
  const std::uint64_t nl = l.u64();
  if (l.ok() && nl != netw.links().size()) return false;
  for (std::uint64_t i = 0; i < nl && l.ok(); ++i) netw.links()[i]->restore_state(l);
  l.tag("SWCH");
  const std::uint64_t nsw = l.u64();
  if (l.ok() && nsw != netw.switches().size()) return false;
  for (std::uint64_t i = 0; i < nsw && l.ok(); ++i) netw.switches()[i]->restore_state(l);
  l.tag("HOST");
  const std::uint64_t nh = l.u64();
  if (l.ok() && nh != netw.hosts().size()) return false;
  for (std::uint64_t i = 0; i < nh && l.ok(); ++i) netw.hosts()[i]->restore_state(l);
  l.tag("RTEM");
  routes.restore_state(l);
  l.tag("FLTC");
  if (l.b() && fault_ctl) fault_ctl->restore_state(l);
  l.tag("FLWA");
  flows_a.restore_state(l, [this](int h) -> net::Host& { return tree.host(h); }, bind);
  l.tag("WKLD");
  for_each_saved_generator([&l](auto& g) { g.restore_state(l); });
  if (fabric == nullptr) {
    l.tag("HYBR");
    // The config fingerprint covers cfg.hybrid, so a non-hybrid snapshot
    // never reaches a hybrid world (and vice versa); the flag only keeps
    // the payload self-describing.
    if (l.b() && hybrid && !hybrid->restore_state(l)) return false;
  }
  l.tag("PROB");
  rtt_tick.restore_state(l);
  util.restore_state(l, all_links);
  for (auto& d : res.rtt_by_category) d.restore_state(l);
  if (fabric != nullptr) {
    l.tag("SHST");
    res.shard.epochs = l.u64();
    res.shard.barriers = l.u64();
    res.shard.handoff_packets = l.u64();
    res.shard.micro_steps = l.u64();
    epoch_index = l.u32();
  }
  l.tag("OBSV");
  if (l.b()) {
    load_tracer(l, tracer.get());
    if (fabric != nullptr) {
      const std::uint64_t nt = l.u64();
      for (std::uint64_t i = 0; i < nt && l.ok(); ++i) {
        load_tracer(l, i < shard_tracers.size() ? shard_tracers[i].get() : nullptr);
      }
    }
  }
  if (l.b()) {
    if (registry) {
      registry->restore_state(l);
    } else {
      obs::MetricsRegistry discard;  // consume the section to stay aligned
      discard.restore_state(l);
    }
  }
  return l.done();
}

void World::publish_ckpt_totals() {
  if (!registry) return;
  registry->counter("harness.ckpt.written").set(ckpt_written_);
  registry->counter("harness.ckpt.bytes").set(ckpt_bytes_);
}

void World::write_checkpoint() {
  ckpt::Saver s;
  save(s);
  ckpt::Header h;
  h.fingerprint = ckpt_fp_;
  h.t_ns = sched.now().ns();
  h.seq = ++ckpt_seq_;
  h.prev_written = ckpt_written_;
  h.prev_bytes = ckpt_bytes_;
  const std::string path = cfg.checkpoint.dir + "/" + ckpt::file_name(h.seq);
  std::string err;
  if (!ckpt::write_file(path, h, s.data(), &err)) {
    std::fprintf(stderr, "xmpsim: checkpoint write failed: %s\n", err.c_str());
    return;  // the run continues; the previous snapshot stays the fallback
  }
  const std::uint64_t file_bytes = ckpt::kHeaderBytes + s.data().size();
  ckpt_written_ += 1;
  ckpt_bytes_ += file_bytes;
  res.ckpt.last_path = path;
  publish_ckpt_totals();
  // Recorded *after* the snapshot was serialized: the event describes this
  // file, so it can only appear in the next one (restores synthesize it).
  if (tracer) tracer->ckpt_write(sched.now(), h.seq, file_bytes);
}

void World::start(const RestoreImage* image) {
  if (image != nullptr) {
    ckpt::Loader l{image->payload};
    if (!restore(l)) {
      std::fprintf(stderr, "xmpsim: restore failed: %s: malformed payload\n",
                   cfg.checkpoint.restore_path.c_str());
      std::exit(2);
    }
    const std::uint64_t file_bytes = ckpt::kHeaderBytes + image->payload.size();
    ckpt_seq_ = image->h.seq;
    ckpt_written_ = image->h.prev_written + 1;
    ckpt_bytes_ = image->h.prev_bytes + file_bytes;
    res.ckpt.restored = true;
    res.ckpt.restored_seq = image->h.seq;
    res.ckpt.restored_t = sim::Time::nanoseconds(image->h.t_ns);
    // The lineage's newest snapshot until this run writes one; named as the
    // uninterrupted run named it, so a resume from the final checkpoint
    // prints the same "last" path.
    res.ckpt.last_path = cfg.checkpoint.dir + "/" + ckpt::file_name(image->h.seq);
    publish_ckpt_totals();
    // The snapshot predates its own ckpt_write event; synthesize it so the
    // resumed trace matches an uninterrupted run's.
    if (tracer) tracer->ckpt_write(res.ckpt.restored_t, image->h.seq, file_bytes);
    if (inv) inv->start();  // replay-only: a fresh checker over the resumed run
    return;
  }
  // Legacy scheduling order — byte-compatible with the pre-checkpoint
  // engine: faults, invariant checker, workload, probes.
  if (fault_ctl) fault_ctl->arm();
  if (inv) inv->start();
  if (perm) perm->start();
  if (rand_a) rand_a->start();
  if (rand_b) rand_b->start();
  if (incast) incast->start();
  if (incast_bg) incast_bg->start();
  if (emp) emp->start();
  if (hybrid) {
    for (int slot = 0; slot < cfg.hybrid.fg_flows; ++slot) start_hybrid_fg(slot);
    hybrid->start();
  }
  rtt_tick.start();
  util.open(all_links);
}

ExperimentResults World::collect(sim::Time final_time, std::uint64_t dispatched) {
  // close() returns an empty vector when no sim time elapsed (e.g. a run
  // interrupted at t=0): no window, no samples.
  const auto utils = util.close();
  for (int l = 0; l < 3; ++l) {
    for (std::size_t i = layer_ranges[l].first; i < layer_ranges[l].second; ++i) {
      if (!utils.empty()) res.utilization_by_layer[l].add(utils[i]);
      res.queue_occupancy_by_layer[l].add(all_links[i]->queue().mean_occupancy(sched.now()));
    }
  }

  auto add_goodput = [this](const workload::FlowRecord& rec, int scheme_index, double mbps) {
    (scheme_index == 0 ? res.goodput : res.goodput_b).add(mbps);
    if (scheme_index == 0) {
      res.goodput_by_category[static_cast<int>(tree.category(rec.src_host, rec.dst_host))].add(
          mbps);
    }
  };
  auto collect_flows = [&](const workload::FlowManager& fm, int scheme_index) {
    for (const auto& rec : fm.records()) {
      res.flows.push_back(rec);
      res.flow_category.push_back(tree.category(rec.src_host, rec.dst_host));
      res.flow_scheme.push_back(scheme_index);
      if (rec.large && rec.completed) add_goodput(rec, scheme_index, rec.goodput_bps() / 1e6);
    }
  };
  collect_flows(flows_a, 0);
  if (flows_b) collect_flows(*flows_b, 1);

  // Fixed-horizon runs cut slow flows off mid-transfer; dropping them would
  // bias mean goodput toward fast schemes (survivorship). Count a partial
  // flow at its average rate so far, provided it ran long enough for the
  // estimate to be meaningful.
  auto collect_partials = [&](const workload::FlowManager& fm, int scheme_index) {
    fm.for_each_partial_large([&](const workload::FlowRecord& rec, std::int64_t bytes) {
      const sim::Time ran = sched.now() - rec.start;
      if (ran < sim::Time::milliseconds(20) || bytes < 128 * net::kMssBytes) return;
      add_goodput(rec, scheme_index, static_cast<double>(bytes) * 8.0 / ran.sec() / 1e6);
    });
  };
  collect_partials(flows_a, 0);
  if (flows_b) collect_partials(*flows_b, 1);

  if (emp) {
    // FCT slowdown vs the unloaded fabric: one-way propagation by locality
    // category plus serialization at line rate. Aborted and still-in-flight
    // flows are censored (counted, never averaged in).
    const topo::FatTree::Config& tc = tree.config();
    const double rate_bps = static_cast<double>(tc.link_rate_bps);
    auto ideal_sec = [&](const workload::FlowRecord& rec) {
      const auto cat = tree.category(rec.src_host, rec.dst_host);
      double prop = 2.0 * tc.rack_delay.sec();
      if (cat != topo::FatTree::Category::InnerRack) prop += 2.0 * tc.agg_delay.sec();
      if (cat == topo::FatTree::Category::InterPod) prop += 2.0 * tc.core_delay.sec();
      return prop + static_cast<double>(rec.bytes) * 8.0 / rate_bps;
    };
    res.fct.offered_load = cfg.offered_load > 0.0 ? cfg.offered_load : cfg.workload->default_load;
    res.fct.arrival_rate = emp->arrival_rate();
    for (const auto& rec : flows_a.records()) {
      ExperimentResults::FctRecord fr;
      fr.id = rec.id;
      fr.bytes = rec.bytes;
      fr.start_ns = rec.start.ns();
      if (!rec.completed) {
        ++res.fct.censored;
        res.fct_records.push_back(fr);
        continue;
      }
      const double slow = (rec.finish - rec.start).sec() / ideal_sec(rec);
      fr.finish_ns = rec.finish.ns();
      fr.completed = true;
      fr.slowdown = slow;
      res.fct_records.push_back(fr);
      res.fct.slowdown_all.add(slow);
      res.fct.slowdown_by_bin[ExperimentResults::FctStats::bin_of(rec.bytes)].add(slow);
      ++res.fct.completed;
      if (sim_metrics) {
        sim_metrics->fct_slowdown_milli.add(static_cast<std::uint64_t>(slow * 1000.0));
      }
    }
  }

  if (incast) res.jobs = incast->jobs();
  if (hybrid) {
    res.hybrid.enabled = true;
    res.hybrid.bg_flows = cfg.hybrid.bg_flows;
    res.hybrid.fg_flows = cfg.hybrid.fg_flows;
    res.hybrid.active_fluid = hybrid->active_fluid_flows();
    const auto& hs = hybrid->stats();
    res.hybrid.ticks = hs.ticks;
    res.hybrid.promotions = hs.promotions;
    res.hybrid.fluid_completions = hs.fluid_completions;
    res.hybrid.fluid_bytes = hs.fluid_bytes;
    res.hybrid.fluid_throughput_mbps = hybrid->fluid_throughput_bps() / 1e6;
    res.hybrid.mean_mark_p = hs.ticks > 0 ? hs.mark_p_accum / static_cast<double>(hs.ticks) : 0.0;
  }
  res.sim_duration = final_time;
  res.events_dispatched = dispatched;
  res.ckpt.written = ckpt_written_;
  res.ckpt.bytes = ckpt_bytes_;

  // Packet conservation holds on every run, not only under --invariants:
  // one O(links) pass over the same per-link law the checker sweeps. The
  // engines call collect() at a quiescent instant (handoffs drained).
  for (const auto& l : netw.links()) {
    res.conservation_error = faults::link_conservation_error(*l);
    if (!res.conservation_error.empty()) break;
  }
  res.drops = stats::collect_drops(netw);
  for (const auto& l : netw.links()) {
    if (l->offered() == 0) continue;
    ExperimentResults::LinkDropRow row;
    row.link = l->id();
    row.offered = l->offered();
    row.delivered = l->delivered();
    row.drops = l->drops();
    row.duplicated = l->duplicated();
    row.delayed = l->delayed();
    row.overmarked = l->overmarked();
    res.link_drops.push_back(row);
  }
  res.aborted_flows = flows_a.aborted_large_flows();
  if (flows_b) res.aborted_flows += flows_b->aborted_large_flows();

  // Routing-layer accounting (end-of-run aggregation: the per-packet hot
  // path never touches the metrics registry for these).
  for (const net::Switch* sw : netw.switches()) {
    res.switch_forwarded += sw->forwarded();
    res.switch_unroutable += sw->unroutable();
    if (sw->unroutable() > 0) {
      res.switch_drops.push_back({sw->id(), sw->forwarded(), sw->unroutable()});
    }
  }
  res.route_reroutes = routes.reroutes();
  res.route_collisions = routes.collisions();
  res.flowlet_repaths = routes.repaths();
  res.path_rehomes = flows_a.subflow_rehomes();
  if (flows_b) res.path_rehomes += flows_b->subflow_rehomes();
  if (sim_metrics) {
    sim_metrics->switch_forwarded.inc(res.switch_forwarded);
    sim_metrics->switch_unroutable.inc(res.switch_unroutable);
  }
  if (inv) {
    inv->stop();
    inv->check_now();  // final sweep at the horizon
    res.invariant_checks = inv->checks_run();
    for (const auto& v : inv->violations()) {
      res.invariant_violations.push_back("[t=" + std::to_string(v.at.sec()) + "s] " + v.what);
    }
  }
  return std::move(res);
}

void World::export_outputs(const ExperimentResults& out) const {
  if (tracer) {
    // Sharded runs merge the control and per-shard streams deterministically
    // (stream 0, the control strand, wins ties).
    std::unique_ptr<obs::TimelineTracer> merged;
    const obs::TimelineTracer* t = tracer.get();
    if (fabric != nullptr) {
      std::vector<const obs::TimelineTracer*> streams{tracer.get()};
      for (const auto& st : shard_tracers) streams.push_back(st.get());
      merged = obs::TimelineTracer::merged(streams);
      t = merged.get();
    }
    if (!cfg.obs.trace_json.empty()) t->export_chrome_json(cfg.obs.trace_json);
    if (!cfg.obs.trace_csv.empty()) t->export_csv(cfg.obs.trace_csv);
  }
  if (registry && !cfg.obs.metrics_json.empty()) registry->dump_to_file(cfg.obs.metrics_json);
  if (!cfg.obs.fct_csv.empty()) export_fct_csv(out, cfg.obs.fct_csv);
}

}  // namespace xmp::core
