//! The cycle-driven, flit-free packet-level network simulator.
//!
//! Every message is one packet. Per cycle, each message either advances one
//! link or waits; contention is modelled with the three mechanisms the
//! extended e-cube argument actually relies on:
//!
//! * **bounded per-link virtual-channel buffers** — each directed link has
//!   four buffers (vc0..vc3, one per message class) of
//!   [`SimConfig::vc_capacity`] packets; a message advances only into free
//!   buffer space at the link it traverses;
//! * **round-robin link arbitration** — a physical link transmits one
//!   packet per cycle; when several virtual channels compete, the grant
//!   rotates round-robin over the channels, FIFO within a channel;
//! * **per-cycle advancement** — injection, request, grant/move and
//!   occupancy sampling happen in a fixed order each cycle, so the whole
//!   simulation is a deterministic function of its configuration.
//!
//! Routing is the extended e-cube of [`meshroute`]: messages follow the
//! base dimension-order route and detour around excluded regions in the
//! abnormal mode. Routes are *not* precomputed — the simulator steps the
//! base route in O(1) per hop and asks the router for a detour walk only
//! when a hop is actually blocked, so a million messages on a 512² mesh
//! never materialise a million hop vectors.
//!
//! Link state is one packed `u64` per directed link: the four VC occupancy
//! bytes, the round-robin pointer, this cycle's request mask and the index
//! of this cycle's request slot. A hop reads and writes one cache line of
//! link state instead of four scattered arrays, and links are numbered
//! along their direction of travel, so a message's successive hops touch
//! neighbouring words. An idle link is the all-zero word (the round-robin
//! pointer is stored one past the last grant, so 0 is the initial pointer
//! past vc3), which lets the vector come from zeroed memory: pages of links
//! no message crosses are never touched. A cycle's requests go into a
//! compact list of slots, one per requested link, holding the first
//! requester on each channel, in the order the links were first requested;
//! the grant walks that list and moves each granted message to the next
//! hop it recorded at request time.
//!
//! The simulation is sequential by design; parallelism lives one layer up,
//! where independent (model × pattern × trial) cells fan out on the rayon
//! pool and this determinism makes the merged CSV byte-identical at any
//! thread count.

use crate::pattern::TrafficPattern;
use crate::stats::{LatencySummary, ReachableStats, TrafficReport, VcOccupancy};
use mesh2d::{Coord, Mesh2D, StatusMap};
use meshroute::{ecube_next_hop, ExtendedECube, MessageClass, PairSample, RegionMap, RouteError};
use rand::{rngs::StdRng, SeedableRng};

const NONE: u32 = u32::MAX;

// The packed link word:
//   bits  0..32  occupancy of vc0..vc3, one byte each;
//   bits 32..34  the channel the link is offered to first (one past the
//                last grant);
//   bits 34..38  this cycle's request mask, one bit per channel;
//   bits 38..64  this cycle's request-slot index, valid while the mask is
//                non-zero.
const OCCUPANCY: u64 = 0xFFFF_FFFF;
const NEXT_VC_SHIFT: u32 = 32;
const MASK_SHIFT: u32 = 34;
const SLOT_SHIFT: u32 = 38;

/// One requested link of the current cycle: the first requester on each
/// channel whose bit is set in the link's request mask.
struct Slot {
    link: u32,
    first: [u32; 4],
}

/// Records `id`'s request for channel `vc` of `link`, unless an earlier
/// message of this cycle already holds that channel's request.
fn request(words: &mut [u64], slots: &mut Vec<Slot>, link: usize, vc: usize, id: u32) {
    let word = words[link];
    let bit = 1u64 << (MASK_SHIFT as usize + vc);
    if word >> MASK_SHIFT & 0xF == 0 {
        words[link] = word | bit | (slots.len() as u64) << SLOT_SHIFT;
        let mut first = [NONE; 4];
        first[vc] = id;
        slots.push(Slot {
            link: link as u32,
            first,
        });
    } else if word & bit == 0 {
        words[link] = word | bit;
        slots[(word >> SLOT_SHIFT) as usize].first[vc] = id;
    }
}

/// Frees buffer `buffer` (`link * 4 + vc`) in its link's occupancy byte
/// and in the per-channel total.
fn vacate(words: &mut [u64], vc_now: &mut [u64; 4], buffer: u32) {
    words[(buffer >> 2) as usize] -= 1 << (8 * (buffer & 3));
    vc_now[(buffer & 3) as usize] -= 1;
}

/// Configuration of one traffic run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Messages drawn from the pattern.
    pub messages: usize,
    /// Seed of the pattern stream and the reachable-pair probe.
    pub seed: u64,
    /// Messages entering their source queues per cycle (the offered load).
    pub injection_rate: usize,
    /// Buffer slots per (link, virtual channel); `0` is treated as `1`.
    /// Each channel's occupancy is one byte of the packed link word.
    pub vc_capacity: u8,
    /// Hard cycle horizon; `0` picks a bound that lets a non-saturated run
    /// drain (saturated runs report the remainder as stranded).
    pub max_cycles: u64,
    /// Size of the reachable-pair probe routed over the shared sampler.
    pub reachable_sample: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            messages: 10_000,
            seed: 1,
            injection_rate: 64,
            vc_capacity: 4,
            max_cycles: 0,
            reachable_sample: 512,
        }
    }
}

impl SimConfig {
    fn horizon(&self, mesh: &Mesh2D) -> u64 {
        if self.max_cycles > 0 {
            return self.max_cycles;
        }
        let inject_span = self.messages.div_ceil(self.injection_rate.max(1)) as u64;
        let drain = 64 * (mesh.width() + mesh.height()) as u64;
        inject_span + self.messages as u64 / 4 + drain
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MsgState {
    AtSource,
    InNet,
    Delivered,
    Dropped,
}

struct Msg {
    current: Coord,
    /// Hop requested this cycle, moved to when the request is granted.
    next: Coord,
    dst: Coord,
    manhattan: u32,
    inject_cycle: u64,
    hops: u32,
    /// Buffer currently occupied, as `link * 4 + vc`; `NONE` at source.
    buffer: u32,
    state: MsgState,
    /// Remaining abnormal walk while circumnavigating a region.
    detour: Option<(Vec<Coord>, usize)>,
}

/// Id of the directed link from `from` into its 4-neighbor `to`. Each
/// direction of travel has its own plane of ids, numbered along that
/// direction (row-major for horizontal links, column-major for vertical
/// ones), so a message's successive hops touch neighbouring link words.
fn link_id(mesh: &Mesh2D, from: Coord, to: Coord) -> usize {
    let (w, h) = (mesh.width() as usize, mesh.height() as usize);
    let (x, y) = (to.x as usize, to.y as usize);
    match (to.x - from.x, to.y - from.y) {
        (1, 0) => y * w + x,            // eastward, into the west port
        (-1, 0) => (h + y) * w + x,     // westward, into the east port
        (0, 1) => (2 * w + x) * h + y,  // northward, into the south port
        (0, -1) => (3 * w + x) * h + y, // southward, into the north port
        _ => unreachable!("links connect 4-neighbors"),
    }
}

/// Runs one traffic simulation over `status` (with its pre-derived
/// [`RegionMap`]) and returns the full report.
pub fn simulate(
    mesh: &Mesh2D,
    status: &StatusMap,
    regions: &RegionMap,
    pattern: &dyn TrafficPattern,
    cfg: &SimConfig,
) -> TrafficReport {
    let _span = mocp_obs::span!("traffic.sim");
    let router = ExtendedECube::with_regions(mesh, status, regions);

    // ---- message generation (seeded, deterministic) --------------------
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rate = cfg.injection_rate.max(1);
    let mut report = TrafficReport {
        pattern: pattern.name().to_string(),
        ..TrafficReport::default()
    };
    let mut msgs: Vec<Msg> = Vec::with_capacity(cfg.messages);
    for i in 0..cfg.messages {
        let (src, dst) = pattern.pair(mesh, &mut rng);
        report.offered += 1;
        if !router.enabled(src) || !router.enabled(dst) {
            report.endpoint_excluded += 1;
            continue;
        }
        msgs.push(Msg {
            current: src,
            next: src,
            dst,
            manhattan: src.manhattan(dst),
            inject_cycle: (i / rate) as u64,
            hops: 0,
            buffer: NONE,
            state: MsgState::AtSource,
            detour: None,
        });
    }
    report.injected = msgs.len();

    // ---- network state --------------------------------------------------
    let nodes = mesh.node_count();
    let links = nodes * 4;
    assert!(
        links <= 1 << (64 - SLOT_SHIFT),
        "{links} links exceed the packed slot index"
    );
    let cap = u64::from(cfg.vc_capacity.max(1));
    let mut words = vec![0u64; links];
    let mut slots: Vec<Slot> = Vec::new();
    let mut vc_now = [0u64; 4];
    let mut vc_occ: [VcOccupancy; 4] = Default::default();

    // Per-source FIFO of not-yet-entered messages (intrusive lists).
    let mut q_head = vec![NONE; nodes];
    let mut q_tail = vec![NONE; nodes];
    let mut q_next = vec![NONE; msgs.len()];
    let mut backlogged: Vec<usize> = Vec::new();

    let mut active: Vec<u32> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut stretch_sum = 0.0f64;
    let mut next_inject = 0usize;
    let mut done = 0usize;
    let horizon = cfg.horizon(mesh);
    let mut cycles = 0u64;

    let mut lat_hist = mocp_obs::LocalHistogram::new(mocp_obs::histogram!("traffic.latency"));

    // Picks a live message's next hop and returns the `(link, vc)` it
    // requests; computes and caches a detour walk when the base hop is
    // blocked. `None` drops the message as unreachable.
    let plan = |msg: &mut Msg, detours: &mut u64| -> Option<(usize, usize)> {
        let class = MessageClass::classify(msg.current, msg.dst).expect("not yet at destination");
        let next = if let Some((walk, at)) = &msg.detour {
            walk[*at]
        } else {
            let next = ecube_next_hop(msg.current, msg.dst).expect("not yet at destination");
            if router.enabled(next) {
                next
            } else {
                let region = router
                    .blocking_region(next)
                    .expect("blocked hop lies in an excluded region");
                match router.detour(region, msg.current, msg.dst, class) {
                    Ok((walk, _fallback)) => {
                        *detours += 1;
                        let first = walk[1];
                        msg.detour = Some((walk, 1));
                        first
                    }
                    Err(RouteError::Unreachable) => return None,
                    Err(_) => unreachable!("endpoints were checked at injection"),
                }
            }
        };
        msg.next = next;
        let link = link_id(mesh, msg.current, next);
        Some((link, class.virtual_channel().0 as usize))
    };

    for cycle in 0..horizon {
        // -- injection: messages whose time has come join their source FIFO.
        while next_inject < msgs.len() && msgs[next_inject].inject_cycle <= cycle {
            let id = next_inject as u32;
            let node = mesh.index_of(msgs[next_inject].current);
            if q_head[node] == NONE {
                q_head[node] = id;
                backlogged.push(node);
            } else {
                q_next[q_tail[node] as usize] = id;
            }
            q_tail[node] = id;
            next_inject += 1;
        }
        if done == msgs.len() {
            break;
        }

        // -- request: in-network messages first, then source-queue heads.
        for &id in &active {
            let msg = &mut msgs[id as usize];
            if msg.state != MsgState::InNet {
                continue;
            }
            match plan(msg, &mut report.detours) {
                Some((link, vc)) => request(&mut words, &mut slots, link, vc, id),
                None => {
                    // Walled off mid-flight: drop and free the buffer slot.
                    vacate(&mut words, &mut vc_now, msg.buffer);
                    msg.state = MsgState::Dropped;
                    report.unreachable += 1;
                    done += 1;
                }
            }
        }
        for &node in &backlogged {
            loop {
                let head = q_head[node];
                if head == NONE {
                    break;
                }
                let msg = &mut msgs[head as usize];
                match plan(msg, &mut report.detours) {
                    Some((link, vc)) => {
                        request(&mut words, &mut slots, link, vc, head);
                        break;
                    }
                    None => {
                        msg.state = MsgState::Dropped;
                        report.unreachable += 1;
                        done += 1;
                        q_head[node] = q_next[head as usize];
                        if q_head[node] == NONE {
                            q_tail[node] = NONE;
                        }
                    }
                }
            }
        }

        // -- grant + move: one packet per link, round-robin over channels.
        for slot in &slots {
            let link = slot.link as usize;
            let word = words[link];
            let mask = word >> MASK_SHIFT & 0xF;
            let start = word >> NEXT_VC_SHIFT & 3;
            let mut occupancy = word & OCCUPANCY;
            let mut next_vc = start;
            // Requesting channels, rotated so the round-robin start is bit 0.
            let mut pending = ((mask | mask << 4) >> start) & 0xF;
            while pending != 0 {
                let vc = ((start + u64::from(pending.trailing_zeros())) & 3) as usize;
                pending &= pending - 1;
                let id = slot.first[vc];
                let msg = &mut msgs[id as usize];
                let delivering = msg.next == msg.dst;
                if !delivering && occupancy >> (8 * vc) & 0xFF >= cap {
                    continue; // buffer full: offer the link to the next channel
                }
                next_vc = (vc as u64 + 1) & 3;
                // Free the buffer (or source-queue head) being vacated. The
                // buffer sits on the link into `current`, never this one, so
                // the local `occupancy` copy stays exact.
                if msg.buffer != NONE {
                    vacate(&mut words, &mut vc_now, msg.buffer);
                } else {
                    let node = mesh.index_of(msg.current);
                    q_head[node] = q_next[id as usize];
                    if q_head[node] == NONE {
                        q_tail[node] = NONE;
                    }
                    msg.state = MsgState::InNet;
                    active.push(id);
                }
                // Advance one link.
                msg.current = msg.next;
                msg.hops += 1;
                report.total_hops += 1;
                if let Some((walk, at)) = &mut msg.detour {
                    report.abnormal_hops += 1;
                    *at += 1;
                    if *at == walk.len() {
                        msg.detour = None;
                    }
                }
                if delivering {
                    msg.state = MsgState::Delivered;
                    msg.buffer = NONE;
                    done += 1;
                    let latency = cycle - msg.inject_cycle + 1;
                    latencies.push(latency);
                    lat_hist.record(latency);
                    stretch_sum += msg.hops as f64 / msg.manhattan.max(1) as f64;
                } else {
                    msg.buffer = (link * 4 + vc) as u32;
                    occupancy += 1 << (8 * vc);
                    vc_now[vc] += 1;
                }
                break;
            }
            // Clears the request mask and slot index for the next cycle.
            words[link] = occupancy | next_vc << NEXT_VC_SHIFT;
        }
        slots.clear();

        // -- sample per-VC occupancy, compact the live sets.
        for (vc, occ) in vc_occ.iter_mut().enumerate() {
            occ.record(vc_now[vc]);
        }
        active.retain(|&id| msgs[id as usize].state == MsgState::InNet);
        backlogged.retain(|&node| q_head[node] != NONE);
        cycles = cycle + 1;
        if done == msgs.len() && next_inject == msgs.len() {
            break;
        }
    }
    #[allow(dropping_copy_types)] // noop stub is Copy; live histogram flushes here
    drop(lat_hist);

    // ---- aggregation ----------------------------------------------------
    report.cycles = cycles;
    report.delivered = latencies.len();
    report.stranded = report.injected - report.delivered - report.unreachable;
    report.avg_stretch = if report.delivered > 0 {
        stretch_sum / report.delivered as f64
    } else {
        0.0
    };
    report.latency = LatencySummary::from_latencies(&mut latencies);
    for (vc, mut occ) in vc_occ.into_iter().enumerate() {
        occ.finish(report.cycles);
        report.vc[vc] = occ;
    }
    report.reachable = probe_reachability(mesh, &router, cfg);

    mocp_obs::counter!("traffic.offered").add(report.offered as u64);
    mocp_obs::counter!("traffic.delivered").add(report.delivered as u64);
    mocp_obs::counter!("traffic.stranded").add(report.stranded as u64);
    mocp_obs::counter!("traffic.unreachable").add(report.unreachable as u64);
    mocp_obs::counter!("traffic.endpoint_excluded").add(report.endpoint_excluded as u64);
    mocp_obs::counter!("traffic.detours").add(report.detours);
    mocp_obs::counter!("traffic.cycles").add(report.cycles);
    mocp_obs::histogram!("traffic.vc0.occupancy_max").record(report.vc[0].max);
    mocp_obs::histogram!("traffic.vc1.occupancy_max").record(report.vc[1].max);
    mocp_obs::histogram!("traffic.vc2.occupancy_max").record(report.vc[2].max);
    mocp_obs::histogram!("traffic.vc3.occupancy_max").record(report.vc[3].max);
    report
}

/// Routes the shared pair sample over the run's status map — the static
/// reachable-pair fraction reported next to the dynamic delivery numbers.
fn probe_reachability(
    mesh: &Mesh2D,
    router: &ExtendedECube<'_>,
    cfg: &SimConfig,
) -> ReachableStats {
    let _span = mocp_obs::span!("traffic.reachable_probe");
    let sample = PairSample::random(mesh, cfg.reachable_sample, cfg.seed ^ 0x9e3779b97f4a7c15);
    let mut stats = ReachableStats {
        sampled: sample.len(),
        ..ReachableStats::default()
    };
    for (src, dst) in sample.iter() {
        match router.route(src, dst) {
            Ok(_) => stats.reachable += 1,
            Err(RouteError::SourceExcluded) | Err(RouteError::DestinationExcluded) => {
                stats.endpoint_excluded += 1;
            }
            Err(RouteError::Unreachable) => stats.unreachable += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Hotspot, Transpose, Uniform};
    use mesh2d::FaultSet;

    fn faulty_status(mesh: &Mesh2D, faults: &[(i32, i32)]) -> StatusMap {
        let fs = FaultSet::from_coords(*mesh, faults.iter().map(|&(x, y)| Coord::new(x, y)));
        StatusMap::from_faults(mesh, &fs.region())
    }

    fn run(
        mesh: &Mesh2D,
        status: &StatusMap,
        pattern: &dyn TrafficPattern,
        cfg: &SimConfig,
    ) -> TrafficReport {
        let regions = RegionMap::from_status(mesh, status);
        simulate(mesh, status, &regions, pattern, cfg)
    }

    #[test]
    fn fault_free_uniform_delivers_everything() {
        let mesh = Mesh2D::square(12);
        let status = StatusMap::all_enabled(&mesh);
        let cfg = SimConfig {
            messages: 500,
            injection_rate: 8,
            ..SimConfig::default()
        };
        let report = run(&mesh, &status, &Uniform, &cfg);
        assert_eq!(report.offered, 500);
        assert_eq!(report.injected, 500);
        assert_eq!(report.delivered, 500);
        assert_eq!(report.stranded, 0);
        assert_eq!(report.unreachable, 0);
        assert_eq!(report.abnormal_hops, 0);
        assert!((report.avg_stretch - 1.0).abs() < 1e-12);
        // Latency is at least distance and includes queueing.
        assert!(report.latency.p50 >= 1);
        assert!(report.latency.max as usize <= report.cycles as usize);
        assert_eq!(report.reachable.fraction(), 1.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let mesh = Mesh2D::square(16);
        let status = faulty_status(&mesh, &[(5, 5), (6, 5), (10, 11)]);
        let cfg = SimConfig {
            messages: 800,
            injection_rate: 16,
            seed: 9,
            ..SimConfig::default()
        };
        let a = run(&mesh, &status, &Transpose, &cfg);
        let b = run(&mesh, &status, &Transpose, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn faults_cause_detours_and_exclusions() {
        let mesh = Mesh2D::square(16);
        let status = faulty_status(&mesh, &[(7, 7), (8, 7), (8, 8), (3, 12)]);
        let cfg = SimConfig {
            messages: 2_000,
            injection_rate: 32,
            seed: 4,
            ..SimConfig::default()
        };
        let report = run(&mesh, &status, &Uniform, &cfg);
        assert!(report.endpoint_excluded > 0);
        assert!(report.abnormal_hops > 0);
        assert!(report.detours > 0);
        assert!(report.avg_stretch >= 1.0);
        assert_eq!(
            report.injected,
            report.delivered + report.stranded + report.unreachable
        );
        assert!(report.reachable.fraction() < 1.0);
        assert!(report.reachable.fraction() > 0.5);
    }

    #[test]
    fn hotspot_saturates_more_than_uniform() {
        let mesh = Mesh2D::square(12);
        let status = StatusMap::all_enabled(&mesh);
        let cfg = SimConfig {
            messages: 3_000,
            injection_rate: 128,
            seed: 3,
            ..SimConfig::default()
        };
        let uniform = run(&mesh, &status, &Uniform, &cfg);
        let hotspot = run(&mesh, &status, &Hotspot { percent: 40 }, &cfg);
        // The hot node's four links are the bottleneck: latency and buffer
        // pressure must exceed the uniform baseline.
        assert!(hotspot.latency.p90 > uniform.latency.p90);
        let hot_peak: u64 = hotspot.vc.iter().map(|v| v.max).sum();
        let uni_peak: u64 = uniform.vc.iter().map(|v| v.max).sum();
        assert!(hot_peak >= uni_peak);
    }

    #[test]
    fn walled_off_destination_is_dropped_not_stuck() {
        // Vertical wall: east half unreachable from west half.
        let mesh = Mesh2D::square(8);
        let wall: Vec<(i32, i32)> = (0..8).map(|y| (4, y)).collect();
        let status = faulty_status(&mesh, &wall);
        let cfg = SimConfig {
            messages: 300,
            injection_rate: 8,
            seed: 2,
            ..SimConfig::default()
        };
        let report = run(&mesh, &status, &Uniform, &cfg);
        assert!(report.unreachable > 0);
        assert_eq!(report.stranded, 0);
        assert_eq!(report.injected, report.delivered + report.unreachable);
    }

    #[test]
    fn vc_occupancy_sums_match_cycles() {
        let mesh = Mesh2D::square(10);
        let status = StatusMap::all_enabled(&mesh);
        let cfg = SimConfig {
            messages: 400,
            injection_rate: 16,
            ..SimConfig::default()
        };
        let report = run(&mesh, &status, &Uniform, &cfg);
        for vc in &report.vc {
            assert_eq!(vc.histogram.iter().sum::<u64>(), report.cycles);
        }
    }
}
