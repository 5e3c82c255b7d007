//! Event-for-event identity of the kernel's execution reports.
//!
//! Every sample of a synthetic-300 sweep is folded into one FNV-1a-64
//! digest per interconnect model. The digest covers the outcome and
//! every per-run counter a table or the wire can read — including the
//! scheduler counters (`events`, `wheel_high_water`, `wheel_pushes`) and
//! the contended net report — so a kernel change that keeps the tables
//! byte-identical but moves a single event still fails here. The
//! constants were generated by the naive per-node token walk.

use javaflow_core::{EvalConfig, Evaluation};
use javaflow_fabric::{trace::encode_value, BranchMode, NetKind, NetReport, Outcome, RingReport};

/// FNV-1a, 64-bit: a fixed, release-independent hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn ring(&mut self, r: &RingReport) {
        self.u64(r.requests);
        self.u64(r.wait_ticks);
        self.u64(r.max_queue);
    }

    fn net(&mut self, n: &NetReport) {
        self.u64(n.mesh_flits);
        self.u64(n.mesh_hops);
        self.u64(n.stall_ticks);
        self.u64(n.max_queue_depth);
        self.u64(n.mean_queue_depth.to_bits());
        self.u64(n.hotspots.len() as u64);
        for h in &n.hotspots {
            self.u64(u64::from(h.x));
            self.u64(u64::from(h.y));
            self.u64(h.flits);
            self.u64(h.stall_ticks);
        }
        self.ring(&n.memory_ring);
        self.ring(&n.gpp_ring);
    }

    fn outcome(&mut self, o: &Outcome) {
        match o {
            Outcome::Returned(v) => {
                self.u64(0);
                if let Some(v) = v {
                    let (tag, bits) = encode_value(v);
                    self.u64(tag);
                    self.u64(bits);
                }
            }
            Outcome::Timeout => self.u64(1),
            Outcome::Deadlock => self.u64(2),
            Outcome::Exception(e) => {
                self.u64(3);
                self.str(&format!("{e:?}"));
            }
        }
    }
}

fn digest(net: NetKind) -> u64 {
    let eval = Evaluation::run(&EvalConfig { synthetic_count: 300, net, ..EvalConfig::default() });
    let mut h = Fnv::new();
    for s in &eval.samples {
        let r = &s.report;
        h.u64(s.record as u64);
        h.str(eval.configs[s.config].name);
        h.u64(match s.bp {
            BranchMode::Bp1 => 1,
            BranchMode::Bp2 => 2,
            BranchMode::Data => 0,
        });
        h.outcome(&r.outcome);
        h.u64(r.mesh_cycles);
        h.u64(r.executed);
        h.u64(r.relay_fires);
        h.u64(r.static_covered as u64);
        for f in [r.coverage, r.ipc, r.frac_cycles_ge2, r.frac_cycles_ge1] {
            h.u64(f.to_bits());
        }
        h.u64(r.serial_msgs);
        h.u64(r.mesh_msgs);
        h.u64(r.events);
        for c in r.class_fires {
            h.u64(c);
        }
        h.u64(r.wheel_high_water);
        h.u64(r.wheel_pushes);
        match &r.net {
            None => h.u64(0),
            Some(n) => {
                h.u64(1);
                h.net(n);
            }
        }
    }
    h.0
}

#[test]
fn ideal_reports_match_the_naive_walk_digest() {
    assert_eq!(
        digest(NetKind::Ideal),
        0xa2a2_cbdc_7878_cc45,
        "ideal synthetic-300 report digest moved"
    );
}

#[test]
fn contended_reports_match_the_naive_walk_digest() {
    assert_eq!(
        digest(NetKind::Contended),
        0x2ad7_0072_76bf_7734,
        "contended synthetic-300 report digest moved"
    );
}
