//! The chip's noisy reads against a textbook reference.
//!
//! The reference reads one measurement at a time: the ring's true
//! frequency from `Chip::frequency`, then `ReadoutConfig::measure` on the
//! chip's noise stream at the next nonce, nonces counting from `id << 32`.
//! It draws every measurement: every vote of a voted read, and both rings
//! of a pair whose bit noise cannot flip. So it also checks that the
//! early-majority cut and a decided pair advance the nonce by exactly the
//! measurements they skip. The chip has more rings than one resolve chunk
//! (128), so whole-array and pair reads cross a chunk boundary. Every read
//! shape runs under the steady readout and under a noise burst.

use aro_puf_repro::circuit::readout::{Measurement, ReadoutConfig};
use aro_puf_repro::circuit::ring::{RoHealth, RoStyle};
use aro_puf_repro::device::environment::Environment;
use aro_puf_repro::device::rng::SeedDomain;
use aro_puf_repro::metrics::bits::BitString;
use aro_puf_repro::puf::{Chip, PufDesign};

const ID: u64 = 5;
const N_ROS: usize = 136;
const DEAD: usize = 3;
const STUCK: usize = 7;
/// Stuck just past the noise envelope's edge against ring 13: the pair
/// `(12, 13)` is decided under the steady readout.
const PAST_EDGE: usize = 12;
/// Stuck just short of the edge against ring 15: the pair `(14, 15)` is
/// not.
const SHORT_OF_EDGE: usize = 14;
/// Rings 0, 3, 5 and 7 appear in two pairs each. Ring 7 is stuck at
/// ring 8's frequency, so pair `(7, 8)` is a tie that noise decides.
const FAULTED_PAIRS: [(usize, usize); 8] = [
    (0, 1),
    (2, DEAD),
    (DEAD, 4),
    (5, 0),
    (6, STUCK),
    (STUCK, 8),
    (9, 5),
    (10, 11),
];
/// The noise burst of the burst reads: loud enough that pairs the steady
/// readout decides often flip, so a decision that missed the burst's
/// sigma would show in the bits.
const BURST: f64 = 32.0;

/// The faulted pairs, then every ring against its neighbour: 76 pairs.
fn pairs() -> Vec<(usize, usize)> {
    let neighbours = (0..N_ROS / 2).map(|k| (2 * k, 2 * k + 1));
    FAULTED_PAIRS.into_iter().chain(neighbours).collect()
}

/// The read shapes, each under a design's readout.
trait Reads {
    fn response(&mut self, design: &PufDesign) -> BitString;
    fn soft(&mut self, design: &PufDesign) -> Vec<(bool, f64)>;
    fn voted(&mut self, design: &PufDesign, votes: usize) -> BitString;
    fn measure_all(&mut self, design: &PufDesign) -> Vec<Measurement>;
}

/// The chip under test, read at one environment.
struct Device {
    chip: Chip,
    env: Environment,
    pairs: Vec<(usize, usize)>,
}

impl Reads for Device {
    fn response(&mut self, design: &PufDesign) -> BitString {
        self.chip.response(design, &self.env, &self.pairs)
    }

    fn soft(&mut self, design: &PufDesign) -> Vec<(bool, f64)> {
        self.chip.response_soft(design, &self.env, &self.pairs)
    }

    fn voted(&mut self, design: &PufDesign, votes: usize) -> BitString {
        self.chip
            .response_voted(design, &self.env, &self.pairs, votes)
    }

    fn measure_all(&mut self, design: &PufDesign) -> Vec<Measurement> {
        self.chip.measure_all(design, &self.env)
    }
}

/// The textbook read of one chip.
struct Reference {
    chip: Chip,
    env: Environment,
    pairs: Vec<(usize, usize)>,
    noise: SeedDomain,
    nonce: u64,
}

impl Reference {
    fn measure(&mut self, design: &PufDesign, ring: usize) -> Measurement {
        let f_true = self.chip.frequency(design, &self.env, ring);
        let mut rng = self.noise.rng(self.nonce);
        self.nonce += 1;
        design.readout().measure(f_true, &mut rng)
    }

    fn pair(&mut self, design: &PufDesign, (i, j): (usize, usize)) -> (Measurement, Measurement) {
        (self.measure(design, i), self.measure(design, j))
    }
}

impl Reads for Reference {
    fn response(&mut self, design: &PufDesign) -> BitString {
        self.pairs
            .clone()
            .into_iter()
            .map(|pair| {
                let (a, b) = self.pair(design, pair);
                a.bit_against(&b)
            })
            .collect()
    }

    fn soft(&mut self, design: &PufDesign) -> Vec<(bool, f64)> {
        self.pairs
            .clone()
            .into_iter()
            .map(|pair| {
                let (a, b) = self.pair(design, pair);
                (a.bit_against(&b), a.count().abs_diff(b.count()) as f64)
            })
            .collect()
    }

    fn voted(&mut self, design: &PufDesign, votes: usize) -> BitString {
        self.pairs
            .clone()
            .into_iter()
            .map(|pair| {
                let ones = (0..votes)
                    .filter(|_| {
                        let (a, b) = self.pair(design, pair);
                        a.bit_against(&b)
                    })
                    .count();
                ones > votes / 2
            })
            .collect()
    }

    fn measure_all(&mut self, design: &PufDesign) -> Vec<Measurement> {
        (0..N_ROS).map(|ring| self.measure(design, ring)).collect()
    }
}

/// One read: its output, the measurements it takes (of every ring, and
/// of rings that oscillate) and the noise draws it booked.
struct Read {
    name: String,
    output: String,
    bits_only: bool,
    measurements: u64,
    live_measurements: u64,
    draws: u64,
}

/// A fresh chip with one dead ring, one stuck at ring 8's frequency and
/// one each just past and just short of the envelope's edge.
fn faulted_chip(design: &PufDesign, stuck_hz: [f64; 3]) -> Chip {
    let mut chip = Chip::fabricate(design, ID);
    chip.set_ro_health(DEAD, RoHealth::Dead);
    for (ring, hz) in [STUCK, PAST_EDGE, SHORT_OF_EDGE].into_iter().zip(stuck_hz) {
        chip.set_ro_health(ring, RoHealth::Stuck(hz));
    }
    chip
}

/// The lowest frequency that decides a pair against a ring at `f` hertz.
fn envelope_edge(readout: &ReadoutConfig, f: f64) -> f64 {
    let decided = |hz: f64| {
        readout
            .decided_bit(&readout.resolve(hz), &readout.resolve(f))
            .is_some()
    };
    let (mut lo, mut hi) = (f, 1.01 * f);
    assert!(!decided(lo) && decided(hi));
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if decided(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn noise_draws() -> u64 {
    aro_obs::snapshot().counter("circuit.noise_draws")
}

fn kernel_rebuilds() -> u64 {
    aro_obs::snapshot().counter("circuit.kernel_rebuilds")
}

/// Every read shape twice over, under the steady readout and the burst,
/// in read order.
fn reads(reader: &mut impl Reads, designs: [&PufDesign; 2]) -> Vec<Read> {
    let pairs = pairs();
    let pair_reads = 2 * pairs.len() as u64;
    let dead_reads = pairs.iter().flat_map(|&(i, j)| [i, j]);
    let dead_reads = dead_reads.filter(|&ring| ring == DEAD).count() as u64;
    let mut out = Vec::new();
    let mut push = |name: String,
                    bits_only: bool,
                    (measurements, dead): (u64, u64),
                    read: &mut dyn FnMut() -> String| {
        let before = noise_draws();
        let output = read();
        out.push(Read {
            name,
            output,
            bits_only,
            measurements,
            live_measurements: measurements - dead,
            draws: noise_draws() - before,
        });
    };
    for round in 0..2 {
        for (readout, design) in ["steady", "burst"].into_iter().zip(designs) {
            let name = |shape: &str| format!("{round}: {readout} {shape}");
            let once = (pair_reads, dead_reads);
            push(name("response"), true, once, &mut || {
                format!("{}", reader.response(design))
            });
            push(name("soft"), false, once, &mut || {
                format!("{:?}", reader.soft(design))
            });
            for votes in [1, 3, 5] {
                let each_vote = (votes * pair_reads, votes * dead_reads);
                push(
                    name(&format!("voted {votes}")),
                    true,
                    each_vote,
                    &mut || format!("{}", reader.voted(design, votes as usize)),
                );
            }
            push(name("measure_all"), false, (N_ROS as u64, 1), &mut || {
                format!("{:?}", reader.measure_all(design))
            });
        }
    }
    out
}

#[test]
fn every_read_shape_equals_the_textbook_loop() {
    aro_obs::set_enabled(true);
    let design = PufDesign::builder(RoStyle::AgingResistant)
        .n_ros(N_ROS)
        .seed(2014)
        .build();
    let burst = design.with_readout(design.readout().with_noise_burst(BURST));
    let env = Environment::nominal(design.tech());
    let fresh = Chip::fabricate(&design, ID);
    let hz = |ring| fresh.frequency(&design, &env, ring);
    let readout = design.readout();
    let past = envelope_edge(readout, hz(13)) * (1.0 + 1e-9);
    let short = envelope_edge(readout, hz(15)) * (1.0 - 1e-9);
    let decided = |a: f64, b: f64, readout: &ReadoutConfig| {
        readout.decided_bit(&readout.resolve(a), &readout.resolve(b))
    };
    assert_eq!(decided(past, hz(13), readout), Some(true));
    assert_eq!(decided(short, hz(15), readout), None);
    assert_eq!(decided(past, hz(13), burst.readout()), None);
    let stuck_hz = [hz(8), past, short];
    let pairs = pairs();

    let before = kernel_rebuilds();
    let mut device = Device {
        chip: faulted_chip(&design, stuck_hz),
        env,
        pairs: pairs.clone(),
    };
    let got = reads(&mut device, [&design, &burst]);
    let chip_rebuilds = kernel_rebuilds() - before;

    let before = kernel_rebuilds();
    let mut reference = Reference {
        chip: faulted_chip(&design, stuck_hz),
        noise: design.seed_domain().child("chip").child("noise"),
        env,
        pairs,
        nonce: ID << 32,
    };
    let want = reads(&mut reference, [&design, &burst]);
    let reference_rebuilds = kernel_rebuilds() - before;

    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got.output, want.output, "{}", got.name);
        if got.bits_only {
            // Some pairs are decided and skip their draws; some are not.
            assert!(
                0 < got.draws && got.draws < got.measurements,
                "{}: {} draws for {} measurements",
                got.name,
                got.draws,
                got.measurements
            );
        } else {
            // A read of counts draws every measurement of a live ring.
            assert_eq!(got.draws, got.live_measurements, "{}", got.name);
        }
    }
    assert_eq!(got.len(), want.len());
    assert_eq!(chip_rebuilds, reference_rebuilds);
    // Every healthy ring derived exactly once.
    assert_eq!(chip_rebuilds, (N_ROS - 4) as u64);
}
