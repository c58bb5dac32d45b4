//! The chip's noisy reads against a textbook reference.
//!
//! The reference reads one measurement at a time: the ring's true
//! frequency from `Chip::frequency`, then `ReadoutConfig::measure` on the
//! chip's noise stream at the next nonce, nonces counting from `id << 32`.
//! It measures every vote of a voted read, so it also checks that the
//! early-majority cut advances the nonce by exactly the skipped
//! measurements. The chip has more rings than one resolve chunk (128),
//! so whole-array and pair reads cross a chunk boundary.

use aro_puf_repro::circuit::readout::Measurement;
use aro_puf_repro::circuit::ring::{RoHealth, RoStyle};
use aro_puf_repro::device::environment::Environment;
use aro_puf_repro::device::rng::SeedDomain;
use aro_puf_repro::metrics::bits::BitString;
use aro_puf_repro::puf::{Chip, PufDesign};

const ID: u64 = 5;
const N_ROS: usize = 136;
const DEAD: usize = 3;
const STUCK: usize = 7;
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

/// The faulted pairs, then every ring against its neighbour: 76 pairs.
fn pairs() -> Vec<(usize, usize)> {
    let neighbours = (0..N_ROS / 2).map(|k| (2 * k, 2 * k + 1));
    FAULTED_PAIRS.into_iter().chain(neighbours).collect()
}

/// The textbook read of one chip.
struct Reference<'d> {
    chip: Chip,
    design: &'d PufDesign,
    env: Environment,
    pairs: Vec<(usize, usize)>,
    noise: SeedDomain,
    nonce: u64,
}

impl Reference<'_> {
    fn measure(&mut self, ring: usize) -> Measurement {
        let f_true = self.chip.frequency(self.design, &self.env, ring);
        let mut rng = self.noise.rng(self.nonce);
        self.nonce += 1;
        self.design.readout().measure(f_true, &mut rng)
    }

    fn pair(&mut self, (i, j): (usize, usize)) -> (Measurement, Measurement) {
        (self.measure(i), self.measure(j))
    }

    fn response(&mut self) -> BitString {
        self.pairs
            .clone()
            .into_iter()
            .map(|pair| {
                let (a, b) = self.pair(pair);
                a.bit_against(&b)
            })
            .collect()
    }

    fn response_soft(&mut self) -> Vec<(bool, f64)> {
        self.pairs
            .clone()
            .into_iter()
            .map(|pair| {
                let (a, b) = self.pair(pair);
                (a.bit_against(&b), a.count().abs_diff(b.count()) as f64)
            })
            .collect()
    }

    fn response_voted(&mut self, votes: usize) -> BitString {
        self.pairs
            .clone()
            .into_iter()
            .map(|pair| {
                let ones = (0..votes)
                    .filter(|_| {
                        let (a, b) = self.pair(pair);
                        a.bit_against(&b)
                    })
                    .count();
                ones > votes / 2
            })
            .collect()
    }

    fn measure_all(&mut self) -> Vec<Measurement> {
        (0..N_ROS).map(|ring| self.measure(ring)).collect()
    }
}

/// A fresh chip with one dead ring and one stuck at `stuck_hz`.
fn faulted_chip(design: &PufDesign, stuck_hz: f64) -> Chip {
    let mut chip = Chip::fabricate(design, ID);
    chip.set_ro_health(DEAD, RoHealth::Dead);
    chip.set_ro_health(STUCK, RoHealth::Stuck(stuck_hz));
    chip
}

/// Every read shape twice over, as `(name, output)` in read order.
fn reads<R>(
    chip: &mut R,
    response: impl Fn(&mut R) -> BitString,
    soft: impl Fn(&mut R) -> Vec<(bool, f64)>,
    voted: impl Fn(&mut R, usize) -> BitString,
    measure_all: impl Fn(&mut R) -> Vec<Measurement>,
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for round in 0..2 {
        out.push((format!("{round}: response"), format!("{}", response(chip))));
        out.push((format!("{round}: soft"), format!("{:?}", soft(chip))));
        for votes in [1, 3, 5] {
            out.push((
                format!("{round}: voted {votes}"),
                format!("{}", voted(chip, votes)),
            ));
        }
        out.push((
            format!("{round}: measure_all"),
            format!("{:?}", measure_all(chip)),
        ));
    }
    out
}

fn kernel_rebuilds() -> u64 {
    aro_obs::snapshot().counter("circuit.kernel_rebuilds")
}

#[test]
fn every_read_shape_equals_the_textbook_loop() {
    aro_obs::set_enabled(true);
    let design = PufDesign::builder(RoStyle::AgingResistant)
        .n_ros(N_ROS)
        .seed(2014)
        .build();
    let env = Environment::nominal(design.tech());
    let tie = Chip::fabricate(&design, ID).frequency(&design, &env, 8);
    let pairs = pairs();

    let before = kernel_rebuilds();
    let mut chip = faulted_chip(&design, tie);
    let got = reads(
        &mut chip,
        |c| c.response(&design, &env, &pairs),
        |c| c.response_soft(&design, &env, &pairs),
        |c, votes| c.response_voted(&design, &env, &pairs, votes),
        |c| c.measure_all(&design, &env),
    );
    let chip_rebuilds = kernel_rebuilds() - before;

    let before = kernel_rebuilds();
    let mut reference = Reference {
        chip: faulted_chip(&design, tie),
        design: &design,
        noise: design.seed_domain().child("chip").child("noise"),
        env,
        pairs,
        nonce: ID << 32,
    };
    let want = reads(
        &mut reference,
        Reference::response,
        Reference::response_soft,
        Reference::response_voted,
        Reference::measure_all,
    );
    let reference_rebuilds = kernel_rebuilds() - before;

    for ((read, got), (_, want)) in got.iter().zip(&want) {
        assert_eq!(got, want, "{read}");
    }
    assert_eq!(chip_rebuilds, reference_rebuilds);
    // Every healthy ring derived exactly once.
    assert_eq!(chip_rebuilds, (N_ROS - 2) as u64);
}
