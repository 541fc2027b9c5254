//! The output gate: what every rep and the traced run must reproduce.
//!
//! Each run derives its expected answer from an independent path (the
//! in-memory solve for `csv-gon`, the simulated executor for `mem-mrg`, the
//! first full ingest for `ingest-query`).  For the seeds committed below
//! that answer must also equal the recorded one, so a change that alters
//! outputs on every path at once still fails the gate.

use kcenter_bench::scenario::center_digest;
use kcenter_metric::PointId;

use crate::json::Json;
use crate::run::{Ctx, Outcome};

/// The answer a workload must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// `center_digest` of the centers.
    pub digest: String,
    /// The certified covering radius.
    pub radius: f64,
    /// `ingest-query` only: digest of the final KCWC coreset bytes.
    pub coreset_digest: Option<String>,
    /// `ingest-query` only: the certificate served with the final snapshot.
    pub radius_bound: Option<f64>,
}

impl Expected {
    /// The expectation for a plain solve.
    pub fn solve(centers: &[PointId], radius: f64) -> Self {
        Self {
            digest: center_digest(centers),
            radius,
            coreset_digest: None,
            radius_bound: None,
        }
    }

    /// Whether `centers` and `radius` reproduce this answer bit for bit.
    pub fn matches(&self, centers: &[PointId], radius: f64) -> bool {
        center_digest(centers) == self.digest && radius.to_bits() == self.radius.to_bits()
    }

    fn to_json(&self) -> Json {
        let mut j = Json::object()
            .with("center_digest", self.digest.as_str())
            .with("radius", self.radius);
        if let Some(d) = &self.coreset_digest {
            j.set("kcwc_digest", d.as_str());
        }
        if let Some(b) = self.radius_bound {
            j.set("radius_bound", b);
        }
        j
    }
}

/// Recorded answers: (workload, scale, seed, center digest, radius,
/// KCWC digest, radius bound).
type Row = (
    &'static str,
    &'static str,
    u64,
    &'static str,
    f64,
    &'static str,
    f64,
);

#[rustfmt::skip]
const COMMITTED: &[Row] = &[
    ("csv-gon", "tiny", 1, "e434b7ffabf14cef", 1.11914999735336, "", 0.0),
    ("csv-gon", "tiny", 2, "ecc10c6beeb4fd67", 1.1616801844765994, "", 0.0),
    ("csv-gon", "tiny", 3, "4c02d5917bdd558a", 1.1197031318646493, "", 0.0),
    ("csv-gon", "full", 1, "7ae391dfc36a2ec2", 1.4449193032470276, "", 0.0),
    ("csv-gon", "full", 2, "0ad65969977969f0", 1.459686101171641, "", 0.0),
    ("csv-gon", "full", 3, "6758bd13f5fde679", 1.3921387499781928, "", 0.0),
    ("csv-gon", "full", 4, "4fea797d9bb6720c", 1.4716490415602315, "", 0.0),
    ("csv-gon", "full", 5, "84082b73e7c914de", 1.5230600212572933, "", 0.0),
    ("csv-gon", "full", 6, "57b4fa33f8754df6", 1.4661581053102872, "", 0.0),
    ("csv-gon", "full", 7, "3e26509383125cf2", 1.394581996779391, "", 0.0),
    ("csv-gon", "full", 8, "265b93dd21ab2838", 1.4169202812337962, "", 0.0),
    ("csv-gon", "full", 9, "e2fa51cf79050938", 1.5080476610875733, "", 0.0),
    ("csv-gon", "full", 10, "360983d539461c28", 1.4306425931634632, "", 0.0),
    ("mem-mrg", "tiny", 1, "8057178025fb849a", 2.062569847979611, "", 0.0),
    ("mem-mrg", "tiny", 2, "eae4f7de094fb71b", 2.0553495481144823, "", 0.0),
    ("mem-mrg", "tiny", 3, "1014e94562c4a4b4", 2.0840848340875584, "", 0.0),
    ("mem-mrg", "full", 1, "c5212a7c8132af81", 2.3601244281185294, "", 0.0),
    ("mem-mrg", "full", 2, "fb6d2c62da9c8e90", 2.4340028644761653, "", 0.0),
    ("mem-mrg", "full", 3, "bcae97706dc2be6e", 2.3428601414117707, "", 0.0),
    ("mem-mrg", "full", 4, "c32fc5a4c62774a6", 2.2778620134289778, "", 0.0),
    ("mem-mrg", "full", 5, "55a03bfd00443d51", 2.334093510643023, "", 0.0),
    ("mem-mrg", "full", 6, "0f9ebb35d7bbd2ad", 2.330332490350598, "", 0.0),
    ("mem-mrg", "full", 7, "42cd1739b2fe60bf", 2.432058805632639, "", 0.0),
    ("mem-mrg", "full", 8, "baff735c50692a90", 2.3626872756494652, "", 0.0),
    ("mem-mrg", "full", 9, "abb0842c54a39223", 2.3733284450693026, "", 0.0),
    ("mem-mrg", "full", 10, "8de19ae43397d7fb", 2.405927929065852, "", 0.0),
    ("ingest-query", "tiny", 1, "a1e755c20e1d7cfb", 1.6138933589597344, "8f9b4f435c2b5798", 7.520031797493157),
    ("ingest-query", "tiny", 2, "e742fe39da068457", 1.59254080782916, "35db64d6938e5ec9", 7.746250275876273),
    ("ingest-query", "tiny", 3, "0c08f51610b8da45", 1.6005038109630045, "0052d80ddb814734", 7.637027221236803),
    ("ingest-query", "full", 1, "9e4478ae773fa7b9", 1.8770388124994513, "5d96edc34d3e47da", 134.86183052274893),
    ("ingest-query", "full", 2, "0e1c0e613a0b762c", 1.8955409384697082, "8c647a8b75b5f815", 135.0247907802597),
    ("ingest-query", "full", 3, "4186cc38d840299e", 1.9230339900053341, "3c37dfac348dc6d8", 136.16416895612306),
    ("ingest-query", "full", 4, "3ff0830d6e736406", 2.04466013461511, "39220a78e4882f9b", 136.65905058640413),
    ("ingest-query", "full", 5, "c7eed547d194becc", 1.8832387133107196, "4c52c512bfa430ed", 137.01471841594855),
    ("ingest-query", "full", 6, "8ac6a9bd1287dd77", 1.9977560858481236, "9689fd54875f5309", 135.15338103970515),
    ("ingest-query", "full", 7, "5a762bd40fd12b75", 1.8564640945648834, "74fa087f14891065", 136.19639191907467),
    ("ingest-query", "full", 8, "ab52f71942c6c299", 1.9528085654136647, "8dae102645ce3196", 136.00637792578775),
    ("ingest-query", "full", 9, "4d0c4f45387ee6f8", 1.8465283859751815, "8c96a7c0321c0e10", 136.69442507766743),
    ("ingest-query", "full", 10, "58147600eb4ea6f8", 1.9501485865312125, "ca09fe3d33c6e4e6", 136.99412339864838),
];

/// Checks the run's independently derived answer against the committed
/// one (when the seed has one), applies `--expect-digest`, and records the
/// expectation.  Returns what every rep must match.
pub fn gate(ctx: &Ctx, out: &mut Outcome, derived: Expected) -> Expected {
    let committed = COMMITTED
        .iter()
        .find(|r| r.0 == ctx.workload && r.1 == ctx.scale.name() && r.2 == ctx.seed);
    if let Some(&(_, _, _, digest, radius, kcwc, bound)) = committed {
        let recorded = Expected {
            digest: digest.to_string(),
            radius,
            coreset_digest: (!kcwc.is_empty()).then(|| kcwc.to_string()),
            radius_bound: (!kcwc.is_empty()).then_some(bound),
        };
        out.check(recorded == derived, || {
            format!("answer {derived:?} differs from the committed {recorded:?}")
        });
    }
    let mut expected = derived;
    if let Some(d) = &ctx.expect_digest {
        expected.digest = d.clone();
    }
    out.record.set("expected", expected.to_json());
    out.record.set("expected_committed", committed.is_some());
    expected
}
