//! The golden-gate registry behind `tengig-check` (`make golden-check`).
//!
//! Every gated experiment family is one [`Family`] row in [`REGISTRY`]:
//! its name, the shard counts the gate covers, a pinned `fn(shards,
//! threads)` that recomputes its documents, and one [`Output`] per
//! document saying which golden (if any) it must byte-match. [`check`] is
//! the one generic loop: compute at 1 and 4 sweep threads and require
//! every document byte-identical, byte-compare each gated document
//! against its golden, dump a failing document to
//! `target/<doc>_current.jsonl`, and report `Ok(false)` on mismatch or
//! `Err` on an operational error (an unreadable golden included).
//! Gating a new family is one more row.

use crate::counts::counts;
use crate::golden;
use tengig::experiments::faults::{
    burst_sweep_report, chaos_campaign, flap_recovery_sweep_report, BURST_LENGTHS, FLAP_RTTS,
};
use tengig::experiments::grid::{grid_sweep_report, standard_presets};
use tengig::experiments::serve::{serve_sweep_report, standard_rungs};
use tengig::experiments::throughput::throughput_sweep_report;
use tengig::{LadderRung, SweepRunner};
use tengig_ethernet::Mtu;
use tengig_sim::{Nanos, ObsConfig};

/// Master seed for every pinned workload (the publication year, as used
/// by the paper sweeps).
pub const SEED: u64 = 2003;

/// Master seed for the default chaos campaign and the pinned gate one.
pub const CAMPAIGN_SEED: u64 = 77;

/// Scenario count for the default chaos campaign and the pinned gate one.
pub const CAMPAIGN_N: usize = 64;

/// Packet count per throughput point of the obs gate. Small enough for
/// CI, large enough that every probe stage fires and timelines have shape.
const OBS_COUNT: u64 = 20_000;

/// Payload sizes of the obs gate's throughput sweep.
const OBS_PAYLOADS: [u64; 3] = [512, 1448, 8948];

/// How a document is held to a checked-in golden.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Golden {
    /// Thread-identity only.
    None,
    /// Byte-match this golden; `--write-golden` rewrites it from this
    /// document. Exactly one output in the registry writes each golden.
    Writes(&'static str),
    /// Byte-match a golden another output writes (a "this plane does not
    /// perturb that report" check); never rewritten from here.
    Reads(&'static str),
}

impl Golden {
    /// The golden path this document is compared against, if any.
    pub fn path(self) -> Option<&'static str> {
        match self {
            Golden::None => None,
            Golden::Writes(p) | Golden::Reads(p) => Some(p),
        }
    }
}

/// One document a family computes.
#[derive(Debug)]
pub struct Output {
    /// Short id: names the document in FAIL banners and its mismatch
    /// artifact `target/<doc>_current.jsonl`.
    pub doc: &'static str,
    /// The golden it must byte-match.
    pub golden: Golden,
}

/// One gated family: a registry row.
#[derive(Debug)]
pub struct Family {
    /// Command-line name (`tengig-check <name>`).
    pub name: &'static str,
    /// Shard counts the full gate covers. Families whose worlds take no
    /// shard count ignore the argument and list `[1]`.
    pub shards: &'static [usize],
    /// The pinned computation at `(shards, sweep threads)`: one document
    /// per entry of `outputs`, in order.
    pub compute: fn(usize, usize) -> Vec<String>,
    /// What each computed document is held to.
    pub outputs: &'static [Output],
}

/// Every gated family, in increasing cost: the families that take no
/// shard count first, the ones gated at several shard counts last, so a
/// plain determinism break surfaces before one that needs a partition.
pub static REGISTRY: &[Family] = &[
    // Metrics sidecar thread-identical; the obs-disabled and obs-enabled
    // reports both equal the golden, so the side channel never touches
    // the primary bytes.
    Family {
        name: "obs",
        shards: &[1],
        compute: obs,
        outputs: &[
            Output {
                doc: "obs_sidecar",
                golden: Golden::None,
            },
            Output {
                doc: "obs",
                golden: Golden::Writes("goldens/obs_throughput.jsonl"),
            },
            Output {
                doc: "obs_enabled",
                golden: Golden::Reads("goldens/obs_throughput.jsonl"),
            },
        ],
    },
    Family {
        name: "faults",
        shards: &[1],
        compute: faults,
        outputs: &[
            Output {
                doc: "faults_burst",
                golden: Golden::Writes("goldens/faults_burst.jsonl"),
            },
            Output {
                doc: "faults_flap",
                golden: Golden::Writes("goldens/faults_flap.jsonl"),
            },
            Output {
                doc: "faults_chaos",
                golden: Golden::Writes("goldens/faults_chaos.jsonl"),
            },
        ],
    },
    // Exact event and sim-byte counts of seven pinned workloads, one
    // line each; the seven run as one parallel sweep.
    Family {
        name: "counts",
        shards: &[1],
        compute: counts,
        outputs: &[Output {
            doc: "counts",
            golden: Golden::Writes("goldens/counts.jsonl"),
        }],
    },
    // One sweep, two documents: the report and the deterministic "sim"
    // profiling sidecar read from the same runs. Both goldens are
    // shard-count-invariant by construction: every shard count compares
    // against the same files.
    Family {
        name: "grid",
        shards: &[1, 2, 4],
        compute: grid,
        outputs: &[
            Output {
                doc: "grid",
                golden: Golden::Writes("goldens/grid.jsonl"),
            },
            Output {
                doc: "prof",
                golden: Golden::Writes("goldens/prof_throughput.jsonl"),
            },
        ],
    },
    // The FCT/goodput report followed by the CPU-saturation sidecar, as
    // one gated document.
    Family {
        name: "serve",
        shards: &[1, 2, 4],
        compute: serve,
        outputs: &[Output {
            doc: "serve",
            golden: Golden::Writes("goldens/serve.jsonl"),
        }],
    },
];

/// Obs cadence for the pinned workloads: a 100 µs sampling interval keeps
/// the timelines compact but non-trivial.
pub fn obs_config() -> ObsConfig {
    ObsConfig {
        sample_interval: Nanos::from_micros(100),
        ..ObsConfig::default()
    }
}

fn obs(_shards: usize, threads: usize) -> Vec<String> {
    let cfg = || LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let runner = || SweepRunner::new(threads);
    let sweep = |obs: Option<&ObsConfig>| {
        throughput_sweep_report(
            cfg(),
            "obs-check",
            &OBS_PAYLOADS,
            OBS_COUNT,
            SEED,
            runner(),
            obs,
        )
    };
    let (_, plain, _) = sweep(None);
    let (_, report, sidecar) = sweep(Some(&obs_config()));
    let sidecar = sidecar.expect("obs on yields a sidecar");
    vec![sidecar.concatenated(), plain.to_jsonl(), report.to_jsonl()]
}

/// The burst sweep runs at 0.3% mean loss over a 90 s window after a 2 s
/// warmup (see `BURST_LENGTHS` for why the grid brackets the window).
fn faults(_shards: usize, threads: usize) -> Vec<String> {
    let runner = || SweepRunner::new(threads);
    let (_, burst) = burst_sweep_report(
        3e-3,
        &BURST_LENGTHS,
        Nanos::from_secs(2),
        Nanos::from_secs(90),
        SEED,
        runner(),
    );
    let (_, flap) = flap_recovery_sweep_report(&FLAP_RTTS, SEED, runner());
    let (_, chaos) = chaos_campaign(CAMPAIGN_N, CAMPAIGN_SEED, None, runner());
    vec![burst.to_jsonl(), flap.to_jsonl(), chaos.to_jsonl()]
}

fn grid(shards: usize, threads: usize) -> Vec<String> {
    let (_, report, gated) =
        grid_sweep_report(&standard_presets(), shards, SEED, SweepRunner::new(threads));
    vec![report.to_jsonl(), gated.concatenated()]
}

fn serve(shards: usize, threads: usize) -> Vec<String> {
    let (_, report, sidecar) =
        serve_sweep_report(&standard_rungs(), shards, SEED, SweepRunner::new(threads));
    vec![format!("{}{}", report.to_jsonl(), sidecar.concatenated())]
}

/// Run one family's gate at `shards`: compute on 1 and 4 sweep threads,
/// require each document byte-identical across them, and byte-compare
/// each gated document against its golden. With `write_golden`, first
/// rewrite the goldens this family writes. Returns whether everything
/// matched; failing to read a golden is an `Err`, never a pass.
pub fn check(fam: &Family, shards: usize, write_golden: bool) -> Result<bool, String> {
    let tag = fam.name;
    let compute = |threads: usize| {
        eprintln!("{tag}: shards={shards}, {threads} sweep thread(s) ...");
        let docs = (fam.compute)(shards, threads);
        assert_eq!(docs.len(), fam.outputs.len(), "{tag}: documents");
        docs
    };
    let one = compute(1);
    let four = compute(4);

    if write_golden {
        for (out, doc) in fam.outputs.iter().zip(&one) {
            if let Golden::Writes(path) = out.golden {
                golden::write_golden(tag, path, doc)?;
            }
        }
    }

    let regen = format!("tengig-check {tag} --write-golden");
    let mut ok = true;
    for ((out, doc_1), doc_4) in fam.outputs.iter().zip(&one).zip(&four) {
        let what = format!("{} (shards={shards})", out.doc);
        let mut matched = golden::require_identical(
            tag,
            &format!("{what} differs between 1 and 4 sweep threads"),
            doc_1,
            doc_4,
        );
        if let Some(path) = out.golden.path() {
            matched &= golden::require_golden(tag, &what, path, &regen, doc_1)?;
        }
        if !matched {
            golden::dump_current(&format!("target/{}_current.jsonl", out.doc), doc_1)?;
        }
        ok &= matched;
    }
    if ok {
        let mut goldens: Vec<&str> = fam.outputs.iter().filter_map(|o| o.golden.path()).collect();
        goldens.dedup();
        println!(
            "{tag}: PASS (shards={shards}: {} document(s) byte-identical across 1/4 sweep \
             threads; match {})",
            fam.outputs.len(),
            goldens.join(", ")
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    fn repo_path(rel: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel)
    }

    #[test]
    fn registry_names_are_unique_and_goldens_exist() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate family name");
        let docs: BTreeSet<&str> = REGISTRY
            .iter()
            .flat_map(|f| f.outputs.iter().map(|o| o.doc))
            .collect();
        let n_outputs: usize = REGISTRY.iter().map(|f| f.outputs.len()).sum();
        assert_eq!(docs.len(), n_outputs, "duplicate document id");
        for fam in REGISTRY {
            assert!(
                !fam.shards.is_empty() && !fam.shards.contains(&0),
                "{}",
                fam.name
            );
            for path in fam.outputs.iter().filter_map(|o| o.golden.path()) {
                assert!(
                    repo_path(path).is_file(),
                    "{}: missing golden {path}",
                    fam.name
                );
            }
        }
    }

    #[test]
    fn every_golden_is_written_by_exactly_one_row() {
        let writers: Vec<&str> = REGISTRY
            .iter()
            .flat_map(|f| f.outputs.iter())
            .filter_map(|o| match o.golden {
                Golden::Writes(p) => Some(p),
                _ => None,
            })
            .collect();
        let unique: BTreeSet<&str> = writers.iter().copied().collect();
        assert_eq!(unique.len(), writers.len(), "a golden has two writers");
        let on_disk: BTreeSet<String> = std::fs::read_dir(repo_path("goldens"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".jsonl"))
            .map(|n| format!("goldens/{n}"))
            .collect();
        let claimed: BTreeSet<String> = unique.iter().map(|p| p.to_string()).collect();
        assert_eq!(claimed, on_disk, "every golden needs exactly one gate");
    }

    #[test]
    fn a_missing_golden_is_an_error_not_a_pass() {
        let fam = Family {
            name: "missing",
            shards: &[1],
            compute: |_, _| vec!["row\n".to_string()],
            outputs: &[Output {
                doc: "missing",
                golden: Golden::Reads("/nonexistent/missing.jsonl"),
            }],
        };
        assert!(check(&fam, 1, false).is_err());
    }
}
