//! Pinned digests of whole obs timelines.
//!
//! `goldens/serve.jsonl` gates only the serve report, and the obs
//! goldens gate the throughput family; nothing else pins the per-flow
//! and per-link series the sampler records. These tests pin the full
//! merged timelines of two worlds — series count, `to_jsonl` byte
//! length and a 64-bit FNV-1a digest — so any change to what the sampler
//! reads, or when, shows up here byte for byte:
//!
//! * a reduced serve load rung (40 short flows) and one striping rung,
//!   at 1 and 2 shards (the merged timelines are shard-count-invariant);
//! * an obs-on burst-loss WAN world whose data link drops frames, so the
//!   link drop series move during the run.

use tengig::experiments::faults::faults_lab_tuned;
use tengig::experiments::run_window;
use tengig::experiments::serve::{run_serve, LoadRung, ServePreset, StripeRung};
use tengig_net::{GilbertElliott, Impairments, WanSpec};
use tengig_sim::{MetricKind, Nanos, ObsConfig, Scope, Timelines};

const SEED: u64 = 2003;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(series, to_jsonl byte length, FNV-1a of the bytes)`.
fn pin(tl: &Timelines) -> (usize, usize, u64) {
    let text = tl.to_jsonl();
    (tl.len(), text.len(), fnv1a(text.as_bytes()))
}

#[test]
fn serve_timelines_are_pinned_at_one_and_two_shards() {
    let presets = [
        (
            ServePreset::Load(LoadRung {
                rho_permille: 850,
                flows: 40,
            }),
            (665, 55528, 7711201241926035942),
        ),
        (
            ServePreset::Stripe(StripeRung {
                streams: 2,
                spindles: 4,
            }),
            (38, 5063, 5328596543827058000),
        ),
    ];
    for (preset, want) in presets {
        for shards in [1usize, 2] {
            let (_, tl) = run_serve(&preset, shards, SEED);
            assert_eq!(
                pin(&tl),
                want,
                "{} timelines at {shards} shards",
                preset.label()
            );
        }
    }
}

#[test]
fn burst_loss_wan_timelines_are_pinned() {
    let wan = WanSpec {
        impair: Impairments::none().with_burst(GilbertElliott::bursty(3e-3, 4.0)),
        ..WanSpec::record_run()
    };
    let (mut lab, mut eng) = faults_lab_tuned(&wan, None, SEED, &|s| s);
    lab.enable_obs(&ObsConfig::default(), SEED);
    run_window(
        &mut lab,
        &mut eng,
        Nanos::from_millis(300),
        Nanos::from_millis(1500),
        |_, _| (),
    );
    let drops = lab.links[0].total_drops();
    assert!(drops > 0, "the burst chain must drop frames");
    let tl = lab.take_timelines().expect("obs was on");
    let queue_drops = tl
        .get(Scope::Link { link: 0 }, MetricKind::QueueDrops)
        .expect("data link drop series");
    assert!(
        queue_drops.len() > 1,
        "the drop series must move during the run"
    );
    assert_eq!(pin(&tl), (26, 7631, 274354584784030218), "{drops} drops");
}
