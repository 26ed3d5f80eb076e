//! A journal written by an older binary resumes under this one.
//!
//! `fixtures/journal-v1/` is a two-shard `ompvar-checkpoint/1` journal
//! written through `create_shards` + `Manifest::append` by the binary of
//! commit 1467a18 (the last one whose reader built a `json::Value` per
//! line): 36 `table2/cell/<i>` units dealt round-robin to the two shards
//! — cell 5 quarantined after three retries, cell 7 ok after one, cell 12
//! quarantined at once, the rest ok with a `{"samples":[…],"n":3}`
//! payload — then in shard 1 a second `table2/cell/4` (shard 0's wins), a
//! unit whose name needs every kind of escape, and the torn half of a
//! line a `kill -9` leaves. Never regenerate it with the current writer:
//! the point is that the bytes are the old ones.

use ompvar_obs::json::Value;
use ompvar_supervisor::checkpoint::{resume_shards, Header, UnitStatus};
use ompvar_supervisor::Transience;
use std::path::Path;

const TRANSIENT: Transience = Transience::Transient;
const ESCAPED: &str = "fig2/q\"b\\s\n\t\u{1}\u{2028}\u{1f600}/0";

fn samples(payload: &Option<Value>) -> Vec<u64> {
    let samples = payload.as_ref().and_then(|p| p.get("samples")).and_then(Value::as_arr);
    samples.expect("a samples payload").iter().map(|s| s.as_f64().unwrap().to_bits()).collect()
}

#[test]
fn journal_written_by_the_parent_binary_resumes() {
    // Resume heals the torn tail in place: work on a copy.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal-v1");
    let dir = std::env::temp_dir().join(format!("ompvar_journal_v1_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for shard in ["manifest.jsonl", "manifest.shard-1.jsonl"] {
        std::fs::copy(fixture.join(shard), dir.join(shard)).unwrap();
    }

    let cell = |i: usize| format!("table2/cell/{i}");
    let mut targets: Vec<String> = (0..36).map(cell).collect();
    targets.extend([ESCAPED.to_string(), "trace".to_string()]);
    let header = Header { seed: 20230714, fast: true, targets };
    let (shards, merged) = resume_shards(&dir, "manifest", &header, 2).unwrap();
    drop(shards);
    // Shard 0 ends in a newline and is left as it was; shard 1's half
    // line — the `trace` unit's — is truncated off.
    let read = |base: &Path, shard: &str| std::fs::read_to_string(base.join(shard)).unwrap();
    assert_eq!(read(&dir, "manifest.jsonl"), read(&fixture, "manifest.jsonl"));
    let torn = read(&fixture, "manifest.shard-1.jsonl");
    assert!(!torn.ends_with('\n'));
    assert_eq!(read(&dir, "manifest.shard-1.jsonl"), torn[..=torn.rfind('\n').unwrap()]);
    assert!(merged.iter().all(|e| e.name != "trace"), "the torn unit re-runs");

    // Shard order, then file order; the duplicate and the torn unit gone.
    let expected: Vec<String> = (0..36)
        .step_by(2)
        .chain((1..36).step_by(2))
        .map(cell)
        .chain([ESCAPED.to_string()])
        .collect();
    assert_eq!(merged.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(), expected);

    for e in &merged {
        let i: Option<usize> = e.name.strip_prefix("table2/cell/").map(|i| i.parse().unwrap());
        let quarantined = matches!(i, Some(5 | 12));
        assert_eq!(e.status == UnitStatus::Quarantined, quarantined, "{}", e.name);
        assert_eq!(e.payload.is_none(), quarantined, "{}", e.name);
        match i {
            Some(5) => {
                assert_eq!(e.attempts, 3);
                let retries: Vec<_> = e
                    .retries
                    .iter()
                    .map(|r| (r.attempt, r.error.as_str(), r.transience, r.backoff_ms))
                    .collect();
                assert_eq!(
                    retries,
                    [
                        (0, "simulation deadlock at t=5ns: \"quoted\" \\ back", TRANSIENT, 31),
                        (1, "worker panicked: line\nbreak", TRANSIENT, 62),
                        (2, "invalid region", Transience::Permanent, 0),
                    ]
                );
            }
            Some(7) => {
                assert_eq!((e.attempts, e.retries.len()), (2, 1));
                assert_eq!(e.retries[0].error, "time limit exceeded");
                let bits = [1.5, 2.25, -0.0, 5e-324, f64::MAX].map(f64::to_bits);
                assert_eq!(samples(&e.payload), bits);
            }
            Some(12) => assert_eq!((e.attempts, e.retries.len()), (1, 0)),
            Some(i) => {
                // Cell 4: shard 0's line, not the 9 attempts of shard 1's.
                assert_eq!((e.attempts, e.retries.len()), (1, 0), "{}", e.name);
                let x = i as f64;
                let want = [0.1 + x * 0.2, 1.0 / (x + 3.0), x * 1e-7];
                assert_eq!(samples(&e.payload), want.map(f64::to_bits));
                let n = e.payload.as_ref().unwrap().get("n").and_then(Value::as_f64);
                assert_eq!(n, Some(3.0));
            }
            None => {
                assert_eq!(samples(&e.payload), [2.1f32 as f64].map(f64::to_bits));
                let label = e.payload.as_ref().unwrap().get("label").and_then(Value::as_str);
                assert_eq!(label, Some("üñ\""));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
