//! `SCHEMAS.lock`, the field tables in `ups_sweep::store` and what the
//! emitters really write must agree: the lock is the text the tables
//! print, the keys real emitters write (a miniature sweep through the
//! runner and the pool's heartbeat, and the committed `BENCH_*.json`) are
//! exactly each table's keys, and the validator rejects a document that
//! lacks any key a table requires.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::OnceLock;

use ups_dynamics::FailureProfile;
use ups_netsim::prelude::{DeadLinkPolicy, Dur, MapperKind};
use ups_sweep::json::{parse, JsonValue};
use ups_sweep::store::{Field, Kind, Table, TABLES};
use ups_sweep::telemetry::timeseries_json;
use ups_sweep::{bench_sweep_json, JobSpec, Queues, ScenarioGrid, SharedScenarios};
use ups_sweep::{pool, run_job_shared, validate_artifact, Exclude, Failures, HeartbeatConfig};

/// The workspace root, where the lock and the committed artifacts live.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Every `BENCH_*.json` at the repository root with its text, sorted by
/// name: the directory is the list of committed artifacts.
fn artifacts() -> Vec<(String, String)> {
    let root = Path::new(ROOT);
    let mut found: Vec<(String, String)> = std::fs::read_dir(root)
        .expect("repository root")
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .map(|name| {
            let text = std::fs::read_to_string(root.join(&name));
            (name, text.expect("a committed artifact"))
        })
        .collect();
    found.sort();
    assert!(!found.is_empty(), "no BENCH_*.json at the repository root");
    found
}

/// The two documents a miniature sweep writes: the aggregate over one job
/// of each record flavour (open-loop, closed-loop, quantized, churn), its
/// grid carrying one exclusion filter, and the time series of the pool's
/// heartbeat over the same jobs.
fn miniatures() -> &'static [(String, String); 2] {
    static DOCS: OnceLock<[(String, String); 2]> = OnceLock::new();
    DOCS.get_or_init(|| {
        let exclude = Exclude {
            scheduler: Some("LIFO".into()),
            ..Exclude::default()
        };
        let grid = ScenarioGrid {
            topologies: vec!["Line(3)".into()],
            profiles: vec!["fixed-mtu".into()],
            schedulers: vec!["Random".into()],
            utilizations: vec![0.6],
            seeds: vec![11],
            window: Dur::from_ms(4),
            horizon: Some(Dur::from_ms(40)),
            excludes: vec![exclude],
            ..ScenarioGrid::default()
        };
        // Open-loop and closed-loop, then the two sub-axes on the first.
        let mut jobs = grid.expand().expect("the miniature grid expands");
        let open = jobs[0];
        let mapper = MapperKind::Dynamic;
        let queues = Some(Queues { k: 1, mapper });
        jobs.push(JobSpec {
            job_id: 2,
            queues,
            ..open
        });
        let (profile, inflight) = (FailureProfile::RandomLinks, DeadLinkPolicy::Reroute);
        let failures = Some(Failures {
            profile,
            rate: 0.6,
            inflight,
        });
        let topology = "FatTree(k=4)";
        jobs.push(JobSpec {
            job_id: 3,
            topology,
            failures,
            ..open
        });

        let shared = SharedScenarios::for_jobs(&jobs);
        let heartbeat = Some(HeartbeatConfig { progress: false });
        let (records, stats) = pool::run_jobs_telemetry(
            &jobs,
            2,
            |_, spec| spec.label(),
            heartbeat,
            |_, spec| run_job_shared(spec, &shared),
        );
        let aggregate = bench_sweep_json(&grid, &records, &stats, 1.0);
        let timeseries = timeseries_json(&stats.ticks, stats.workers, 1.0);
        [
            ("miniature sweep".into(), aggregate),
            ("miniature time series".into(), timeseries),
        ]
    })
}

fn table(tag: &str) -> &'static Table {
    let found = TABLES.into_iter().find(|t| t.tag == Some(tag));
    found.unwrap_or_else(|| panic!("no field table for schema {tag:?}"))
}

/// The keys of `table` that `pick` selects, through the untagged tables
/// it nests: a nested tag is its own section, so the key that holds it is
/// listed and its fields are not.
fn keys(table: &Table, pick: fn(&Field) -> bool) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for f in table.fields.iter().filter(|f| pick(f)) {
        out.insert(f.key.to_string());
        if let Kind::Obj(nested) | Kind::Rows(nested) = f.kind {
            if nested.tag.is_none() {
                out.extend(keys(nested, pick));
            }
        }
    }
    out
}

/// `SCHEMAS.lock` is a `#` header, then one `[tag]` section per table in
/// tag order, listing [`keys`].
#[test]
fn the_lock_is_printed_from_the_field_tables() {
    let mut printed = String::new();
    let mut tables = TABLES.map(|t| (t.tag.expect("TABLES are tagged"), keys(t, |_| true)));
    tables.sort();
    for (tag, keys) in tables {
        printed.push_str(&format!("\n[{tag}]\n"));
        keys.iter()
            .for_each(|k| printed.push_str(&format!("{k}\n")));
    }
    let lock = std::fs::read_to_string(Path::new(ROOT).join("SCHEMAS.lock"));
    let lock = lock.expect("SCHEMAS.lock is committed at the repo root");
    let (header, sections) = lock.split_once("\n\n[").expect("a [tag] section");
    assert!(header.lines().all(|l| l.starts_with('#')), "{header}");
    assert!(
        format!("\n[{sections}") == printed,
        "SCHEMAS.lock differs from the field tables in crates/sweep/src/store.rs; \
         below its header it must read:\n{printed}"
    );
}

type KeysByTag = BTreeMap<String, BTreeSet<String>>;

/// Every key `doc` carries, filed under the tag of the object that holds
/// it: an object with its own `schema` opens that tag's set.
fn keys_by_tag(doc: &str) -> KeysByTag {
    fn walk(v: &JsonValue, tag: &str, out: &mut KeysByTag) {
        match v {
            JsonValue::Object(fields) => {
                let tag = v.get("schema").and_then(JsonValue::as_str).unwrap_or(tag);
                for (key, child) in fields {
                    out.entry(tag.into()).or_default().insert(key.clone());
                    walk(child, tag, out);
                }
            }
            JsonValue::Array(items) => items.iter().for_each(|item| walk(item, tag, out)),
            _ => {}
        }
    }
    let mut out = KeysByTag::new();
    walk(&parse(doc).expect("a JSON document"), "", &mut out);
    out
}

#[test]
fn emitters_write_exactly_the_table_keys() {
    let mut written = KeysByTag::new();
    for (_, doc) in artifacts().iter().chain(miniatures()) {
        for (tag, keys) in keys_by_tag(doc) {
            written.entry(tag).or_default().extend(keys);
        }
    }
    for t in TABLES {
        let tag = t.tag.expect("TABLES are tagged");
        let emitted = written.remove(tag).unwrap_or_default();
        assert_eq!(emitted, keys(t, |_| true), "{tag}: emitted keys ≠ table");
    }
    assert!(written.is_empty(), "keys under no table: {written:?}");
}

/// Each committed artifact is covered by the lock (the tables' text, by
/// the test above): every key it carries is in the section of the tag
/// that carries it. The lock may be a *superset* of any one artifact:
/// optional blocks (`disruption`) appear only under some scenarios.
#[test]
fn committed_artifacts_are_covered_by_the_lock() {
    for (artifact, doc) in artifacts() {
        for (tag, carried) in keys_by_tag(&doc) {
            let locked = keys(table(&tag), |_| true);
            let outside: Vec<_> = carried.difference(&locked).collect();
            assert!(outside.is_empty(), "{artifact}: [{tag}] lacks {outside:?}");
        }
    }
}

/// Each committed artifact and each miniature validates, and with the
/// first occurrence of one required key renamed is rejected naming
/// `.<key> missing` — for every key the tables of its tags require.
/// Together the documents cover every required key of every table.
#[test]
fn every_table_key_is_enforced() {
    let mut enforced = BTreeSet::new();
    for (name, doc) in artifacts().iter().chain(miniatures()) {
        validate_artifact(doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let tags = keys_by_tag(doc).into_keys();
        let required: BTreeSet<_> = tags.flat_map(|t| keys(table(&t), |f| f.required)).collect();
        for key in required {
            let quoted = format!("\"{key}\":");
            let Some(at) = doc.find(&quoted) else {
                continue;
            };
            let renamed = format!("{}\"{key}~\":{}", &doc[..at], &doc[at + quoted.len()..]);
            let err = validate_artifact(&renamed).expect_err(&format!("{name} lacks {key}"));
            let named = format!(".{key} missing");
            assert!(err.contains(&named), "{name}: {err:?} lacks {named:?}");
            enforced.insert(key);
        }
    }
    let required = TABLES.into_iter().flat_map(|t| keys(t, |f| f.required));
    let unchecked: BTreeSet<_> = required.filter(|k| !enforced.contains(k)).collect();
    assert!(unchecked.is_empty(), "no document carries {unchecked:?}");
}
