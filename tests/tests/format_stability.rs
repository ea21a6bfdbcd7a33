//! On-disk bytes are a contract of their own: a change to the in-memory
//! tuple representation must not move them. `tests/fixtures/pr18_store/`
//! is a store directory (one checkpoint per retained version plus the WAL
//! segment) written by the commit *before* tuples got shared shapes
//! (PR 18, `d047a59`), by `write_store` below. This suite
//!
//! * re-writes the same store with the current code and demands every
//!   file byte-identical — checkpoint payloads (`codec::encode_database`)
//!   and WAL records (`codec::encode_ops`) alike;
//! * opens a copy of the old directory and finds the committed state.
//!
//! The fixture holds what the canonical encoding has to get right: two
//! tuples with the same attributes declared in different orders, a tuple
//! lacking attributes (FDM's NULL), a nested tuple value, a multi-valued
//! relation, a relationship with attributes over shared domains, and
//! upserts / deletes / an assign in the WAL tail.
//!
//! To regenerate after a deliberate format change: check out the commit
//! whose bytes are the new contract, build a scratch binary against it
//! that `include!`s this file (minus these `//!` lines) and calls
//! `write_store(dir)`, and replace the fixture directory with what it
//! writes.

use fdm_core::{
    DatabaseF, Domain, FnValue, Participant, RelationF, RelationshipBuilder, SharedDomain, TupleF,
    Value, ValueType,
};
use fdm_txn::{DurabilityConfig, Store, StoreConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fixture_db() -> DatabaseF {
    let cid = SharedDomain::new("cid", Domain::Typed(ValueType::Int));
    let pid = SharedDomain::new("pid", Domain::Typed(ValueType::Int));
    let customers = RelationF::new("customers", &["cid"])
        .insert(
            Value::Int(1),
            TupleF::builder("c1")
                .attr("name", "Ann")
                .attr("age", 34)
                .attr("state", "CA")
                .build(),
        )
        .unwrap()
        // the same attributes, declared in another order
        .insert(
            Value::Int(2),
            TupleF::builder("c2")
                .attr("state", "NY")
                .attr("score", 1.5)
                .attr("age", 51)
                .attr("name", "Bob")
                .build(),
        )
        .unwrap()
        // an attribute set of its own: no NULLs, the tuple just lacks them
        .insert(
            Value::Int(3),
            TupleF::builder("c3")
                .attr("name", "Cy")
                .function("home", TupleF::builder("addr").attr("zip", "94110").build())
                .build(),
        )
        .unwrap();
    let products = RelationF::new("products", &["pid"])
        .insert(
            Value::Int(10),
            TupleF::builder("p10")
                .attr("name", "anvil")
                .attr("price", 9.75)
                .build(),
        )
        .unwrap()
        .insert(
            Value::Int(11),
            TupleF::builder("p11")
                .attr("price", 0.5)
                .attr("name", "bolt")
                .build(),
        )
        .unwrap();
    let by_state = RelationF::from_groups(
        "by_state",
        &["state"],
        vec![(
            Value::str("CA"),
            vec![
                Arc::new(TupleF::builder("m").attr("cid", 1).attr("n", 2).build()),
                Arc::new(TupleF::builder("m").attr("n", 7).attr("cid", 4).build()),
            ],
        )],
    );
    let mut order = RelationshipBuilder::new(
        "order",
        vec![
            Participant::new("customers", "cid", cid.clone()),
            Participant::new("products", "pid", pid.clone()),
        ],
    );
    order
        .push(
            &[Value::Int(1), Value::Int(10)],
            TupleF::builder("o")
                .attr("date", "2026-01-05")
                .attr("quantity", 2)
                .build(),
        )
        .unwrap();
    order
        .push(
            &[Value::Int(2), Value::Int(11)],
            TupleF::builder("o")
                .attr("quantity", 1)
                .attr("date", "2026-02-01")
                .build(),
        )
        .unwrap();
    order.push_link(&[Value::Int(2), Value::Int(10)]).unwrap();
    DatabaseF::new("shop")
        .with_domain(cid)
        .with_domain(pid)
        .with_relation(customers)
        .with_relation(products)
        .with_relation(by_state)
        .with_relationship(order.build().unwrap())
}

/// The deterministic commits: four before the checkpoint, three after.
fn commit(store: &Arc<Store>, i: i64) {
    store
        .run(|txn| match i {
            1 => txn.upsert(
                "customers",
                Value::Int(4),
                TupleF::builder("c4")
                    .attr("age", 28)
                    .attr("name", "Di")
                    .build(),
            ),
            2 => txn.modify_attr("customers", &Value::Int(1), "age", |v| {
                v.add(&Value::Int(1))
            }),
            3 => txn.delete("customers", &Value::Int(3)),
            4 => txn.upsert(
                "products",
                Value::Int(12),
                TupleF::builder("p12")
                    .attr("name", "cog")
                    .attr("price", 3)
                    .attr("tags", Value::list([Value::str("new"), Value::Bool(true)]))
                    .build(),
            ),
            5 => {
                txn.upsert(
                    "customers",
                    Value::Int(5),
                    TupleF::builder("c5")
                        .attr("state", "WA")
                        .attr("name", "Ed")
                        .attr("age", 40)
                        .build(),
                )?;
                txn.delete("products", &Value::Int(11))
            }
            6 => txn.assign(
                "motd",
                FnValue::Tuple(Arc::new(
                    TupleF::builder("motd")
                        .attr("text", "hello")
                        .attr("at", 6)
                        .build(),
                )),
            ),
            _ => txn.modify_attr("customers", &Value::Int(5), "age", |v| {
                v.add(&Value::Int(1))
            }),
        })
        .unwrap();
}

/// Writes the fixture store into `dir`: create, four commits, a
/// checkpoint, three more commits in the WAL tail.
fn write_store(dir: &Path) {
    let config = StoreConfig {
        durability: Some(DurabilityConfig::new(dir).with_checkpoint_every(None)),
        ..StoreConfig::default()
    };
    let store = Store::create(fixture_db(), config).unwrap();
    (1..=4).for_each(|i| commit(&store, i));
    store.checkpoint().unwrap();
    (5..=7).for_each(|i| commit(&store, i));
}

fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/pr18_store")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdm-format-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn checkpoint_and_wal_bytes_are_those_of_the_parent_commit() {
    let dir = scratch("rewrite");
    write_store(&dir);
    let (ours, theirs) = (files(&dir), files(&fixture_dir()));
    assert_eq!(
        ours.keys().collect::<Vec<_>>(),
        theirs.keys().collect::<Vec<_>>(),
        "same checkpoint and segment files"
    );
    assert!(
        theirs.keys().any(|f| f.ends_with(".ckpt")) && theirs.keys().any(|f| f.ends_with(".seg")),
        "the fixture holds checkpoints and a WAL segment: {:?}",
        theirs.keys()
    );
    for (name, bytes) in &theirs {
        assert!(ours[name] == *bytes, "{name}: bytes moved");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_store_written_by_the_parent_commit_opens() {
    let dir = scratch("open");
    for (name, bytes) in files(&fixture_dir()) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let opened = Store::open(&dir).unwrap();
    // the reference: the same commits replayed through an in-memory store
    let reference = Store::new(fixture_db());
    (1..=7).for_each(|i| commit(&reference, i));
    let (got, want) = (opened.snapshot(), reference.snapshot());
    let left_over = fdm_fql::difference(&want, &got).unwrap();
    assert_eq!(left_over.iter().count(), 0, "recovered state diverges");
    for rel in ["customers", "products"] {
        assert_eq!(
            fdm_tests::canonical_rows(&got.relation(rel).unwrap()),
            fdm_tests::canonical_rows(&want.relation(rel).unwrap()),
            "{rel}"
        );
    }
    // declaration order is not on disk: a decoded tuple declares its
    // attributes in name order, and a relation's like tuples share a shape
    let customers = got.relation("customers").unwrap();
    let (c4, c5) = (
        customers.lookup(&Value::Int(4)).unwrap(),
        customers.lookup(&Value::Int(5)).unwrap(),
    );
    let names: Vec<&str> = c5.attr_names().map(|n| n.as_ref()).collect();
    assert_eq!(names, ["age", "name", "state"]);
    assert_eq!(c4.get("name").unwrap(), Value::str("Di"));
    let report = opened.verify_integrity().unwrap();
    assert!(!report.torn_tail && report.checkpoints.iter().all(|(_, ok)| *ok));
    assert_eq!((report.checkpoint_version, report.replay_to), (4, 7));
    drop(opened);
    std::fs::remove_dir_all(&dir).unwrap();
}
