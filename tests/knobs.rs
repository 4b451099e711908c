//! The knob table (`bolt::emu::Knobs`): every `BOLT_*` behaviour
//! override goes through one pure parser, driven here with a map instead
//! of the process environment, so each rule is asserted exactly instead
//! of "whatever the CI leg's environment makes of it".

use bolt::emu::{Engine, Knobs};
use bolt::verify::XorShift64;

const VARS: [&str; 5] = [
    "BOLT_THREADS",
    "BOLT_SHARDS",
    "BOLT_ENGINE",
    "BOLT_MAX_STEPS",
    "BOLT_SEM_VALIDATE",
];

fn parse(env: &[(&str, &str)]) -> Result<Knobs, String> {
    Knobs::parse(|name| {
        env.iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.to_string())
    })
}

#[test]
fn empty_environment_means_defaults() {
    let k = parse(&[]).unwrap();
    assert_eq!(k, Knobs::default());
    assert!(
        (1..=8).contains(&k.threads(0)),
        "auto = parallelism capped at 8"
    );
    assert_eq!(k.shards(0), 1);
    assert_eq!(k.engine(None), Engine::Step);
    assert_eq!(k.max_steps(0, 77), 77, "the caller's budget");
    assert!(!k.sem_validate());
}

#[test]
fn explicit_beats_env_beats_default_and_zero_means_auto() {
    let k = parse(&[
        ("BOLT_THREADS", "3"),
        ("BOLT_SHARDS", " 8 "),
        ("BOLT_ENGINE", "uop"),
        ("BOLT_MAX_STEPS", "2000"),
    ])
    .unwrap();
    assert_eq!((k.threads(0), k.threads(5)), (3, 5));
    assert_eq!((k.shards(0), k.shards(2)), (8, 2), "values are trimmed");
    assert_eq!(k.engine(None), Engine::Uop);
    assert_eq!(k.engine(Some(Engine::Superblock)), Engine::Superblock);
    assert_eq!((k.max_steps(0, 77), k.max_steps(1500, 77)), (2000, 1500));

    // An env `0` is "auto" too: it falls through to the default.
    let zeros = parse(&[
        ("BOLT_THREADS", "0"),
        ("BOLT_SHARDS", "0"),
        ("BOLT_MAX_STEPS", "0"),
    ])
    .unwrap();
    assert_eq!(zeros, Knobs::default());
    assert_eq!(zeros.max_steps(0, u64::MAX), u64::MAX);
}

#[test]
fn worker_and_shard_counts_are_clamped_from_every_source() {
    let k = parse(&[("BOLT_THREADS", "100000"), ("BOLT_SHARDS", "1000000")]).unwrap();
    assert_eq!(k.threads(0), 64);
    assert_eq!(k.shards(0), 4096);
    let none = Knobs::default();
    assert_eq!((none.threads(64), none.threads(65)), (64, 64));
    assert_eq!((none.shards(4096), none.shards(usize::MAX)), (4096, 4096));
    assert_eq!(
        none.max_steps(u64::MAX, 7),
        u64::MAX,
        "budgets are not clamped"
    );
}

#[test]
fn a_garbled_value_fails_naming_its_variable() {
    for var in ["BOLT_THREADS", "BOLT_SHARDS", "BOLT_MAX_STEPS"] {
        for bad in ["eight", "-1", "", "1.5", "0x10"] {
            let err = parse(&[(var, bad)]).expect_err(bad);
            assert!(
                err.contains(var) && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
    }
    // The retired engine spelling (and any other) quotes the valid set.
    for bad in ["block", "jit", "", "UOP"] {
        let err = parse(&[("BOLT_ENGINE", bad)]).expect_err(bad);
        assert!(
            err.contains("BOLT_ENGINE") && err.contains(Engine::VALID),
            "{err}"
        );
    }
}

#[test]
fn sem_validate_is_on_for_anything_but_empty_and_zero() {
    for (value, on) in [
        (None, false),
        (Some(""), false),
        (Some("0"), false),
        (Some("1"), true),
        (Some("yes"), true),
    ] {
        let env: Vec<_> = value.iter().map(|v| ("BOLT_SEM_VALIDATE", *v)).collect();
        assert_eq!(parse(&env).unwrap().sem_validate(), on, "{value:?}");
    }
}

/// ROADMAP oracle item (d): the parser is a new input surface, so it
/// gets the fault harness's treatment — seeded random byte strings in
/// every variable never panic, and whatever parses resolves inside the
/// clamps.
#[test]
fn random_bytes_in_any_variable_never_panic() {
    let (mut parsed, mut rejected) = (0, 0);
    for seed in 1..=256u64 {
        let mut rng = XorShift64::new(seed);
        let values: Vec<Option<String>> = VARS
            .iter()
            .map(|_| {
                let len = (rng.next_u64() % 12) as usize;
                let bytes: Vec<u8> = (0..len)
                    .map(|_| match rng.next_u64() % 3 {
                        // Bias towards almost-valid input.
                        0 => b"0123456789"[(rng.next_u64() % 10) as usize],
                        1 => b" -+uopstepblck\t"[(rng.next_u64() % 15) as usize],
                        _ => rng.next_u64() as u8,
                    })
                    .collect();
                (rng.below(4) != 0).then(|| String::from_utf8_lossy(&bytes).into_owned())
            })
            .collect();
        let lookup = |name: &str| values[VARS.iter().position(|v| *v == name).unwrap()].clone();
        match Knobs::parse(lookup) {
            Ok(k) => {
                parsed += 1;
                assert!((1..=64).contains(&k.threads(0)), "seed {seed}: {k:?}");
                assert!((1..=4096).contains(&k.shards(0)), "seed {seed}: {k:?}");
                assert!(k.max_steps(0, 1) >= 1, "seed {seed}: {k:?}");
            }
            Err(e) => {
                rejected += 1;
                assert!(
                    VARS.iter().any(|v| e.contains(v)),
                    "seed {seed}: error names a variable: {e}"
                );
            }
        }
    }
    assert!(
        parsed > 0 && rejected > 0,
        "the sweep reaches both outcomes: {parsed} parsed, {rejected} rejected"
    );
}
