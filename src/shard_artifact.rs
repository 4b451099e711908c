//! [`bolt_profile::shard_artifact`] under its original path: one
//! shard's complete, mergeable result, the shared shard runner and the
//! shard-order merge. The codec's unit tests stay here, in the tier-1
//! package.

pub use bolt_profile::shard_artifact::*;

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_emu::Exit;
    use bolt_profile::{Profile, ProfileMode};
    use bolt_sim::Counters;

    fn sample() -> ShardArtifact {
        let mut profile = Profile::new(ProfileMode::Lbr);
        profile.add_branch(0x401000, 0x402000, false);
        profile.add_branch(0x401000, 0x402000, true);
        profile.num_samples = 2;
        let counters = Counters {
            instructions: 1234,
            cycles: 2048.5,
            ..Counters::default()
        };
        ShardArtifact {
            shard: 3,
            exit: Exit::Exited(0),
            steps: 987_654,
            output: vec![1, -2, i64::MAX, i64::MIN],
            profile: Some(profile),
            counters: Some(counters),
        }
    }

    #[test]
    fn round_trips_all_field_combinations() {
        let full = sample();
        assert_eq!(
            ShardArtifact::from_artifact(&full.to_artifact()).unwrap(),
            full
        );

        for (with_profile, with_counters) in [(false, false), (true, false), (false, true)] {
            let mut a = sample();
            if !with_profile {
                a.profile = None;
            }
            if !with_counters {
                a.counters = None;
            }
            assert_eq!(ShardArtifact::from_artifact(&a.to_artifact()).unwrap(), a);
        }

        for exit in [Exit::Exited(-17), Exit::MaxSteps, Exit::Returned] {
            let mut a = sample();
            a.exit = exit;
            let back = ShardArtifact::from_artifact(&a.to_artifact()).unwrap();
            assert_eq!(back.exit, a.exit);
        }
    }

    #[test]
    fn encoding_is_canonical() {
        let a = sample();
        let bytes = a.to_artifact();
        let back = ShardArtifact::from_artifact(&bytes).unwrap();
        assert_eq!(back.to_artifact(), bytes);
    }

    #[test]
    fn rejects_slack_truncation_and_bad_tags() {
        let payload = sample().to_bytes();
        assert!(ShardArtifact::from_bytes(&payload[..payload.len() - 1]).is_err());
        let mut slack = payload.clone();
        slack.push(0);
        assert!(ShardArtifact::from_bytes(&slack).is_err());
        let mut bad_exit = payload.clone();
        bad_exit[4] = 9;
        assert!(ShardArtifact::from_bytes(&bad_exit).is_err());
        let framed = sample().to_artifact();
        let mut flipped = framed.clone();
        *flipped.last_mut().unwrap() ^= 0x80;
        assert!(ShardArtifact::from_artifact(&flipped).is_err());
    }

    #[test]
    fn write_and_read_round_trip() {
        let dir = std::env::temp_dir().join(format!("bolt-shard-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.bolta");
        let a = sample();
        a.write(&path).unwrap();
        assert_eq!(ShardArtifact::read(&path).unwrap(), a);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
