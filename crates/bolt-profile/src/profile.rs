//! The aggregated binary profile (the `perf2bolt` output, BOLT's `.fdata`).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The hasher behind [`Profile`]'s maps (its own [`BuildHasher`]). Each
/// 64-bit word folds into the state with one 64×64→128-bit multiply
/// whose high and low halves are XORed — far cheaper than the default
/// SipHash on the LBR flush path, which updates the maps 64 times per
/// sample. It stays keyed: the initial state and the (odd) multiplier
/// are drawn once per process from [`RandomState`], so no input fixed in
/// advance collides in every process. Iteration order was random per
/// process before too; nothing observable depends on it (`.fdata` and
/// artifacts sort their records).
#[derive(Debug, Clone, Copy)]
pub struct ProfileHasher {
    state: u64,
    mul: u64,
}

impl Default for ProfileHasher {
    fn default() -> ProfileHasher {
        static KEYS: OnceLock<(u64, u64)> = OnceLock::new();
        let &(state, mul) = KEYS.get_or_init(|| {
            let random = RandomState::new();
            (random.hash_one(0u64), random.hash_one(1u64) | 1)
        });
        ProfileHasher { state, mul }
    }
}

impl BuildHasher for ProfileHasher {
    type Hasher = ProfileHasher;

    #[inline]
    fn build_hasher(&self) -> ProfileHasher {
        *self
    }
}

impl Hasher for ProfileHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.mul);
        self.state = product as u64 ^ (product >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// How the profile was collected (paper section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMode {
    /// Last-branch-record sampling: precise taken-branch edges plus
    /// fall-through ranges between consecutive records.
    #[default]
    Lbr,
    /// Plain instruction-pointer samples; edges must be inferred.
    IpSamples,
}

/// An aggregated taken-branch record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchRecord {
    pub from: u64,
    pub to: u64,
    pub count: u64,
    pub mispreds: u64,
}

/// A fall-through range `[from, to]` executed sequentially `count` times
/// (between two consecutive LBR entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FallthroughRecord {
    pub from: u64,
    pub to: u64,
    pub count: u64,
}

/// The aggregated profile handed to BOLT.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    pub mode: ProfileMode,
    /// Aggregated taken branches, keyed by (from, to).
    pub branches: HashMap<(u64, u64), (u64, u64), ProfileHasher>,
    /// Aggregated fall-through ranges.
    pub fallthroughs: HashMap<(u64, u64), u64, ProfileHasher>,
    /// Instruction-pointer sample histogram.
    pub ip_samples: HashMap<u64, u64, ProfileHasher>,
    /// Number of hardware samples taken.
    pub num_samples: u64,
}

impl Profile {
    pub fn new(mode: ProfileMode) -> Profile {
        Profile {
            mode,
            ..Profile::default()
        }
    }

    /// Records a taken branch occurrence.
    pub fn add_branch(&mut self, from: u64, to: u64, mispred: bool) {
        let e = self.branches.entry((from, to)).or_insert((0, 0));
        e.0 += 1;
        e.1 += u64::from(mispred);
    }

    /// Records a fall-through range.
    pub fn add_fallthrough(&mut self, from: u64, to: u64) {
        *self.fallthroughs.entry((from, to)).or_insert(0) += 1;
    }

    /// Records an IP sample.
    pub fn add_ip(&mut self, ip: u64) {
        *self.ip_samples.entry(ip).or_insert(0) += 1;
    }

    /// Merges `other` into `self`, summing every count — the `perf`
    /// multi-file merge step: per-shard profiles collected from
    /// independent invocations combine into one aggregate profile.
    ///
    /// Merging is commutative and associative in all counts (each record
    /// key sums independently), so a batch merged in shard-index order
    /// equals the same shards merged in any order. Merging profiles of
    /// different [`ProfileMode`]s is a caller bug and panics.
    pub fn merge(&mut self, other: &Profile) {
        assert_eq!(
            self.mode, other.mode,
            "cannot merge LBR and IP-sample profiles"
        );
        for (&key, &(count, mispreds)) in &other.branches {
            let e = self.branches.entry(key).or_insert((0, 0));
            e.0 += count;
            e.1 += mispreds;
        }
        for (&key, &count) in &other.fallthroughs {
            *self.fallthroughs.entry(key).or_insert(0) += count;
        }
        for (&ip, &count) in &other.ip_samples {
            *self.ip_samples.entry(ip).or_insert(0) += count;
        }
        self.num_samples += other.num_samples;
    }

    /// Merges an iterator of profiles (e.g. one per shard, in
    /// shard-index order) into a single aggregate of the given mode.
    pub fn merged<'a>(mode: ProfileMode, parts: impl IntoIterator<Item = &'a Profile>) -> Profile {
        let mut out = Profile::new(mode);
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// Total taken-branch traversals recorded.
    pub fn total_branch_count(&self) -> u64 {
        self.branches.values().map(|(c, _)| c).sum()
    }

    /// Branch records sorted for deterministic iteration.
    pub fn sorted_branches(&self) -> Vec<BranchRecord> {
        let mut v: Vec<BranchRecord> = self
            .branches
            .iter()
            .map(|(&(from, to), &(count, mispreds))| BranchRecord {
                from,
                to,
                count,
                mispreds,
            })
            .collect();
        v.sort_unstable_by_key(|b| (b.from, b.to));
        v
    }

    /// Fall-through records sorted for deterministic iteration.
    pub fn sorted_fallthroughs(&self) -> Vec<FallthroughRecord> {
        let mut v: Vec<FallthroughRecord> = self
            .fallthroughs
            .iter()
            .map(|(&(from, to), &count)| FallthroughRecord { from, to, count })
            .collect();
        v.sort_unstable_by_key(|f| (f.from, f.to));
        v
    }

    /// Serializes in the (simplified, address-based) `.fdata` text format:
    ///
    /// ```text
    /// M <mode> <num_samples>
    /// B <from-hex> <to-hex> <count> <mispreds>
    /// F <from-hex> <to-hex> <count>
    /// S <ip-hex> <count>
    /// ```
    pub fn to_fdata(&self) -> String {
        let mut out = String::new();
        let mode = match self.mode {
            ProfileMode::Lbr => "lbr",
            ProfileMode::IpSamples => "ip",
        };
        out.push_str(&format!("M {mode} {}\n", self.num_samples));
        for b in self.sorted_branches() {
            out.push_str(&format!(
                "B {:x} {:x} {} {}\n",
                b.from, b.to, b.count, b.mispreds
            ));
        }
        for f in self.sorted_fallthroughs() {
            out.push_str(&format!("F {:x} {:x} {}\n", f.from, f.to, f.count));
        }
        let mut ips: Vec<(u64, u64)> = self.ip_samples.iter().map(|(&a, &c)| (a, c)).collect();
        ips.sort_unstable();
        for (ip, count) in ips {
            out.push_str(&format!("S {ip:x} {count}\n"));
        }
        out
    }

    /// Serializes to the compact binary artifact *payload* (see
    /// [`bolt_emu::artifact`] for the framing this slots into): mode
    /// byte, sample count, then the three record tables with `u32`
    /// length prefixes, records sorted by key. Sorting makes the
    /// encoding canonical — equal profiles encode to equal bytes, so a
    /// supervised merge can be compared byte-for-byte against the
    /// in-process path.
    pub fn to_bytes(&self) -> Vec<u8> {
        let branches = self.sorted_branches();
        let fallthroughs = self.sorted_fallthroughs();
        let mut ips: Vec<(u64, u64)> = self.ip_samples.iter().map(|(&a, &c)| (a, c)).collect();
        ips.sort_unstable();
        let mut out = Vec::with_capacity(
            13 + 4 * 3 + branches.len() * 32 + fallthroughs.len() * 24 + ips.len() * 16,
        );
        out.push(match self.mode {
            ProfileMode::Lbr => 0,
            ProfileMode::IpSamples => 1,
        });
        out.extend_from_slice(&self.num_samples.to_le_bytes());
        out.extend_from_slice(&(branches.len() as u32).to_le_bytes());
        for b in &branches {
            out.extend_from_slice(&b.from.to_le_bytes());
            out.extend_from_slice(&b.to.to_le_bytes());
            out.extend_from_slice(&b.count.to_le_bytes());
            out.extend_from_slice(&b.mispreds.to_le_bytes());
        }
        out.extend_from_slice(&(fallthroughs.len() as u32).to_le_bytes());
        for f in &fallthroughs {
            out.extend_from_slice(&f.from.to_le_bytes());
            out.extend_from_slice(&f.to.to_le_bytes());
            out.extend_from_slice(&f.count.to_le_bytes());
        }
        out.extend_from_slice(&(ips.len() as u32).to_le_bytes());
        for (ip, count) in &ips {
            out.extend_from_slice(&ip.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        out
    }

    /// Decodes a [`Profile::to_bytes`] payload. The payload must be
    /// consumed exactly; slack or truncation is rejected (the framing
    /// CRC catches corruption first, but a decoder must stand alone).
    pub fn from_bytes(bytes: &[u8]) -> Result<Profile, bolt_emu::ArtifactError> {
        use bolt_emu::artifact::ByteReader;
        use bolt_emu::ArtifactError;
        let mut r = ByteReader::new(bytes);
        let mut p = Profile::new(match r.u8("profile mode")? {
            0 => ProfileMode::Lbr,
            1 => ProfileMode::IpSamples,
            _ => return Err(ArtifactError::Malformed("profile mode")),
        });
        p.num_samples = r.u64("num_samples")?;
        let n = r.count(32, "branch count")?;
        for _ in 0..n {
            let from = r.u64("branch from")?;
            let to = r.u64("branch to")?;
            let count = r.u64("branch count field")?;
            let mispreds = r.u64("branch mispreds")?;
            if p.branches.insert((from, to), (count, mispreds)).is_some() {
                return Err(ArtifactError::Malformed("duplicate branch key"));
            }
        }
        let n = r.count(24, "fallthrough count")?;
        for _ in 0..n {
            let from = r.u64("fallthrough from")?;
            let to = r.u64("fallthrough to")?;
            let count = r.u64("fallthrough count field")?;
            if p.fallthroughs.insert((from, to), count).is_some() {
                return Err(ArtifactError::Malformed("duplicate fallthrough key"));
            }
        }
        let n = r.count(16, "ip count")?;
        for _ in 0..n {
            let ip = r.u64("ip")?;
            let count = r.u64("ip count field")?;
            if p.ip_samples.insert(ip, count).is_some() {
                return Err(ArtifactError::Malformed("duplicate ip key"));
            }
        }
        r.finish("profile payload slack")?;
        Ok(p)
    }

    /// Frames [`Profile::to_bytes`] as a durable artifact
    /// (`KIND_PROFILE`).
    pub fn to_artifact(&self) -> Vec<u8> {
        bolt_emu::artifact::frame(bolt_emu::artifact::KIND_PROFILE, &self.to_bytes())
    }

    /// Validates framing (magic, version, kind, length, CRC) and
    /// decodes a [`Profile::to_artifact`] byte string.
    pub fn from_artifact(bytes: &[u8]) -> Result<Profile, bolt_emu::ArtifactError> {
        let payload = bolt_emu::artifact::unframe(bytes, bolt_emu::artifact::KIND_PROFILE)?;
        Profile::from_bytes(payload)
    }

    /// Parses the `.fdata` text format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line. A second `M`
    /// line, or a `B` / `F` / `S` record repeating an earlier record's
    /// key, is malformed (`"duplicate record"`) — the same rule
    /// [`from_bytes`](Profile::from_bytes) applies, so concatenated
    /// profiles are rejected instead of silently losing counts.
    pub fn from_fdata(text: &str) -> Result<Profile, FdataError> {
        let mut p = Profile::default();
        let mut seen_header = false;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_ascii_whitespace();
            let tag = it.next().unwrap_or("");
            let mut hex = |what: &'static str| -> Result<u64, FdataError> {
                let tok = it.next().ok_or(FdataError {
                    line: lineno + 1,
                    what,
                })?;
                u64::from_str_radix(tok, 16).map_err(|_| FdataError {
                    line: lineno + 1,
                    what,
                })
            };
            let fresh = match tag {
                "M" => {
                    let mode = it.next().ok_or(FdataError {
                        line: lineno + 1,
                        what: "mode",
                    })?;
                    p.mode = match mode {
                        "lbr" => ProfileMode::Lbr,
                        "ip" => ProfileMode::IpSamples,
                        _ => {
                            return Err(FdataError {
                                line: lineno + 1,
                                what: "mode",
                            })
                        }
                    };
                    p.num_samples = it.next().and_then(|t| t.parse().ok()).ok_or(FdataError {
                        line: lineno + 1,
                        what: "num_samples",
                    })?;
                    !std::mem::replace(&mut seen_header, true)
                }
                "B" => {
                    let from = hex("from")?;
                    let to = hex("to")?;
                    let count: u64 = it.next().and_then(|t| t.parse().ok()).ok_or(FdataError {
                        line: lineno + 1,
                        what: "count",
                    })?;
                    let mispreds: u64 =
                        it.next().and_then(|t| t.parse().ok()).ok_or(FdataError {
                            line: lineno + 1,
                            what: "mispreds",
                        })?;
                    p.branches.insert((from, to), (count, mispreds)).is_none()
                }
                "F" => {
                    let from = hex("from")?;
                    let to = hex("to")?;
                    let count: u64 = it.next().and_then(|t| t.parse().ok()).ok_or(FdataError {
                        line: lineno + 1,
                        what: "count",
                    })?;
                    p.fallthroughs.insert((from, to), count).is_none()
                }
                "S" => {
                    let ip = hex("ip")?;
                    let count: u64 = it.next().and_then(|t| t.parse().ok()).ok_or(FdataError {
                        line: lineno + 1,
                        what: "count",
                    })?;
                    p.ip_samples.insert(ip, count).is_none()
                }
                _ => {
                    return Err(FdataError {
                        line: lineno + 1,
                        what: "record tag",
                    })
                }
            };
            if !fresh {
                return Err(FdataError {
                    line: lineno + 1,
                    what: "duplicate record",
                });
            }
        }
        Ok(p)
    }
}

/// A malformed `.fdata` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdataError {
    pub line: usize,
    pub what: &'static str,
}

impl fmt::Display for FdataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fdata line {}: bad {}", self.line, self.what)
    }
}

impl std::error::Error for FdataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fdata_round_trip() {
        let mut p = Profile::new(ProfileMode::Lbr);
        p.num_samples = 42;
        p.add_branch(0x400010, 0x400100, true);
        p.add_branch(0x400010, 0x400100, false);
        p.add_fallthrough(0x400100, 0x400120);
        p.add_ip(0x400105);
        p.add_ip(0x400105);
        let text = p.to_fdata();
        let back = Profile::from_fdata(&text).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.branches[&(0x400010, 0x400100)], (2, 1));
        assert_eq!(back.ip_samples[&0x400105], 2);
    }

    #[test]
    fn fdata_rejects_garbage() {
        assert!(Profile::from_fdata("Z 1 2 3").is_err());
        assert!(Profile::from_fdata("B xyz 10 1 0").is_err());
        assert!(
            Profile::from_fdata("B 10 20 1").is_err(),
            "missing mispreds"
        );
        // Comments and blanks are fine.
        assert!(Profile::from_fdata("# hi\n\nM lbr 3\n").is_ok());
    }

    /// A repeated key would keep only its last count and a second `M`
    /// line would overwrite the sample count, so both are rejected at
    /// the repeating line — what concatenating two `.fdata` files
    /// produces.
    #[test]
    fn fdata_rejects_duplicate_records() {
        let dup = |line| {
            Err(FdataError {
                line,
                what: "duplicate record",
            })
        };
        let text = "M lbr 2\nB 10 20 1 0\nF 20 30 1\nB 10 20 5 1\n";
        assert_eq!(Profile::from_fdata(text), dup(4), "repeated B key");
        let text = "M lbr 2\nS 15 1\n\n# second file\nM lbr 3\nS 16 1\n";
        assert_eq!(Profile::from_fdata(text), dup(5), "second M line");
        assert_eq!(Profile::from_fdata("F 1 2 3\nF 1 2 3\n"), dup(2));
        assert_eq!(Profile::from_fdata("S 7 1\nS 7 2\n"), dup(2));
        // Equal endpoints under different tags are different records.
        assert!(Profile::from_fdata("M ip 1\nB 1 2 3 0\nF 1 2 3\nS 1 3\n").is_ok());
        // A concatenation of two real profiles repeats a key.
        let mut p = Profile::new(ProfileMode::Lbr);
        p.num_samples = 1;
        p.add_branch(0x400010, 0x400100, false);
        let twice = p.to_fdata().repeat(2);
        assert!(Profile::from_fdata(&twice).is_err());
    }

    #[test]
    fn binary_artifact_round_trip_is_canonical() {
        let mut p = Profile::new(ProfileMode::Lbr);
        p.num_samples = 42;
        p.add_branch(0x400010, 0x400100, true);
        p.add_branch(0x400010, 0x400100, false);
        p.add_branch(0x400200, 0x400000, false);
        p.add_fallthrough(0x400100, 0x400120);
        p.add_ip(0x400105);
        let bytes = p.to_artifact();
        let back = Profile::from_artifact(&bytes).unwrap();
        assert_eq!(back, p);
        // Canonical: re-encoding the decode gives identical bytes.
        assert_eq!(back.to_artifact(), bytes);
        // Empty profile round-trips too.
        let empty = Profile::new(ProfileMode::IpSamples);
        assert_eq!(Profile::from_artifact(&empty.to_artifact()).unwrap(), empty);
    }

    #[test]
    fn binary_decode_rejects_slack_truncation_and_bad_mode() {
        let mut p = Profile::new(ProfileMode::Lbr);
        p.add_branch(1, 2, false);
        let payload = p.to_bytes();
        assert!(Profile::from_bytes(&payload[..payload.len() - 1]).is_err());
        let mut slack = payload.clone();
        slack.push(0);
        assert!(Profile::from_bytes(&slack).is_err());
        let mut bad_mode = payload.clone();
        bad_mode[0] = 9;
        assert!(Profile::from_bytes(&bad_mode).is_err());
    }

    #[test]
    fn merge_sums_every_count() {
        let mut a = Profile::new(ProfileMode::Lbr);
        a.num_samples = 2;
        a.add_branch(0x10, 0x20, true);
        a.add_fallthrough(0x20, 0x30);
        a.add_ip(0x25);
        let mut b = Profile::new(ProfileMode::Lbr);
        b.num_samples = 3;
        b.add_branch(0x10, 0x20, false);
        b.add_branch(0x40, 0x50, false);
        b.add_fallthrough(0x20, 0x30);
        b.add_ip(0x45);

        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.num_samples, 5);
        assert_eq!(m.branches[&(0x10, 0x20)], (2, 1));
        assert_eq!(m.branches[&(0x40, 0x50)], (1, 0));
        assert_eq!(m.fallthroughs[&(0x20, 0x30)], 2);
        assert_eq!(m.ip_samples[&0x25], 1);
        assert_eq!(m.ip_samples[&0x45], 1);

        // Commutative: b.merge(a) gives the same profile.
        let mut m2 = b.clone();
        m2.merge(&a);
        assert_eq!(m, m2);
        // merged() in order equals pairwise merging.
        assert_eq!(Profile::merged(ProfileMode::Lbr, [&a, &b]), m);
        // Merging an empty profile is the identity.
        let mut id = a.clone();
        id.merge(&Profile::new(ProfileMode::Lbr));
        assert_eq!(id, a);
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn merge_rejects_mode_mismatch() {
        let mut a = Profile::new(ProfileMode::Lbr);
        a.merge(&Profile::new(ProfileMode::IpSamples));
    }

    #[test]
    fn totals() {
        let mut p = Profile::new(ProfileMode::Lbr);
        p.add_branch(1, 2, false);
        p.add_branch(1, 2, false);
        p.add_branch(3, 4, true);
        assert_eq!(p.total_branch_count(), 3);
        assert_eq!(p.sorted_branches().len(), 2);
    }
}
