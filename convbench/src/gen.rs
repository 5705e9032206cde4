//! The benchmark's own inputs: a seeded layered estate, the edits of
//! `edit-10k` and the out-of-band script of `drift-10k`.
//!
//! Nothing here comes from the repository's experiment crates, so an edit
//! to an experiment cannot shift the benchmark's inputs. The engine sees
//! only the rendered source and the out-of-band cloud calls.

use std::fmt::Write as _;

/// SplitMix64: a small, well-mixed generator that is the same on every
/// platform and every toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// The five resource types of the estate and the attribute that holds
/// each one's name.
pub const TYPES: [(&str, &str); 5] = [
    ("aws_s3_bucket", "bucket"),
    ("aws_security_group", "name"),
    ("aws_network_interface", "name"),
    ("aws_virtual_machine", "name"),
    ("aws_db_instance", "name"),
];

/// A layered DAG of resources: layers are `n / 64` wide, and every
/// resource past the first layer depends on 1–3 distinct resources of the
/// layer before it.
pub struct Estate {
    /// Index into [`TYPES`] per resource.
    pub kinds: Vec<u8>,
    /// `depends_on` targets per resource, ascending.
    pub deps: Vec<Vec<u32>>,
    /// Current value of each resource's name attribute.
    pub names: Vec<String>,
    /// Current `acl` of each bucket; unset until `edit-10k` sets one.
    pub acls: Vec<Option<String>>,
}

impl Estate {
    pub fn generate(n: usize, rng: &mut Rng) -> Estate {
        let width = (n / 64).max(1);
        let mut kinds = Vec::with_capacity(n);
        let mut deps = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        for i in 0..n {
            kinds.push(rng.below(TYPES.len()) as u8);
            names.push(format!("cb-r{i}"));
            let layer = i / width;
            let mut d: Vec<u32> = Vec::new();
            if layer > 0 {
                let prev = (layer - 1) * width;
                let fan_in = 1 + rng.below(3);
                while d.len() < fan_in {
                    let dep = (prev + rng.below(width)) as u32;
                    if !d.contains(&dep) {
                        d.push(dep);
                    }
                }
                d.sort_unstable();
            }
            deps.push(d);
        }
        Estate {
            kinds,
            deps,
            names,
            acls: vec![None; n],
        }
    }

    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    pub fn rtype(&self, i: usize) -> &'static str {
        TYPES[self.kinds[i] as usize].0
    }

    pub fn name_attr(&self, i: usize) -> &'static str {
        TYPES[self.kinds[i] as usize].1
    }

    /// The resource's address, `<type>.r<i>`.
    pub fn addr(&self, i: usize) -> String {
        format!("{}.r{i}", self.rtype(i))
    }

    /// The program as HCL source.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.len() * 120);
        for i in 0..self.len() {
            let _ = write!(
                out,
                "resource \"{}\" \"r{i}\" {{\n  {} = \"{}\"\n",
                self.rtype(i),
                self.name_attr(i),
                self.names[i]
            );
            if let Some(acl) = &self.acls[i] {
                let _ = writeln!(out, "  acl = \"{acl}\"");
            }
            if self.rtype(i) == "aws_db_instance" {
                out.push_str("  engine = \"postgres\"\n");
            }
            if !self.deps[i].is_empty() {
                out.push_str("  depends_on = [");
                for (k, &d) in self.deps[i].iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{}.r{d}", self.rtype(d as usize));
                }
                out.push_str("]\n");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Number of managed name values the drift script edits per cycle; it
/// also creates `DRIFT_K / 2` unmanaged buckets.
pub const DRIFT_K: usize = 8;

/// One cycle of out-of-band changes.
pub struct DriftScript {
    /// `(resource index, new name value)`, distinct resources.
    pub edits: Vec<(usize, String)>,
    /// Bucket names of the ClickOps buckets to create.
    pub clickops: Vec<String>,
}

impl DriftScript {
    pub fn draw(estate: &Estate, cycle: u64, rng: &mut Rng) -> DriftScript {
        let mut picked: Vec<usize> = Vec::with_capacity(DRIFT_K);
        while picked.len() < DRIFT_K {
            let i = rng.below(estate.len());
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        let edits = picked
            .into_iter()
            .map(|i| (i, format!("cb-r{i}-d{cycle}")))
            .collect();
        let clickops = (0..DRIFT_K / 2)
            .map(|j| format!("cb-clickops-c{cycle}-{j}"))
            .collect();
        DriftScript { edits, clickops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_estate() {
        let a = Estate::generate(1000, &mut Rng::new(5)).render();
        let b = Estate::generate(1000, &mut Rng::new(5)).render();
        let c = Estate::generate(1000, &mut Rng::new(6)).render();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn edges_point_one_layer_back() {
        let e = Estate::generate(2000, &mut Rng::new(1));
        let width = 2000 / 64;
        for (i, d) in e.deps.iter().enumerate() {
            let layer = i / width;
            assert_eq!(d.is_empty(), layer == 0);
            assert!(d.len() <= 3);
            for &p in d {
                assert_eq!(p as usize / width + 1, layer);
            }
        }
    }
}
