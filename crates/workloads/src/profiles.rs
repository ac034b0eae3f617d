//! The workload catalog: synthetic stand-ins for the paper's SPEC2006 and
//! GAP benchmarks plus the RAND/STREAM synthetics and the two mixed
//! workloads (§V).
//!
//! Each profile is calibrated to the paper's observable characteristics:
//! the fraction of 30B-compressible lines (Fig. 4), the access-pattern
//! class, the memory intensity (instructions per LLC-level access — the
//! paper selects benchmarks with LLC MPKI > 1), and the store fraction.
//! Absolute IPCs will differ from the real binaries; the *relative*
//! behaviour of the metadata schemes — which is what every figure reports —
//! is driven by exactly these knobs.

use crate::access::AccessPattern;
use crate::data::DataProfile;

/// Compressibility class used to build the mixed workloads (§V: "four
/// categories from highly compressible to incompressible").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// ≥70% of lines compressible.
    HighlyCompressible,
    /// 45-70%.
    Compressible,
    /// 20-45%.
    ModeratelyCompressible,
    /// <20%.
    Incompressible,
}

/// Which suite a profile imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006-like.
    Spec,
    /// GAP benchmark suite-like.
    Gap,
    /// Synthetic (RAND / STREAM).
    Synthetic,
}

/// A complete workload description for one core.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Benchmark name as it appears in the paper's figures.
    pub name: &'static str,
    /// Originating suite.
    pub suite: Suite,
    /// Compressibility class.
    pub category: Category,
    /// Data-content statistics.
    pub data: DataProfile,
    /// Address-stream shape.
    pub pattern: AccessPattern,
    /// Footprint in 64-byte lines.
    pub footprint_lines: u64,
    /// Mean instructions between LLC-level memory accesses.
    pub instructions_per_access: f64,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
    /// Cap on this workload's memory-level parallelism: the most
    /// outstanding LLC misses one core will sustain (`None` = limited only
    /// by the core's MSHRs). `Some(1)` models a fully serialized dependent
    /// chain — each miss's address comes from the previous miss's data, as
    /// in a linked-list traversal.
    pub mlp_limit: Option<usize>,
}

const MB: u64 = (1 << 20) / 64; // lines per MiB

impl Profile {
    /// The STREAM synthetic: sequential, moderately compressible.
    pub fn stream() -> Self {
        Profile {
            name: "STREAM",
            suite: Suite::Synthetic,
            category: Category::Compressible,
            data: DataProfile::clustered(0.55),
            pattern: AccessPattern::Stream,
            footprint_lines: 64 * MB,
            instructions_per_access: 12.0,
            write_fraction: 0.33,
            mlp_limit: None,
        }
    }

    /// The RAND synthetic: uniform random accesses over incompressible
    /// data — the adversarial case where the Metadata-Cache loses 17%.
    pub fn rand() -> Self {
        Profile {
            name: "RAND",
            suite: Suite::Synthetic,
            category: Category::Incompressible,
            data: DataProfile::incompressible(),
            pattern: AccessPattern::Random,
            footprint_lines: 32 * MB,
            instructions_per_access: 15.0,
            write_fraction: 0.30,
            mlp_limit: None,
        }
    }

    /// The CHASE synthetic: a fully serialized pointer chase (one
    /// outstanding miss per core, `lat_mem_rd`-style). Not part of the
    /// paper's figures — it is the latency-bound extreme used to exercise
    /// the simulator itself, e.g. the event-engine benchmark, where long
    /// dependent-miss stalls dominate.
    pub fn chase() -> Self {
        Profile {
            name: "CHASE",
            suite: Suite::Synthetic,
            category: Category::Compressible,
            data: DataProfile::clustered(0.55),
            pattern: AccessPattern::PointerChase { locality: 0.1 },
            footprint_lines: 32 * MB,
            instructions_per_access: 25.0,
            write_fraction: 0.05,
            mlp_limit: Some(1),
        }
    }

    /// Looks a profile up by its figure name. Covers the paper's rate-mode
    /// catalog plus the simulator-only CHASE synthetic.
    pub fn by_name(name: &str) -> Option<Profile> {
        all_rate_profiles()
            .into_iter()
            .find(|p| p.name == name)
            .or_else(|| (name == "CHASE").then(Profile::chase))
    }

    /// Replaces the data profile with a weakly-clustered (mixed-page)
    /// variant at the same overall compressibility — used by the mixed
    /// workloads where LiPR matters (Fig. 17).
    pub fn with_mixed_pages(mut self) -> Self {
        self.data = DataProfile::mixed(self.data.expected_compressible());
        self
    }
}

fn spec(
    name: &'static str,
    category: Category,
    comp: f64,
    pattern: AccessPattern,
    footprint_mb: u64,
    ipa: f64,
    wf: f64,
) -> Profile {
    Profile {
        name,
        suite: Suite::Spec,
        category,
        data: DataProfile::clustered(comp),
        pattern,
        footprint_lines: footprint_mb * MB,
        instructions_per_access: ipa,
        write_fraction: wf,
        mlp_limit: None,
    }
}

fn gap(
    name: &'static str,
    category: Category,
    comp: f64,
    footprint_mb: u64,
    ipa: f64,
    wf: f64,
) -> Profile {
    Profile {
        name,
        suite: Suite::Gap,
        category,
        data: DataProfile::clustered(comp),
        pattern: AccessPattern::graph(),
        footprint_lines: footprint_mb * MB,
        instructions_per_access: ipa,
        write_fraction: wf,
        mlp_limit: None,
    }
}

/// Every rate-mode workload evaluated in the paper's figures: 12
/// memory-intensive SPEC-like profiles, 6 GAP-like profiles, and the two
/// synthetics.
pub fn all_rate_profiles() -> Vec<Profile> {
    use AccessPattern as AP;
    use Category as C;
    vec![
        // SPEC CPU2006-like (Fig. 4 compressibility targets).
        spec(
            "mcf",
            C::Compressible,
            0.60,
            AP::PointerChase { locality: 0.3 },
            64,
            25.0,
            0.30,
        ),
        spec(
            "lbm",
            C::HighlyCompressible,
            0.75,
            AP::Stream,
            64,
            18.0,
            0.45,
        ),
        spec(
            "libquantum",
            C::Incompressible,
            0.06,
            AP::Stream,
            64,
            20.0,
            0.25,
        ),
        spec(
            "milc",
            C::ModeratelyCompressible,
            0.40,
            AP::Stream,
            64,
            30.0,
            0.35,
        ),
        spec(
            "soplex",
            C::Compressible,
            0.55,
            AP::PointerChase { locality: 0.5 },
            64,
            35.0,
            0.25,
        ),
        spec(
            "GemsFDTD",
            C::HighlyCompressible,
            0.70,
            AP::Stream,
            64,
            22.0,
            0.40,
        ),
        spec(
            "omnetpp",
            C::Compressible,
            0.65,
            AP::PointerChase { locality: 0.4 },
            64,
            40.0,
            0.30,
        ),
        spec(
            "leslie3d",
            C::ModeratelyCompressible,
            0.45,
            AP::Stream,
            64,
            28.0,
            0.35,
        ),
        spec(
            "bwaves",
            C::ModeratelyCompressible,
            0.35,
            AP::Stream,
            64,
            26.0,
            0.30,
        ),
        spec("zeusmp", C::Compressible, 0.50, AP::Stream, 64, 35.0, 0.35),
        spec(
            "cactusADM",
            C::Compressible,
            0.60,
            AP::PointerChase { locality: 0.6 },
            64,
            45.0,
            0.30,
        ),
        spec(
            "sphinx3",
            C::ModeratelyCompressible,
            0.30,
            AP::PointerChase { locality: 0.5 },
            48,
            50.0,
            0.15,
        ),
        // GAP-like graph kernels on a Kronecker graph.
        gap("bc.kron", C::ModeratelyCompressible, 0.45, 96, 15.0, 0.20),
        gap("bfs.kron", C::Compressible, 0.50, 96, 18.0, 0.25),
        gap("pr.kron", C::Compressible, 0.55, 96, 12.0, 0.30),
        gap("cc.kron", C::Compressible, 0.50, 96, 15.0, 0.25),
        gap("sssp.kron", C::ModeratelyCompressible, 0.40, 96, 14.0, 0.25),
        gap("tc.kron", C::ModeratelyCompressible, 0.35, 96, 20.0, 0.10),
        // Synthetics.
        Profile::stream(),
        Profile::rand(),
    ]
}

/// A named 8-core mixed workload (each core runs a different profile).
#[derive(Debug, Clone, PartialEq)]
pub struct MixWorkload {
    /// Name as it appears in the figures ("mix1", "mix2").
    pub name: &'static str,
    /// One profile per core.
    pub cores: Vec<Profile>,
}

/// The two 8-threaded mixed workloads: two benchmarks drawn from each of
/// the four compressibility categories (§V). Half the members use mixed
/// (weakly clustered) pages, which is the regime where LiPR contributes
/// (Fig. 17).
pub fn mixes() -> Vec<MixWorkload> {
    let pick = |name: &str| Profile::by_name(name).expect("catalog name");
    vec![
        MixWorkload {
            name: "mix1",
            cores: vec![
                pick("lbm"),
                pick("GemsFDTD").with_mixed_pages(),
                pick("mcf"),
                pick("soplex").with_mixed_pages(),
                pick("milc"),
                pick("bwaves").with_mixed_pages(),
                pick("libquantum"),
                pick("RAND"),
            ],
        },
        MixWorkload {
            name: "mix2",
            cores: vec![
                pick("lbm").with_mixed_pages(),
                pick("GemsFDTD"),
                pick("omnetpp"),
                pick("cc.kron").with_mixed_pages(),
                pick("leslie3d").with_mixed_pages(),
                pick("sssp.kron"),
                pick("libquantum"),
                pick("RAND"),
            ],
        },
    ]
}

/// A production-scale mixed workload for `cores` cores (the ROADMAP's
/// 8-channel / 64-core configs): the full rate-mode catalog cycled
/// core-by-core, with every fourth member on mixed pages so the LiPR
/// regime stays represented at any width. Deterministic in `cores`
/// alone, so two runs that name the same width see the same mix.
pub fn scale_mix(cores: usize) -> MixWorkload {
    let catalog = all_rate_profiles();
    MixWorkload {
        name: "scale",
        cores: (0..cores)
            .map(|i| {
                let p = catalog[i % catalog.len()].clone();
                if i % 4 == 3 {
                    p.with_mixed_pages()
                } else {
                    p
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_twenty_rate_profiles() {
        let all = all_rate_profiles();
        assert_eq!(all.len(), 20);
        let names: std::collections::HashSet<_> = all.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 20, "names must be unique");
    }

    #[test]
    fn scale_mix_cycles_the_catalog_at_any_width() {
        let wide = scale_mix(64);
        assert_eq!(wide.cores.len(), 64);
        // Cycles the whole 20-profile catalog rather than repeating a
        // prefix, and mixes pages on every fourth core.
        let names: std::collections::HashSet<_> = wide.cores.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 20);
        let base = all_rate_profiles();
        assert_eq!(
            wide.cores[3].data,
            DataProfile::mixed(base[3].data.expected_compressible())
        );
        assert_eq!(wide.cores[0].data, base[0].data);
        // Deterministic in the width alone.
        assert_eq!(scale_mix(64), wide);
        assert_eq!(scale_mix(8).cores.len(), 8);
    }

    #[test]
    fn lookup_by_name() {
        assert!(Profile::by_name("mcf").is_some());
        assert!(Profile::by_name("bc.kron").is_some());
        assert!(Profile::by_name("nonexistent").is_none());
    }

    #[test]
    fn chase_is_serialized_and_not_in_the_figure_catalog() {
        let chase = Profile::by_name("CHASE").expect("lookup works");
        assert_eq!(chase.mlp_limit, Some(1));
        assert!(all_rate_profiles().iter().all(|p| p.name != "CHASE"));
        assert!(
            all_rate_profiles().iter().all(|p| p.mlp_limit.is_none()),
            "figure workloads keep full MSHR parallelism"
        );
    }

    #[test]
    fn average_compressibility_is_about_half() {
        // Fig. 4: "on average, 50% of the cachelines are compressible".
        let all = all_rate_profiles();
        let avg: f64 = all
            .iter()
            .map(|p| p.data.expected_compressible())
            .sum::<f64>()
            / all.len() as f64;
        assert!((0.40..0.60).contains(&avg), "average {avg}");
    }

    #[test]
    fn mixes_have_eight_cores_and_all_categories() {
        for mix in mixes() {
            assert_eq!(mix.cores.len(), 8, "{}", mix.name);
            let cats: std::collections::HashSet<_> = mix.cores.iter().map(|p| p.category).collect();
            assert_eq!(cats.len(), 4, "{} must span all categories", mix.name);
        }
    }

    #[test]
    fn mixed_pages_preserve_overall_compressibility() {
        let p = Profile::by_name("soplex").unwrap();
        let m = p.clone().with_mixed_pages();
        assert!((p.data.expected_compressible() - m.data.expected_compressible()).abs() < 1e-9);
        assert_ne!(p.data, m.data);
    }

    #[test]
    fn categories_match_compressibility_bands() {
        for p in all_rate_profiles() {
            let c = p.data.expected_compressible();
            match p.category {
                Category::HighlyCompressible => assert!(c >= 0.65, "{}: {c}", p.name),
                Category::Compressible => assert!((0.45..0.70).contains(&c), "{}: {c}", p.name),
                Category::ModeratelyCompressible => {
                    assert!((0.20..0.50).contains(&c), "{}: {c}", p.name)
                }
                Category::Incompressible => assert!(c < 0.20, "{}: {c}", p.name),
            }
        }
    }
}
