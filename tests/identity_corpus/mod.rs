//! The programs the identity tests judge, as `(name, source)`: the
//! shipped sources of a directory, the ten matmul kernels and the
//! programs of a generator family at seed 42. One definition, so
//! `golden_cli.rs`, `asm_identity.rs`, `cc_identity.rs` and
//! `determinism_judges.rs` cannot drift apart.
//! `roi.c` marks its region of interest with `__roi_start();`, the
//! target of `lbp-run --roi`.

use lbp::kernels::matmul::{Matmul, Version};
use lbp_fuzz::gen::{self, GenConfig, Kind};
use lbp_testutil::Rng;

pub type Programs = Vec<(String, String)>;

/// Every `ext` file of a directory of the repository, by name.
pub fn dir(dir: &str, ext: &str) -> Programs {
    let root = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("{root}: {e}"))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(ext))
        .collect();
    names.sort();
    let read = |name: &String| std::fs::read_to_string(format!("{root}/{name}")).unwrap();
    names
        .iter()
        .map(|name| (name.clone(), read(name)))
        .collect()
}

/// `Matmul::new({16, 64}, v)` for every version.
pub fn matmul_kernels() -> Programs {
    let mut programs = Programs::new();
    for harts in [16, 64] {
        for version in Version::ALL {
            let name = format!("matmul/{}/h{harts}.s", version.name());
            programs.push((name, Matmul::new(harts, version).program().source()));
        }
    }
    programs
}

/// 100 programs of one generator family at seed 42.
pub fn generated(kind: Kind) -> Programs {
    generated_n(kind, 100)
}

/// The first `count` programs of one generator family at seed 42.
pub fn generated_n(kind: Kind, count: u64) -> Programs {
    let cfg = GenConfig {
        kinds: vec![kind],
        ..GenConfig::default()
    };
    (0..count)
        .map(|case| {
            let mut rng = Rng::new(lbp_fuzz::case_seed(42, case));
            let program = gen::generate(&mut rng, &cfg, case);
            let name = format!("{}/{case}/{}", kind.name(), program.file_name());
            (name, program.render())
        })
        .collect()
}

/// FNV-1a of what `render` says of each program, in order.
pub fn hash(programs: &Programs, render: impl Fn(&str, &str) -> String) -> u64 {
    let all: String = programs.iter().map(|(n, s)| render(n, s)).collect();
    lbp::snap::fnv1a64(all.as_bytes())
}
