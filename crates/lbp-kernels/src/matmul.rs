//! The paper's §7 experiment: integer matrix multiplication in five
//! versions — *base*, *copy*, *distributed*, *d+c* and *tiled*.
//!
//! Each run multiplies `X (h × h/2)` by `Y (h/2 × h)` into `Z (h × h)`
//! where `h` is the hart count, with one team member per hart and one
//! `Z` row (or one `Z` tile, for *tiled*) per member:
//!
//! - **base** — contiguous matrices, straight three-loop kernel with the
//!   paper's seven-instruction inner loop;
//! - **copy** — copies the current `X` row into the member's local stack
//!   to avoid repeated shared-memory reads;
//! - **distributed** — interleaves the three matrices evenly over the
//!   shared banks (four `X` rows, two `Y` rows and four `Z` rows per
//!   bank), so each member's `X`/`Z` rows live in its own core's bank;
//! - **d+c** — distributed *and* copying;
//! - **tiled** — the classic tiled algorithm: each member computes one
//!   `√h × √h` tile of `Z`, staging `X`/`Y` tiles through its local
//!   stack (`√h·√h/2` elements each, paper §7).

use lbp_asm::Image;
use lbp_isa::SHARED_BASE;
use lbp_omp::DetOmp;
use lbp_sim::{LbpConfig, Machine, SimError};

/// Which of the paper's five versions to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Contiguous data, plain loops.
    Base,
    /// `X` row staged in the local stack.
    Copy,
    /// Matrices interleaved across shared banks.
    Distributed,
    /// Distributed + copy.
    DistributedCopy,
    /// One `Z` tile per member, tiles staged locally.
    Tiled,
}

impl Version {
    /// All five versions in the paper's presentation order.
    pub const ALL: [Version; 5] = [
        Version::Base,
        Version::Copy,
        Version::Distributed,
        Version::DistributedCopy,
        Version::Tiled,
    ];

    /// The paper's name for this version.
    pub fn name(self) -> &'static str {
        match self {
            Version::Base => "base",
            Version::Copy => "copy",
            Version::Distributed => "distributed",
            Version::DistributedCopy => "d+c",
            Version::Tiled => "tiled",
        }
    }
}

/// Matrix dimensions and data placement, mirrored on the host side so
/// benches can initialize inputs and check outputs without running any
/// simulated code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// `h`: rows of `X`/`Z`, columns of `Y`/`Z`.
    pub n: u32,
    /// `h/2`: columns of `X`, rows of `Y`.
    pub m: u32,
    /// Shared-bank size for banked placement; `None` for contiguous.
    bank_bytes: Option<u32>,
}

impl Layout {
    fn contiguous(n: u32) -> Layout {
        Layout {
            n,
            m: n / 2,
            bank_bytes: None,
        }
    }

    fn banked(n: u32, bank_bytes: u32) -> Layout {
        Layout {
            n,
            m: n / 2,
            bank_bytes: Some(bank_bytes),
        }
    }

    /// Bytes of one `X` row.
    fn x_row_bytes(&self) -> u32 {
        self.m * 4
    }

    /// Bytes of one `Y`/`Z` row.
    fn yz_row_bytes(&self) -> u32 {
        self.n * 4
    }

    /// Address of `X[i][k]`.
    pub fn x(&self, i: u32, k: u32) -> u32 {
        match self.bank_bytes {
            None => SHARED_BASE + i * self.x_row_bytes() + k * 4,
            Some(bank) => SHARED_BASE + (i >> 2) * bank + (i & 3) * self.x_row_bytes() + k * 4,
        }
    }

    /// Address of `Y[k][j]`.
    pub fn y(&self, k: u32, j: u32) -> u32 {
        match self.bank_bytes {
            None => SHARED_BASE + self.n * self.x_row_bytes() + k * self.yz_row_bytes() + j * 4,
            Some(bank) => {
                SHARED_BASE
                    + (k >> 1) * bank
                    + self.x_section_bytes()
                    + (k & 1) * self.yz_row_bytes()
                    + j * 4
            }
        }
    }

    /// Address of `Z[i][j]`.
    pub fn z(&self, i: u32, j: u32) -> u32 {
        match self.bank_bytes {
            None => {
                SHARED_BASE
                    + self.n * self.x_row_bytes()
                    + self.m * self.yz_row_bytes()
                    + i * self.yz_row_bytes()
                    + j * 4
            }
            Some(bank) => {
                SHARED_BASE
                    + (i >> 2) * bank
                    + self.x_section_bytes()
                    + self.y_section_bytes()
                    + (i & 3) * self.yz_row_bytes()
                    + j * 4
            }
        }
    }

    /// Bytes of the per-bank `X` block (four rows).
    fn x_section_bytes(&self) -> u32 {
        4 * self.x_row_bytes()
    }

    /// Bytes of the per-bank `Y` block (two rows).
    fn y_section_bytes(&self) -> u32 {
        2 * self.yz_row_bytes()
    }
}

/// One configured matrix-multiplication experiment.
#[derive(Debug, Clone)]
pub struct Matmul {
    /// Hart count `h` (= team size; `X` is `h × h/2`).
    pub harts: usize,
    /// The version under test.
    pub version: Version,
    /// Shared-bank bytes (placement parameter of the banked versions).
    pub bank_bytes: u32,
}

impl Matmul {
    /// Configures the experiment for `h` harts (must be a power of four
    /// of at least 16, so the tiled version's `√h` tiles are exact) using
    /// the default 64 KiB banks.
    ///
    /// # Panics
    ///
    /// Panics if `harts` is not a power of four ≥ 16.
    pub fn new(harts: usize, version: Version) -> Matmul {
        assert!(
            harts >= 16 && harts.is_power_of_two() && harts.trailing_zeros().is_multiple_of(2),
            "harts must be a power of four of at least 16, got {harts}"
        );
        assert!(
            harts <= 256,
            "the LBP design tops out at 64 cores (256 harts)"
        );
        // Banks are sized so the experiment's working set exactly fills
        // the machine's shared memory (8h² bytes over h/4 banks = 32h
        // bytes per bank): the contiguous layout then spans every bank,
        // and the distributed layout's per-bank block is one full bank —
        // the paper's "memory dimensioned proportionally to the number of
        // harts" (§7).
        Matmul {
            harts,
            version,
            bank_bytes: 32 * harts as u32,
        }
    }

    /// The number of cores the experiment needs (`h / 4`).
    pub fn cores(&self) -> usize {
        self.harts / 4
    }

    /// The machine configuration the experiment runs on.
    pub fn config(&self) -> LbpConfig {
        let mut cfg = LbpConfig::cores(self.cores());
        cfg.shared_bank_bytes = self.bank_bytes;
        cfg
    }

    /// The data placement of this version.
    pub fn layout(&self) -> Layout {
        let n = self.harts as u32;
        match self.version {
            Version::Base | Version::Copy | Version::Tiled => Layout::contiguous(n),
            Version::Distributed | Version::DistributedCopy => Layout::banked(n, self.bank_bytes),
        }
    }

    /// Builds the Deterministic OpenMP program for this version.
    pub fn program(&self) -> DetOmp {
        let body = match self.version {
            Version::Base => self.loop_body(false),
            Version::Copy => self.loop_body(true),
            Version::Distributed => self.banked_body(false),
            Version::DistributedCopy => self.banked_body(true),
            Version::Tiled => self.tiled_body(),
        };
        DetOmp::new(self.harts)
            .function("mm_thread", body)
            .parallel_for("mm_thread")
    }

    /// Assembles the program.
    ///
    /// # Panics
    ///
    /// Panics if the generated assembly is invalid (a bug in the
    /// generator, covered by tests).
    pub fn build(&self) -> Image {
        let p = self.program();
        p.build().unwrap_or_else(|e| panic!("{e}\n{}", p.source()))
    }

    /// Builds the machine with `X` and `Y` filled with ones (the paper's
    /// initialization), ready to run.
    ///
    /// # Errors
    ///
    /// Propagates machine-construction faults.
    pub fn machine(&self) -> Result<Machine, SimError> {
        self.machine_with(self.config())
    }

    /// [`Matmul::machine`] on a configuration of the caller's: the way to
    /// run the same program and inputs with a latency, the sampler or a
    /// fault plan changed. `cfg` must keep the core count and bank sizes of
    /// [`Matmul::config`], which the layout was computed for.
    ///
    /// # Errors
    ///
    /// Propagates machine-construction faults.
    pub fn machine_with(&self, cfg: LbpConfig) -> Result<Machine, SimError> {
        let image = self.build();
        let mut m = Machine::new(cfg, &image)?;
        let l = self.layout();
        for i in 0..l.n {
            for k in 0..l.m {
                m.poke_shared(l.x(i, k), 1)?;
            }
        }
        for k in 0..l.m {
            for j in 0..l.n {
                m.poke_shared(l.y(k, j), 1)?;
            }
        }
        Ok(m)
    }

    /// Checks that every sampled element of `Z` equals `h/2` (the product
    /// of all-ones inputs).
    ///
    /// # Errors
    ///
    /// Propagates memory faults from the sampled reads.
    pub fn verify(&self, m: &mut Machine) -> Result<bool, SimError> {
        let l = self.layout();
        // Sampling keeps verification O(n) at the big sizes; the
        // correctness tests sweep everything at h = 16.
        let stride = (l.n / 16).max(1);
        for i in (0..l.n).step_by(stride as usize) {
            for j in (0..l.n).step_by(stride as usize) {
                if m.peek_shared(l.z(i, j))? != l.m {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Reads the whole `Z` matrix (row-major).
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    pub fn read_z(&self, m: &mut Machine) -> Result<Vec<u32>, SimError> {
        let l = self.layout();
        let mut out = Vec::with_capacity((l.n * l.n) as usize);
        for i in 0..l.n {
            for j in 0..l.n {
                out.push(m.peek_shared(l.z(i, j))?);
            }
        }
        Ok(out)
    }

    fn dims(&self) -> (u32, u32) {
        (self.harts as u32, self.harts as u32 / 2)
    }

    /// The *base*/*copy* member body: contiguous layout, the paper's
    /// seven-instruction inner loop, one `Z` row per member.
    fn loop_body(&self, copy: bool) -> String {
        let (n, m) = self.dims();
        let l = Layout::contiguous(n);
        let mx = l.x(0, 0);
        let my = l.y(0, 0);
        let mz = l.z(0, 0);
        let xrow = m * 4; // bytes per X row
        let zrow = n * 4;
        let mut s = String::new();
        let e = &mut s;
        use std::fmt::Write;
        // a0 = member index t; one Z row per member: i = t.
        let _ = writeln!(e, "    li   a2, {mx}");
        let _ = writeln!(e, "    li   t2, {xrow}");
        let _ = writeln!(e, "    mul  t3, a0, t2");
        let _ = writeln!(e, "    add  a2, a2, t3          # a2 = &X[i][0]");
        let _ = writeln!(e, "    li   a7, {mz}");
        let _ = writeln!(e, "    li   t2, {zrow}");
        let _ = writeln!(e, "    mul  t3, a0, t2");
        let _ = writeln!(e, "    add  a7, a7, t3          # a7 = &Z[i][0]");
        if copy {
            // Stage the X row in the local stack.
            let _ = writeln!(e, "    addi sp, sp, -{xrow}");
            let _ = writeln!(e, "    mv   t2, a2");
            let _ = writeln!(e, "    mv   t3, sp");
            let _ = writeln!(e, "    addi t5, a2, {xrow}");
            let _ = writeln!(e, "mmc_copy:");
            let _ = writeln!(e, "    lw   t4, 0(t2)");
            let _ = writeln!(e, "    sw   t4, 0(t3)");
            let _ = writeln!(e, "    addi t2, t2, 4");
            let _ = writeln!(e, "    addi t3, t3, 4");
            let _ = writeln!(e, "    bne  t2, t5, mmc_copy");
            let _ = writeln!(e, "    p_syncm");
            let _ = writeln!(e, "    mv   a2, sp           # X row now local");
        }
        let _ = writeln!(e, "    li   a4, {zrow}          # Y stride");
        let _ = writeln!(e, "    li   s7, 0               # j");
        let _ = writeln!(e, "mm_jloop:");
        let _ = writeln!(e, "    li   a6, 0               # tmp");
        let _ = writeln!(e, "    mv   t2, a2");
        let _ = writeln!(e, "    li   t3, {my}");
        let _ = writeln!(e, "    slli t4, s7, 2");
        let _ = writeln!(e, "    add  t3, t3, t4          # &Y[0][j]");
        let _ = writeln!(e, "    addi t5, a2, {xrow}");
        let _ = writeln!(e, "mm_kloop:");
        let _ = writeln!(e, "    lw   s8, 0(t2)");
        let _ = writeln!(e, "    lw   s9, 0(t3)");
        let _ = writeln!(e, "    mul  s10, s8, s9");
        let _ = writeln!(e, "    add  a6, a6, s10");
        let _ = writeln!(e, "    addi t2, t2, 4");
        let _ = writeln!(e, "    add  t3, t3, a4");
        let _ = writeln!(e, "    bne  t2, t5, mm_kloop");
        let _ = writeln!(e, "    sw   a6, 0(a7)");
        let _ = writeln!(e, "    addi a7, a7, 4");
        let _ = writeln!(e, "    addi s7, s7, 1");
        let _ = writeln!(e, "    li   t6, {n}");
        let _ = writeln!(e, "    bne  s7, t6, mm_jloop");
        if copy {
            let _ = writeln!(e, "    addi sp, sp, {xrow}");
        }
        let _ = writeln!(e, "    p_ret");
        s
    }

    /// The *distributed*/*d+c* member body: banked layout. `X` and `Z`
    /// rows of member `t` live in its own core's bank; `Y` rows are
    /// spread two-per-bank, walked as (pair within bank, next bank).
    fn banked_body(&self, copy: bool) -> String {
        let (n, m) = self.dims();
        let l = Layout::banked(n, self.bank_bytes);
        let xrow = m * 4;
        let zrow = n * 4;
        let bank = self.bank_bytes;
        let y0 = l.y(0, 0); // base of Y block in bank 0
        let mut s = String::new();
        let e = &mut s;
        use std::fmt::Write;
        // i = t. X row address: SHARED + (i>>2)*bank + (i&3)*xrow.
        let _ = writeln!(e, "    srli t2, a0, 2");
        let _ = writeln!(e, "    li   t3, {bank}");
        let _ = writeln!(e, "    mul  t2, t2, t3");
        let _ = writeln!(e, "    li   a2, {SHARED_BASE}");
        let _ = writeln!(e, "    add  a2, a2, t2          # bank base");
        let _ = writeln!(e, "    andi t4, a0, 3");
        let _ = writeln!(e, "    mv   a7, a2");
        let _ = writeln!(e, "    li   t5, {xrow}");
        let _ = writeln!(e, "    mul  t6, t4, t5");
        let _ = writeln!(e, "    add  a2, a2, t6          # &X[i][0]");
        let zoff = l.x_section_bytes() + l.y_section_bytes();
        let _ = writeln!(e, "    li   t5, {zrow}");
        let _ = writeln!(e, "    mul  t6, t4, t5");
        let _ = writeln!(e, "    add  a7, a7, t6");
        let _ = writeln!(e, "    li   t5, {zoff}");
        let _ = writeln!(e, "    add  a7, a7, t5          # &Z[i][0]");
        if copy {
            let _ = writeln!(e, "    addi sp, sp, -{xrow}");
            let _ = writeln!(e, "    mv   t2, a2");
            let _ = writeln!(e, "    mv   t3, sp");
            let _ = writeln!(e, "    addi t5, a2, {xrow}");
            let _ = writeln!(e, "mmdc_copy:");
            let _ = writeln!(e, "    lw   t4, 0(t2)");
            let _ = writeln!(e, "    sw   t4, 0(t3)");
            let _ = writeln!(e, "    addi t2, t2, 4");
            let _ = writeln!(e, "    addi t3, t3, 4");
            let _ = writeln!(e, "    bne  t2, t5, mmdc_copy");
            let _ = writeln!(e, "    p_syncm");
            let _ = writeln!(e, "    mv   a2, sp");
        }
        // Y rows go two-per-bank: the walk alternates between the
        // in-bank row stride and the hop to the next bank's Y block. An
        // xor toggles the stride, keeping the inner loop at eight
        // instructions (one more than base).
        let in_bank = zrow;
        let hop = bank - zrow;
        let _ = writeln!(
            e,
            "    li   s11, {}             # stride toggle",
            in_bank ^ hop
        );
        let _ = writeln!(e, "    li   s7, 0               # j");
        let _ = writeln!(e, "mmd_jloop:");
        let _ = writeln!(e, "    li   a6, 0");
        let _ = writeln!(e, "    mv   t2, a2");
        let _ = writeln!(e, "    li   t3, {y0}");
        let _ = writeln!(e, "    slli t4, s7, 2");
        let _ = writeln!(e, "    add  t3, t3, t4          # &Y[0][j] in bank 0");
        let _ = writeln!(e, "    addi t5, a2, {xrow}");
        let _ = writeln!(e, "    li   a4, {in_bank}");
        let _ = writeln!(e, "mmd_kloop:");
        let _ = writeln!(e, "    lw   s8, 0(t2)");
        let _ = writeln!(e, "    lw   s9, 0(t3)");
        let _ = writeln!(e, "    mul  s10, s8, s9");
        let _ = writeln!(e, "    add  a6, a6, s10");
        let _ = writeln!(e, "    addi t2, t2, 4");
        let _ = writeln!(e, "    add  t3, t3, a4");
        let _ = writeln!(e, "    xor  a4, a4, s11");
        let _ = writeln!(e, "    bne  t2, t5, mmd_kloop");
        let _ = writeln!(e, "    sw   a6, 0(a7)");
        let _ = writeln!(e, "    addi a7, a7, 4");
        let _ = writeln!(e, "    addi s7, s7, 1");
        let _ = writeln!(e, "    li   t6, {n}");
        let _ = writeln!(e, "    bne  s7, t6, mmd_jloop");
        if copy {
            let _ = writeln!(e, "    addi sp, sp, {xrow}");
        }
        let _ = writeln!(e, "    p_ret");
        s
    }

    /// The *tiled* member body: one `√h × √h` tile of `Z` per member,
    /// staging `X`/`Y` tiles through the local stack (five loop levels:
    /// kk, copy, i2, j2, k2 — the paper's "classic five nested loops").
    fn tiled_body(&self) -> String {
        let (n, m) = self.dims();
        let l = Layout::contiguous(n);
        let mx = l.x(0, 0);
        let my = l.y(0, 0);
        let mz = l.z(0, 0);
        let th = (self.harts as f64).sqrt() as u32; // tile side, exact
        debug_assert_eq!(th * th, n);
        let thk = th / 2; // X-tile columns == Y-tile rows
        let xrow = m * 4;
        let zrow = n * 4;
        let zt_bytes = th * th * 4;
        let xt_bytes = th * thk * 4;
        let yt_bytes = thk * th * 4;
        let frame = zt_bytes + xt_bytes + yt_bytes;
        let log_th = th.trailing_zeros();
        let mut s = String::new();
        let e = &mut s;
        use std::fmt::Write;
        let _ = writeln!(e, "    addi sp, sp, -{frame}");
        // zt at sp, xt at sp+zt, yt at sp+zt+xt.
        let _ = writeln!(e, "    srli s4, a0, {log_th}     # ti");
        let _ = writeln!(e, "    andi s5, a0, {mask}       # tj", mask = th - 1);
        // Zero the Z tile.
        let _ = writeln!(e, "    mv   t2, sp");
        let _ = writeln!(e, "    addi t3, sp, {zt_bytes}");
        let _ = writeln!(e, "mmt_zz:");
        let _ = writeln!(e, "    sw   zero, 0(t2)");
        let _ = writeln!(e, "    addi t2, t2, 4");
        let _ = writeln!(e, "    bne  t2, t3, mmt_zz");
        let _ = writeln!(e, "    li   s6, 0                # kk (tile index)");
        let _ = writeln!(e, "mmt_kk:");
        // --- copy X tile: rows ti*th .. +th, cols kk*thk .. +thk ---
        // src(i2) = mx + (ti*th+i2)*xrow + kk*thk*4 ; dst = sp+zt + i2*thk*4
        let _ = writeln!(e, "    slli t2, s4, {lt}", lt = log_th);
        let _ = writeln!(e, "    li   t3, {xrow}");
        let _ = writeln!(e, "    mul  t2, t2, t3");
        let _ = writeln!(e, "    li   t4, {mx}");
        let _ = writeln!(e, "    add  t2, t2, t4");
        let _ = writeln!(e, "    slli t4, s6, {lk}", lk = thk.trailing_zeros() + 2);
        let _ = writeln!(e, "    add  t2, t2, t4          # src X");
        let _ = writeln!(e, "    addi t3, sp, {zt_bytes}  # dst xt");
        let _ = writeln!(e, "    li   s7, 0                # i2");
        let _ = writeln!(e, "mmt_cpx_row:");
        let _ = writeln!(e, "    mv   t4, t2");
        let _ = writeln!(e, "    addi t5, t2, {tw}", tw = thk * 4);
        let _ = writeln!(e, "mmt_cpx:");
        let _ = writeln!(e, "    lw   t6, 0(t4)");
        let _ = writeln!(e, "    sw   t6, 0(t3)");
        let _ = writeln!(e, "    addi t4, t4, 4");
        let _ = writeln!(e, "    addi t3, t3, 4");
        let _ = writeln!(e, "    bne  t4, t5, mmt_cpx");
        let _ = writeln!(e, "    addi t2, t2, {xrow}");
        let _ = writeln!(e, "    addi s7, s7, 1");
        let _ = writeln!(e, "    li   t6, {th}");
        let _ = writeln!(e, "    bne  s7, t6, mmt_cpx_row");
        // --- copy Y tile: rows kk*thk .. +thk, cols tj*th .. +th ---
        let _ = writeln!(e, "    slli t2, s6, {lk}", lk = thk.trailing_zeros());
        let _ = writeln!(e, "    li   t3, {zrow}");
        let _ = writeln!(e, "    mul  t2, t2, t3");
        let _ = writeln!(e, "    li   t4, {my}");
        let _ = writeln!(e, "    add  t2, t2, t4");
        let _ = writeln!(e, "    slli t4, s5, {lt2}", lt2 = log_th + 2);
        let _ = writeln!(e, "    add  t2, t2, t4          # src Y");
        let _ = writeln!(
            e,
            "    addi t3, sp, {off}        # dst yt",
            off = zt_bytes + xt_bytes
        );
        let _ = writeln!(e, "    li   s7, 0                # k2");
        let _ = writeln!(e, "mmt_cpy_row:");
        let _ = writeln!(e, "    mv   t4, t2");
        let _ = writeln!(e, "    addi t5, t2, {tw}", tw = th * 4);
        let _ = writeln!(e, "mmt_cpy:");
        let _ = writeln!(e, "    lw   t6, 0(t4)");
        let _ = writeln!(e, "    sw   t6, 0(t3)");
        let _ = writeln!(e, "    addi t4, t4, 4");
        let _ = writeln!(e, "    addi t3, t3, 4");
        let _ = writeln!(e, "    bne  t4, t5, mmt_cpy");
        let _ = writeln!(e, "    addi t2, t2, {zrow}");
        let _ = writeln!(e, "    addi s7, s7, 1");
        let _ = writeln!(e, "    li   t6, {thk}");
        let _ = writeln!(e, "    bne  s7, t6, mmt_cpy_row");
        let _ = writeln!(
            e,
            "    p_syncm                   # tiles staged; zt from last kk settled"
        );
        // --- compute: zt[i2][j2] += xt[i2][k2] * yt[k2][j2] ---
        let _ = writeln!(e, "    li   s7, 0                # i2");
        let _ = writeln!(e, "mmt_ci:");
        let _ = writeln!(e, "    li   s8, 0                # j2");
        let _ = writeln!(e, "mmt_cj:");
        let _ = writeln!(e, "    slli t2, s7, {lt2}", lt2 = log_th + 2);
        let _ = writeln!(e, "    add  t2, t2, sp");
        let _ = writeln!(e, "    slli t3, s8, 2");
        let _ = writeln!(e, "    add  t2, t2, t3          # &zt[i2][j2]");
        let _ = writeln!(e, "    lw   a6, 0(t2)");
        // xt row i2 pointer, yt column j2 pointer.
        let _ = writeln!(e, "    slli t4, s7, {lx}", lx = thk.trailing_zeros() + 2);
        let _ = writeln!(e, "    addi t4, t4, {zt_bytes}");
        let _ = writeln!(e, "    add  t4, t4, sp          # &xt[i2][0]");
        let _ = writeln!(e, "    slli t5, s8, 2");
        let _ = writeln!(e, "    addi t5, t5, {off}", off = zt_bytes + xt_bytes);
        let _ = writeln!(e, "    add  t5, t5, sp          # &yt[0][j2]");
        let _ = writeln!(e, "    addi t6, t4, {tw}", tw = thk * 4);
        let _ = writeln!(e, "mmt_ck:");
        let _ = writeln!(e, "    lw   s9, 0(t4)");
        let _ = writeln!(e, "    lw   s10, 0(t5)");
        let _ = writeln!(e, "    mul  s11, s9, s10");
        let _ = writeln!(e, "    add  a6, a6, s11");
        let _ = writeln!(e, "    addi t4, t4, 4");
        let _ = writeln!(e, "    addi t5, t5, {tw}", tw = th * 4);
        let _ = writeln!(e, "    bne  t4, t6, mmt_ck");
        let _ = writeln!(e, "    sw   a6, 0(t2)");
        let _ = writeln!(e, "    addi s8, s8, 1");
        let _ = writeln!(e, "    li   t6, {th}");
        let _ = writeln!(e, "    bne  s8, t6, mmt_cj");
        let _ = writeln!(e, "    addi s7, s7, 1");
        let _ = writeln!(e, "    li   t6, {th}");
        let _ = writeln!(e, "    bne  s7, t6, mmt_ci");
        let _ = writeln!(e, "    addi s6, s6, 1");
        let _ = writeln!(e, "    li   t6, {th}");
        let _ = writeln!(e, "    bne  s6, t6, mmt_kk");
        // --- write the Z tile out ---
        let _ = writeln!(e, "    p_syncm                   # zt writes settled");
        let _ = writeln!(e, "    slli t2, s4, {lt}", lt = log_th);
        let _ = writeln!(e, "    li   t3, {zrow}");
        let _ = writeln!(e, "    mul  t2, t2, t3          # ti*th rows in bytes");
        let _ = writeln!(e, "    li   t4, {mz}");
        let _ = writeln!(e, "    add  t2, t2, t4");
        let _ = writeln!(e, "    slli t4, s5, {lt2}", lt2 = log_th + 2);
        let _ = writeln!(e, "    add  t2, t2, t4          # &Z[ti*th][tj*th]");
        let _ = writeln!(e, "    mv   t3, sp               # zt");
        let _ = writeln!(e, "    li   s7, 0                # i2");
        let _ = writeln!(e, "mmt_st_row:");
        let _ = writeln!(e, "    mv   t4, t2");
        let _ = writeln!(e, "    addi t5, t3, {tw}", tw = th * 4);
        let _ = writeln!(e, "mmt_st:");
        let _ = writeln!(e, "    lw   t6, 0(t3)");
        let _ = writeln!(e, "    sw   t6, 0(t4)");
        let _ = writeln!(e, "    addi t3, t3, 4");
        let _ = writeln!(e, "    addi t4, t4, 4");
        let _ = writeln!(e, "    bne  t3, t5, mmt_st");
        let _ = writeln!(e, "    addi t2, t2, {zrow}");
        let _ = writeln!(e, "    addi s7, s7, 1");
        let _ = writeln!(e, "    li   t6, {th}");
        let _ = writeln!(e, "    bne  s7, t6, mmt_st_row");
        // The frame can exceed the 12-bit addi range at h = 256.
        let _ = writeln!(e, "    li   t6, {frame}");
        let _ = writeln!(e, "    add  sp, sp, t6");
        let _ = writeln!(e, "    p_ret");
        s
    }
}
