//! A minimal row-major `f64` matrix with the operations a dense MLP needs.
//!
//! This is deliberately not a general tensor library, but the product kernels are the
//! hottest code in the serving path (`forward_batch_into` bottoms out here), so they
//! are written as cache-blocked, autovectorizer-friendly register-tile kernels rather
//! than scalar triple loops.
//!
//! # Kernel design and the reduction-order contract
//!
//! Every kernel processes fixed-width register tiles whose accumulators live in local
//! arrays (which the autovectorizer keeps in SIMD registers), and the inner loop walks
//! the shared dimension once with the operand panels loaded contiguously:
//!
//! - `matmul` / `matmul_into`: `MR` output rows × `NR` contiguous lanes, then one
//!   `TAIL_LANES`-lane tile where `NR` is wider, then a scalar column loop; the
//!   `m % MR` edge rows (every row of a batch of 1–3, the serving case) use a single-row
//!   tile of `W` contiguous lanes, then one of `W / 2` lanes, then `TAIL_LANES` lanes,
//!   then scalar columns. `W` and `NR` are sized to the instruction set (see below).
//! - `matmul_tn_acc`: `MR` accumulator rows × `NR` lanes, then narrower edges.
//! - `matmul_nt` / `matmul_nt_into`: each block of `NR` outputs (rows of the right
//!   operand) is packed once into a panel of `NR`-lane columns, and `MR`-row tiles run
//!   through it one interleaved partial sum at a time; the `m % MR` edge rows and the
//!   `n % NR` edge outputs run `NT_OUTS` dot products per pass over the left row,
//!   then single dot products.
//!
//! The load-bearing invariant is that the **per-output-element reduction order is a
//! function of the inner dimension only** — never of the batch size, the tile the
//! element landed in, the instruction set, or the thread count:
//!
//! - `matmul` / `matmul_into` / `matmul_tn_acc`: element `(i, j)` is the strict
//!   ascending-`k` sum `((..(a_{i0}·b_{0j}) + a_{i1}·b_{1j}) + ..)`, exactly the order
//!   of the textbook scalar loop. Register tiles only change *which elements advance
//!   together*, not the order within an element, so a blocked result is bit-identical
//!   to the scalar reference — and a row of a size-N batch is bit-identical to the
//!   same row forwarded alone, which is the invariant the online serving layer's
//!   micro-batching and the `serving_parity` suite rest on.
//! - `matmul_nt` / `matmul_nt_into`: each element is an independent dot product, which
//!   a single serial chain would leave latency-bound; it is accumulated in `DOT_LANES`
//!   interleaved partial sums (lane `c` takes `k ≡ c (mod DOT_LANES)` in ascending
//!   order) combined by a fixed balanced tree. The order is still a pure function of
//!   the inner dimension, so results remain independent of batch size and thread
//!   count; they simply differ (by rounding reassociation) from the serial-chain sum.
//!
//! # Skipping zero inputs
//!
//! Products skip the terms of zero elements of the left operand only where that
//! provably keeps the bits. Each needs its own proof:
//!
//! - `a · W` (NN, every forward pass) and `dL/dz · Wᵀ` (NT, the backward pass's input
//!   gradient) need every element of the right operand `W` to be finite. A dense layer
//!   holds that proof for its weights from creation, through every Adam step that
//!   writes only finite values, and after freezing (see [`crate::DenseLayer`]); a ReLU
//!   layer's inputs and its `dL/dz` are exact zeros wherever a unit is inactive.
//! - `dL/dW += inputᵀ · dL/dz` (TN-acc) needs every element of `dL/dz` to be finite,
//!   which the product checks on each call, and an accumulator that holds no `−0.0`,
//!   which the layer's gradient buffer never does.
//!
//! An edge row (every row of a batch of 1–3) collects its nonzero `(k, a_k)` terms
//! once, with no branch, and its single-row tiles walk only those rows of the right
//! operand, still in ascending `k`. An `MR`-row block collects, the same way, the `k`
//! where any of its rows is nonzero, packed with the block's `MR` values of `a`; its
//! tiles walk only those (NT splits them by partial-sum lane, each lane pass walking
//! its own in ascending order), and a block with no all-zero `k` keeps the dense loop.
//! TN-acc instead drops the columns of `input` that are zero in every row: its tiles
//! run over the live columns, gathered into a compact operand, and leave the dead
//! columns' accumulator rows alone. The blocks and TN-acc skip only in products at
//! least `MIN_SKIP_LANES` (64) wide, where collecting the terms costs less than it
//! saves. All of that is bit-identical to the dense sum:
//!
//! - with a finite `w`, a skipped term `±0·w` is `±0`;
//! - every NN and NT accumulator is seeded with `+0.0`, and every TN-acc accumulator
//!   from a value that is not `−0.0`; under round-to-nearest such a sum is never
//!   `−0.0` (`x + y` is `−0.0` only when both are), so adding `±0` never changes a
//!   partial sum, and dropping it leaves every later sum as it was.
//!
//! Only a non-finite `w` could make a skipped term matter: `0·∞` and `0·NaN` are NaN
//! (IEEE 754), so every product without the proof keeps the dense loop.
//!
//! # Instruction-set dispatch
//!
//! The build targets baseline x86-64 (SSE2), which leaves the kernels at two f64 lanes
//! per instruction. So each kernel body is an `#[inline(always)]` function compiled
//! once per level — baseline, `avx2` and `avx512f` — through `#[target_feature]`
//! wrappers, and the best level the CPU reports (`is_x86_feature_detected!`, cached on
//! first use) is picked at run time. [`kernel_isa`] names the level in use. Other
//! architectures compile only the baseline body. The levels differ only in the tile
//! widths. Each fills eight vector registers with accumulators (the baseline 4-row
//! tile fills all sixteen SSE registers), enough independent adds to hide the add
//! latency:
//!
//! | level    | single-row `W` | 4-row tile `NR` |
//! |----------|----------------|-----------------|
//! | baseline | 16             | 8               |
//! | AVX2     | 32             | 8               |
//! | AVX-512  | 128            | 16              |
//!
//! `W` carries a batch-1 forward pass (AVX-512 has 32 registers, so its 16-register
//! single-row tile still leaves room for the operands); `NR` carries the 64-row products
//! of a training update, `matmul_nt`'s panel tiles included.
//!
//! The results do not depend on the level, bit for bit. The kernels use plain
//! mul-then-add: `fma` is never enabled and `mul_add` never called, and Rust never
//! contracts a multiply and an add into a fused one, so every product and every sum
//! rounds exactly as the scalar code says. Vectorization only runs independent
//! elements side by side; each element's reduction order is fixed by the code above,
//! whatever the register width.
//!
//! # Alignment
//!
//! Every `Matrix` buffer, and `matmul_nt`'s packed panel, starts on a 64-byte
//! boundary after every construction, clone, reshape and `copy_from` (a private
//! `AlignedBuf` holds seven spare elements and starts at the first boundary among
//! them). A weight row whose offset is a multiple of eight elements, which is every
//! row of the paper network's 256-, 128- and 64-wide layers, then starts a cache line,
//! so each 8-lane AVX-512 load of it reads one line instead of two. The rows stay
//! unpadded and no kernel reads its operands differently, so every element keeps its
//! reduction order and its bits: alignment changes speed only, which the unit tests
//! check by running every product on operands shifted 1–7 elements off a boundary.
//! The allocator aligns a block to 16 bytes only, so a plain `Vec` would start a
//! cache line one time in four, and a whole serving process would run in a fast or a
//! slow mode by where its weights landed. On a 2-vCPU AVX-512 Xeon, 20 alternating
//! 30 s runs of the benchmark's serve-paper workload (the paper network at batch ≈ 1)
//! read a median decision-call p50 of 13.2 µs (19 runs within 13.06–13.66 µs) where
//! unaligned storage read 17.8 µs (13.7–18.6 µs), and 70.7k events/s where it read
//! 55.2k (+28%).

mod aligned;

use aligned::AlignedBuf;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Output rows advanced together by one register tile.
const MR: usize = 4;
/// Lanes of the narrowest multi-lane tile. Every level's tile widths are multiples of
/// it, and the columns left between a level's widest tile and the scalar edge columns
/// run in tiles of this width.
const TAIL_LANES: usize = 8;
/// Interleaved partial-sum lanes of the `matmul_nt` dot-product kernel.
const DOT_LANES: usize = 8;
/// Dot products the `matmul_nt` kernel computes per pass over the left row.
const NT_OUTS: usize = 4;
/// The narrowest product whose [`MR`]-row tiles (and whose TN-acc columns) skip zero
/// inputs: one collected term feeds at least this many output lanes. Collecting costs
/// about as much as a narrow product itself (with skipping at every width, the
/// `[32, 32]` agent's training update ran about 40% slower on a 2-vCPU AVX-512 Xeon),
/// so narrower products keep the dense loop. The edge rows skip at every width.
const MIN_SKIP_LANES: usize = 64;
thread_local! {
    /// The packed `matmul_nt` panel: `k` rows of `NR` lanes, overwritten by every
    /// product and kept per thread so packing allocates only when `k · NR` grows.
    static NT_PANEL: std::cell::Cell<AlignedBuf> =
        const { std::cell::Cell::new(AlignedBuf::new()) };
    /// One edge row's nonzero `(k·n, a_k)` terms in a zero-skipping product, overwritten
    /// by every row and kept per thread so collecting them allocates only when `k`
    /// grows.
    static NONZERO_TERMS: std::cell::Cell<Vec<(usize, f64)>> =
        const { std::cell::Cell::new(Vec::new()) };
    /// The live terms of every 4-row block of a zero-skipping product, overwritten by
    /// every product (see [`BlockTerms`]).
    static BLOCK_TERMS: std::cell::Cell<BlockTerms> = const {
        std::cell::Cell::new(BlockTerms {
            terms: Vec::new(),
            lens: Vec::new(),
            skips: Vec::new(),
            lanes: 0,
            cap: 0,
        })
    };
    /// The live columns of a zero-skipping `matmul_tn_acc`'s left operand: their
    /// indices, and their values gathered into a row-major `m × live` operand.
    static LIVE_COLUMNS: std::cell::Cell<(Vec<usize>, Vec<f64>)> =
        const { std::cell::Cell::new((Vec::new(), Vec::new())) };
}

/// The live terms of the [`MR`]-row blocks of a zero-skipping product's left operand,
/// split into `lanes` lists per block: list `c` of block `b` holds, in ascending `k`,
/// the `k ≡ c (mod lanes)` where any of the block's rows is nonzero, each carried as
/// `(k · stride, [a_{i0,k}, .., a_{i0+MR-1,k}])` so a tile reads one packed entry per
/// term. The lists are collected once per product and walked by every tile of the
/// block; a block with no all-zero `k` runs the dense tiles, so its lists are not
/// collected.
#[derive(Default)]
struct BlockTerms {
    terms: Vec<(usize, [f64; MR])>,
    /// `lens[b · lanes + c]`: the length of list `c` of block `b`, which starts at
    /// `terms[(b · lanes + c) · cap]`.
    lens: Vec<usize>,
    /// Whether block `b` has an all-zero `k`, and so lists to walk.
    skips: Vec<bool>,
    lanes: usize,
    /// `k.div_ceil(lanes)`: the room of each list.
    cap: usize,
}

impl BlockTerms {
    /// The thread's buffers, taken out of [`BLOCK_TERMS`] for one product (hand them
    /// back with `set`), holding the lists of the first `blocks` blocks of `a`
    /// (`· × kdim`, row-major). Branch-free, like the edge rows' terms: every term is
    /// written, and a list's length only advances past a live one.
    #[inline(always)]
    fn take(a: &[f64], blocks: usize, kdim: usize, lanes: usize, stride: usize) -> Self {
        let mut this = BLOCK_TERMS.take();
        this.lanes = lanes;
        this.cap = kdim.div_ceil(lanes);
        this.terms.resize(blocks * lanes * this.cap, (0, [0.0; MR]));
        this.lens.clear();
        this.lens.resize(blocks * lanes, 0);
        this.skips.clear();
        for (block, rows) in a.chunks_exact(MR * kdim).take(blocks).enumerate() {
            let rows: [&[f64]; MR] = std::array::from_fn(|r| &rows[r * kdim..(r + 1) * kdim]);
            let zero = |kk: usize| rows.iter().fold(true, |zero, row| zero & (row[kk] == 0.0));
            let skips = (0..kdim).fold(false, |any, kk| any | zero(kk));
            this.skips.push(skips);
            if !skips {
                continue;
            }
            for c in 0..lanes {
                let list = &mut this.terms[(block * lanes + c) * this.cap..][..this.cap];
                let mut len = 0;
                for kk in (c..kdim).step_by(lanes) {
                    list[len] = (kk * stride, rows.map(|row| row[kk]));
                    len += usize::from(!zero(kk));
                }
                this.lens[block * lanes + c] = len;
            }
        }
        this
    }

    /// Block `block`'s lists, if it has an all-zero `k`.
    fn skipping(&self, block: usize) -> Option<(&BlockTerms, usize)> {
        self.skips[block].then_some((self, block))
    }

    /// List `c` of block `block`.
    fn list(&self, block: usize, c: usize) -> &[(usize, [f64; MR])] {
        let at = block * self.lanes + c;
        &self.terms[at * self.cap..][..self.lens[at]]
    }
}

/// An instruction-set level the product kernels are compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Every level the running CPU supports, best first. A non-baseline `Isa` value is
    /// only ever created here, after its `is_x86_feature_detected!` check succeeded —
    /// the invariant every `unsafe` call into a `target_feature` wrapper rests on.
    fn supported() -> Vec<Isa> {
        let mut levels = Vec::with_capacity(3);
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                levels.push(Isa::Avx512);
            }
            if is_x86_feature_detected!("avx2") {
                levels.push(Isa::Avx2);
            }
        }
        levels.push(Isa::Baseline);
        levels
    }

    /// The level the kernels run at: the best one the CPU supports.
    fn current() -> Isa {
        #[cfg(test)]
        if let Some(forced) = FORCED_ISA.with(std::cell::Cell::get) {
            return forced;
        }
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        *DETECTED.get_or_init(|| Isa::supported()[0])
    }

    fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512f",
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Unit-test override of [`Isa::current`] on this thread, so one test process can
    /// drive whole networks through every level the CPU supports.
    static FORCED_ISA: std::cell::Cell<Option<Isa>> = const { std::cell::Cell::new(None) };
}

/// The instruction-set level the matrix product kernels run at on this CPU:
/// `"avx512f"`, `"avx2"` or `"baseline"`. A report for comparing throughput figures
/// across hosts, not a setting: every level produces the same bits.
pub fn kernel_isa() -> &'static str {
    Isa::current().name()
}

/// `acc[r][..] += av[r] · row` for every row `r` of a register tile: one term of the
/// tile's ascending-`k` sums.
#[inline(always)]
fn add_term<const L: usize>(acc: &mut [[f64; L]; MR], av: [f64; MR], row: &[f64]) {
    for (acc_row, a) in acc.iter_mut().zip(av) {
        for (s, &bv) in acc_row.iter_mut().zip(row) {
            *s += a * bv;
        }
    }
}

/// `out[i0..i0+MR][j0..j0+L] = a · b` for one full register tile of [`MR`] rows × `L`
/// contiguous lanes, accumulating every element in strict ascending-`k` order. `a` is
/// the `m × k` left operand, `b` the `k × n` right operand, both row-major. With
/// `live`, the tile walks only the block's live `(k·n, [a_{i0,k}, ..])` terms
/// ([`BlockTerms`]) instead of every `k` of `a`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_mr<const L: usize>(
    a: &[f64],
    live: Option<&[(usize, [f64; MR])]>,
    b: &[f64],
    out: &mut [f64],
    kdim: usize,
    n: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f64; L]; MR];
    match live {
        Some(terms) => {
            for &(offset, av) in terms {
                add_term(&mut acc, av, &b[offset + j0..offset + j0 + L]);
            }
        }
        None => {
            for kk in 0..kdim {
                let brow = &b[kk * n + j0..kk * n + j0 + L];
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = a[(i0 + r) * kdim + kk];
                    for (s, &bv) in acc_row.iter_mut().zip(brow) {
                        *s += av * bv;
                    }
                }
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i0 + r) * n + j0..(i0 + r) * n + j0 + L].copy_from_slice(acc_row);
    }
}

/// Row `arow` of a left operand as `(k·n, a_k)` terms, every `k` in ascending order.
#[inline(always)]
fn row_terms(arow: &[f64], n: usize) -> impl Iterator<Item = (usize, f64)> + Clone + '_ {
    arow.iter().enumerate().map(move |(kk, &v)| (kk * n, v))
}

/// One-row, `W`-lane variant of [`tile_mr`] for the `m % MR` edge rows:
/// `out_row[j0..j0+W] = Σ a_k · b[k, j0..j0+W]` over `terms`, the row's `(k·n, a_k)`
/// pairs in ascending `k`.
#[inline(always)]
fn tile_1<const W: usize>(
    terms: impl Iterator<Item = (usize, f64)>,
    b: &[f64],
    out_row: &mut [f64],
    j0: usize,
) {
    let mut acc = [0.0f64; W];
    for (offset, av) in terms {
        let brow = &b[offset + j0..offset + j0 + W];
        for (s, &bv) in acc.iter_mut().zip(brow) {
            *s += av * bv;
        }
    }
    out_row[j0..j0 + W].copy_from_slice(&acc);
}

/// Scalar edge columns `j0..n` of one row over `terms`: same strict ascending-`k` order.
#[inline(always)]
fn edge_cols(
    terms: impl Iterator<Item = (usize, f64)> + Clone,
    b: &[f64],
    out_row: &mut [f64],
    j0: usize,
) {
    for (j, o) in out_row.iter_mut().enumerate().skip(j0) {
        let mut s = 0.0f64;
        for (offset, av) in terms.clone() {
            s += av * b[offset + j];
        }
        *o = s;
    }
}

/// One `m % MR` edge row over `terms`: `W`-lane tiles, then at most one `H`-lane tile
/// (`H = W / 2`), then [`TAIL_LANES`]-lane ones, then scalar columns.
#[inline(always)]
fn edge_row<const W: usize, const H: usize>(
    terms: impl Iterator<Item = (usize, f64)> + Clone,
    b: &[f64],
    out_row: &mut [f64],
    n: usize,
) {
    const { assert!(2 * H == W) };
    let mut j0 = 0;
    while j0 + W <= n {
        tile_1::<W>(terms.clone(), b, out_row, j0);
        j0 += W;
    }
    if j0 + H <= n {
        tile_1::<H>(terms.clone(), b, out_row, j0);
        j0 += H;
    }
    while j0 + TAIL_LANES <= n {
        tile_1::<TAIL_LANES>(terms.clone(), b, out_row, j0);
        j0 += TAIL_LANES;
    }
    edge_cols(terms, b, out_row, j0);
}

/// Blocked `out = a · b` (`m × k` times `k × n`, all row-major, `out` overwritten):
/// [`MR`]-row tiles `NR` lanes wide, then at most one [`TAIL_LANES`]-wide tile (when
/// `NR` is wider), then scalar edge columns; the `m % MR` edge rows run in `W`-lane
/// single-row tiles, then one `H`-lane tile (`H = W / 2`), then [`TAIL_LANES`]-lane
/// ones, then scalar columns. Bit-identical to the scalar `i, k, j` reference loop for
/// every shape, `W` and `NR`.
///
/// With `SKIP_ZEROS`, each [`MR`]-row block of a product at least [`MIN_SKIP_LANES`]
/// wide first collects the `k` where any of its rows is nonzero ([`BlockTerms`]), and
/// each edge row its nonzero inputs; their tiles run over those rows of `b` only, in
/// ascending `k`. A block with no all-zero `k` runs the dense tiles, which read `a` in
/// place. That is bit-identical too when every element of `b` is finite (see the
/// module docs); with a non-finite `b` it drops the NaN of a `0·∞` or `0·NaN` term.
#[inline(always)]
fn gemm_nn_body<const W: usize, const H: usize, const NR: usize, const SKIP_ZEROS: bool>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    kdim: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), kdim * n);
    debug_assert_eq!(out.len(), m * n);
    let m_full = m - m % MR;
    let blocks =
        (SKIP_ZEROS && n >= MIN_SKIP_LANES).then(|| BlockTerms::take(a, m_full / MR, kdim, 1, n));
    for i0 in (0..m_full).step_by(MR) {
        let live = blocks
            .as_ref()
            .and_then(|t| t.skipping(i0 / MR))
            .map(|(t, block)| t.list(block, 0));
        let mut j0 = 0;
        while j0 + NR <= n {
            tile_mr::<NR>(a, live, b, out, kdim, n, i0, j0);
            j0 += NR;
        }
        while j0 + TAIL_LANES <= n {
            tile_mr::<TAIL_LANES>(a, live, b, out, kdim, n, i0, j0);
            j0 += TAIL_LANES;
        }
        for r in 0..MR {
            let out_row = &mut out[(i0 + r) * n..(i0 + r + 1) * n];
            match live {
                Some(terms) => {
                    let terms = terms.iter().map(|&(offset, av)| (offset, av[r]));
                    edge_cols(terms, b, out_row, j0);
                }
                None => edge_cols(row_terms(&a[(i0 + r) * kdim..][..kdim], n), b, out_row, j0),
            }
        }
    }
    if let Some(blocks) = blocks {
        BLOCK_TERMS.set(blocks);
    }
    let edge_rows = a[m_full * kdim..]
        .chunks_exact(kdim)
        .zip(out[m_full * n..].chunks_exact_mut(n));
    if SKIP_ZEROS {
        // Taken out of the thread-local for the product, like `NT_PANEL`.
        let mut nonzero = NONZERO_TERMS.take();
        nonzero.resize(kdim, (0, 0.0));
        for (arow, out_row) in edge_rows {
            // Branch-free: every term is written, and the count only advances past a
            // nonzero one (about half the inputs of a ReLU layer are zero, at random).
            let mut len = 0;
            for (kk, &v) in arow.iter().enumerate() {
                nonzero[len] = (kk * n, v);
                len += usize::from(v != 0.0);
            }
            edge_row::<W, H>(nonzero[..len].iter().copied(), b, out_row, n);
        }
        NONZERO_TERMS.set(nonzero);
    } else {
        for (arow, out_row) in edge_rows {
            edge_row::<W, H>(row_terms(arow, n), b, out_row, n);
        }
    }
}

/// `acc[rows[r]][l0..l0+L] += a[.., j0+r]ᵀ · b` for one register tile of `R`
/// accumulator rows × `L` lanes, each element seeded from the accumulator and advanced
/// in strict ascending-`i` order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tn_tile<const R: usize, const L: usize>(
    a: &[f64],
    b: &[f64],
    acc: &mut [f64],
    m: usize,
    ja: usize,
    n: usize,
    j0: usize,
    rows: [usize; R],
    l0: usize,
) {
    let mut tile = [[0.0f64; L]; R];
    for (tile_row, &j) in tile.iter_mut().zip(&rows) {
        tile_row.copy_from_slice(&acc[j * n + l0..j * n + l0 + L]);
    }
    for i in 0..m {
        let brow = &b[i * n + l0..i * n + l0 + L];
        for (r, tile_row) in tile.iter_mut().enumerate() {
            let av = a[i * ja + j0 + r];
            for (s, &bv) in tile_row.iter_mut().zip(brow) {
                *s += av * bv;
            }
        }
    }
    for (tile_row, &j) in tile.iter().zip(&rows) {
        acc[j * n + l0..j * n + l0 + L].copy_from_slice(tile_row);
    }
}

/// The `R` accumulator rows `rows`, fed by the columns `j0..j0+R` of `a`, × `NR`-lane
/// tiles, then [`TAIL_LANES`]-lane ones, then scalar edge columns, of
/// [`gemm_tn_acc_body`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tn_rows<const R: usize, const NR: usize>(
    a: &[f64],
    b: &[f64],
    acc: &mut [f64],
    m: usize,
    ja: usize,
    n: usize,
    j0: usize,
    rows: [usize; R],
) {
    let mut l0 = 0;
    while l0 + NR <= n {
        tn_tile::<R, NR>(a, b, acc, m, ja, n, j0, rows, l0);
        l0 += NR;
    }
    while l0 + TAIL_LANES <= n {
        tn_tile::<R, TAIL_LANES>(a, b, acc, m, ja, n, j0, rows, l0);
        l0 += TAIL_LANES;
    }
    for (r, j) in rows.into_iter().enumerate() {
        for l in l0..n {
            let mut s = acc[j * n + l];
            for i in 0..m {
                s += a[i * ja + j0 + r] * b[i * n + l];
            }
            acc[j * n + l] = s;
        }
    }
}

/// `acc += aᵀ · b` with column `j` of `a` (`m × ja`) feeding accumulator row
/// `rows(j)`: [`MR`]-row tiles, then single rows.
#[inline(always)]
fn tn_columns<const NR: usize>(
    a: &[f64],
    b: &[f64],
    acc: &mut [f64],
    m: usize,
    ja: usize,
    n: usize,
    rows: impl Fn(usize) -> usize,
) {
    let j_full = ja - ja % MR;
    for j0 in (0..j_full).step_by(MR) {
        tn_rows::<MR, NR>(
            a,
            b,
            acc,
            m,
            ja,
            n,
            j0,
            std::array::from_fn(|r| rows(j0 + r)),
        );
    }
    for j in j_full..ja {
        tn_rows::<1, NR>(a, b, acc, m, ja, n, j, [rows(j)]);
    }
}

/// Blocked `acc[j, l] += Σ_i a[i, j] · b[i, l]` (`aᵀ · b` accumulated into `acc`):
/// register tiles of [`MR`] output rows (columns `j` of `a`) × `NR` lanes, then
/// narrower edges, each element advancing in strict ascending-`i` order seeded from the
/// existing accumulator value — exactly the incremental `+=` of the scalar reference
/// loop. `a` is `m × ja` row-major, `b` is `m × n` row-major, `acc` is `ja × n`
/// row-major.
///
/// With `SKIP_ZEROS`, at least [`MIN_SKIP_LANES`] lanes and every element of `b`
/// finite (checked here, in one pass over `b`), the columns of `a` that are zero in
/// every row are dropped first: the live ones are gathered into a compact operand, the
/// tiles run over it, and a dead column's accumulator row is left as it is. The dense
/// sum would add only `±0·b` terms to it, which leave it unchanged when `b` is finite
/// and the row holds no `−0.0` (see the module docs).
#[inline(always)]
fn gemm_tn_acc_body<const NR: usize, const SKIP_ZEROS: bool>(
    a: &[f64],
    b: &[f64],
    acc: &mut [f64],
    m: usize,
    ja: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * ja);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(acc.len(), ja * n);
    let finite = || b.iter().fold(true, |finite, v| finite & v.is_finite());
    if !SKIP_ZEROS || n < MIN_SKIP_LANES || !finite() {
        tn_columns::<NR>(a, b, acc, m, ja, n, |j| j);
        return;
    }
    // Taken out of the thread-local for the product, like `NT_PANEL`.
    let (mut cols, mut gathered) = LIVE_COLUMNS.take();
    // Flag every column with a nonzero element, then compact the flags in place into
    // the live column indices (index `j` is read before any write reaches it).
    cols.clear();
    cols.resize(ja, 0);
    for row in a.chunks_exact(ja) {
        for (flag, &v) in cols.iter_mut().zip(row) {
            *flag |= usize::from(v != 0.0);
        }
    }
    let mut live = 0;
    for j in 0..ja {
        let flag = cols[j];
        cols[live] = j;
        live += flag;
    }
    if live == ja {
        tn_columns::<NR>(a, b, acc, m, ja, n, |j| j);
    } else if live > 0 {
        gathered.clear();
        for row in a.chunks_exact(ja) {
            gathered.extend(cols[..live].iter().map(|&j| row[j]));
        }
        tn_columns::<NR>(&gathered, b, acc, m, live, n, |j| cols[j]);
    }
    LIVE_COLUMNS.set((cols, gathered));
}

/// `O` dot products `Σ_k x_k · y_k` sharing the left operand `x`, each in
/// [`DOT_LANES`] interleaved partial sums (lane `c` takes the terms with
/// `k ≡ c (mod DOT_LANES)`, each in ascending-`k` order) combined by a fixed balanced
/// tree. The reduction order is a pure function of the length — not of `O` — so
/// `matmul_nt` results are independent of batch size, tiling and thread count.
#[inline(always)]
fn dot_lanes<const O: usize>(x: &[f64], ys: [&[f64]; O]) -> [f64; O] {
    assert!(ys.iter().all(|y| y.len() == x.len()), "dot length mismatch");
    let (x_chunks, x_tail) = x.as_chunks::<DOT_LANES>();
    let chunks = x_chunks.len();
    // Cut every operand to exactly `chunks` chunks so indexing needs no bounds checks.
    let y_chunks = ys.map(|y| &y.as_chunks::<DOT_LANES>().0[..chunks]);
    let mut lanes = [[0.0f64; DOT_LANES]; O];
    for (t, xs) in x_chunks.iter().enumerate() {
        for (lane_set, yc) in lanes.iter_mut().zip(&y_chunks) {
            for (lane, (&xv, &yv)) in lane_set.iter_mut().zip(xs.iter().zip(&yc[t])) {
                *lane += xv * yv;
            }
        }
    }
    for (lane_set, y) in lanes.iter_mut().zip(&ys) {
        let y_tail = &y[chunks * DOT_LANES..];
        for (lane, (&xv, &yv)) in lane_set.iter_mut().zip(x_tail.iter().zip(y_tail)) {
            *lane += xv * yv;
        }
    }
    lanes.map(|l| {
        let q0 = (l[0] + l[1]) + (l[2] + l[3]);
        let q1 = (l[4] + l[5]) + (l[6] + l[7]);
        q0 + q1
    })
}

/// `out[i0..i0+MR][l0..l0+NR] = a · bᵀ` for one register tile, from `panel`, the
/// rows `l0..l0+NR` of `b` packed as columns (`panel[k][o] = b[l0+o, k]`). Each
/// interleaved partial sum `c` of [`dot_lanes`] runs as its own [`MR`] × `NR` pass over
/// the terms `k ≡ c (mod DOT_LANES)` in ascending order — a broadcast of `a[i, k]`
/// times a contiguous panel row, as in [`tile_mr`] — and the lanes are combined by the
/// same fixed tree, so every output has the bits of [`dot_lanes`]. With `live`, lane
/// pass `c` walks only the block's live `(k, [a_{i0,k}, ..])` terms of list `c`
/// ([`BlockTerms`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn nt_tile<const NR: usize>(
    a: &[f64],
    live: Option<(&BlockTerms, usize)>,
    panel: &[[f64; NR]],
    out: &mut [f64],
    kdim: usize,
    n: usize,
    i0: usize,
    l0: usize,
) {
    let mut lanes = [[[0.0f64; NR]; MR]; DOT_LANES];
    for (c, lane) in lanes.iter_mut().enumerate() {
        let mut acc = [[0.0f64; NR]; MR];
        match live {
            Some((blocks, block)) => {
                for &(kk, av) in blocks.list(block, c) {
                    add_term(&mut acc, av, &panel[kk]);
                }
            }
            None => {
                for kk in (c..kdim).step_by(DOT_LANES) {
                    let prow = &panel[kk];
                    for (r, acc_row) in acc.iter_mut().enumerate() {
                        let av = a[(i0 + r) * kdim + kk];
                        for (s, &pv) in acc_row.iter_mut().zip(prow) {
                            *s += av * pv;
                        }
                    }
                }
            }
        }
        *lane = acc;
    }
    for r in 0..MR {
        let out_row = &mut out[(i0 + r) * n + l0..(i0 + r) * n + l0 + NR];
        for (o, dst) in out_row.iter_mut().enumerate() {
            let l = |c: usize| lanes[c][r][o];
            *dst = ((l(0) + l(1)) + (l(2) + l(3))) + ((l(4) + l(5)) + (l(6) + l(7)));
        }
    }
}

/// `out = a · bᵀ` (`m × k` times (`n × k`)ᵀ, all row-major, `out` overwritten):
/// `out[i, l] = dot(a.row(i), b.row(l))`, each dot in the fixed interleaved-lane order
/// of [`dot_lanes`]. Each block of `NR` outputs is packed into a panel once and its
/// [`MR`]-row tiles run through [`nt_tile`]; the edge rows and the edge outputs run
/// [`NT_OUTS`] dot products per pass over `a.row(i)`, then single ones.
///
/// With `SKIP_ZEROS`, each [`MR`]-row block of a product at least [`MIN_SKIP_LANES`]
/// wide first collects, per partial-sum lane, the `k` where any of its rows is nonzero
/// ([`BlockTerms`]), and each lane pass of its tiles walks only those. A block with no
/// all-zero `k` runs the dense tiles. As for [`gemm_nn_body`], that keeps the bits
/// when every element of `b` is finite.
#[inline(always)]
fn gemm_nt_body<const NR: usize, const SKIP_ZEROS: bool>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    kdim: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), n * kdim);
    debug_assert_eq!(out.len(), m * n);
    let (m_tiled, n_tiled) = if m >= MR {
        (m - m % MR, n - n % NR)
    } else {
        (0, 0)
    };
    if n_tiled > 0 {
        // Taken out of the thread-locals for the product (no closure, so the packing
        // and the tiles compile at this body's instruction-set level).
        let mut buffer = NT_PANEL.take();
        let blocks = (SKIP_ZEROS && n >= MIN_SKIP_LANES)
            .then(|| BlockTerms::take(a, m_tiled / MR, kdim, DOT_LANES, 1));
        buffer.resize_for_overwrite(kdim * NR);
        let panel = buffer.as_chunks_mut::<NR>().0;
        for l0 in (0..n_tiled).step_by(NR) {
            for (o, b_row) in b[l0 * kdim..(l0 + NR) * kdim]
                .chunks_exact(kdim)
                .enumerate()
            {
                for (column, &v) in panel.iter_mut().zip(b_row) {
                    column[o] = v;
                }
            }
            for i0 in (0..m_tiled).step_by(MR) {
                let live = blocks.as_ref().and_then(|t| t.skipping(i0 / MR));
                nt_tile::<NR>(a, live, panel, out, kdim, n, i0, l0);
            }
        }
        NT_PANEL.set(buffer);
        if let Some(blocks) = blocks {
            BLOCK_TERMS.set(blocks);
        }
    }
    let b_row = |l: usize| &b[l * kdim..(l + 1) * kdim];
    for i in 0..m {
        let a_row = &a[i * kdim..(i + 1) * kdim];
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut l0 = if i < m_tiled { n_tiled } else { 0 };
        while l0 + NT_OUTS <= n {
            let dots = dot_lanes::<NT_OUTS>(a_row, std::array::from_fn(|o| b_row(l0 + o)));
            out_row[l0..l0 + NT_OUTS].copy_from_slice(&dots);
            l0 += NT_OUTS;
        }
        for (l, o) in out_row.iter_mut().enumerate().skip(l0) {
            *o = dot_lanes::<1>(a_row, [b_row(l)])[0];
        }
    }
}

/// The kernel bodies compiled with AVX2 or AVX-512F enabled. Only the feature gates
/// differ from the baseline instantiations; `fma` stays disabled at every level.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{gemm_nn_body, gemm_nt_body, gemm_tn_acc_body};

    macro_rules! with_feature {
        ($($name:ident = $body:ident$(::<$($w:literal),+>)? @ $feature:literal;)*) => {$(
            #[doc = concat!("`", stringify!($body), "` compiled with `", $feature, "` enabled.")]
            ///
            /// # Safety
            #[doc = concat!("The CPU must support `", $feature, "`: call only for an `Isa` level")]
            /// that `Isa::supported` reported.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $name(
                a: &[f64],
                b: &[f64],
                out: &mut [f64],
                m: usize,
                k: usize,
                n: usize,
            ) {
                $body$(::<$($w),+>)?(a, b, out, m, k, n)
            }
        )*};
    }

    with_feature! {
        gemm_nn_avx2 = gemm_nn_body::<32, 16, 8, false> @ "avx2";
        gemm_nn_avx512 = gemm_nn_body::<128, 64, 16, false> @ "avx512f";
        gemm_nn_skip_avx2 = gemm_nn_body::<32, 16, 8, true> @ "avx2";
        gemm_nn_skip_avx512 = gemm_nn_body::<128, 64, 16, true> @ "avx512f";
        gemm_tn_acc_avx2 = gemm_tn_acc_body::<8, false> @ "avx2";
        gemm_tn_acc_avx512 = gemm_tn_acc_body::<16, false> @ "avx512f";
        gemm_tn_acc_skip_avx2 = gemm_tn_acc_body::<8, true> @ "avx2";
        gemm_tn_acc_skip_avx512 = gemm_tn_acc_body::<16, true> @ "avx512f";
        gemm_nt_avx2 = gemm_nt_body::<8, false> @ "avx2";
        gemm_nt_avx512 = gemm_nt_body::<16, false> @ "avx512f";
        gemm_nt_skip_avx2 = gemm_nt_body::<8, true> @ "avx2";
        gemm_nt_skip_avx512 = gemm_nt_body::<16, true> @ "avx512f";
    }
}

/// One product kernel at every level, dense and zero-skipping:
/// `$name(isa, skip_zeros, a, b, out, m, k, n)` calls the `$body` instantiation of
/// level `isa`, skipping zero terms when `skip_zeros` is set.
macro_rules! dispatch {
    ($(
        $(#[$doc:meta])*
        $name:ident = $body:ident<$($base:literal),+> {
            $avx2:ident, $skip_avx2:ident, $avx512:ident, $skip_avx512:ident $(,)?
        }
    )*) => {$(
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        fn $name(
            isa: Isa,
            skip_zeros: bool,
            a: &[f64],
            b: &[f64],
            out: &mut [f64],
            m: usize,
            k: usize,
            n: usize,
        ) {
            match (isa, skip_zeros) {
                (Isa::Baseline, false) => $body::<$($base),+, false>(a, b, out, m, k, n),
                (Isa::Baseline, true) => $body::<$($base),+, true>(a, b, out, m, k, n),
                // SAFETY: an `Isa::Avx2` value only exists once
                // `is_x86_feature_detected!("avx2")` returned true (`Isa::supported`).
                #[cfg(target_arch = "x86_64")]
                (Isa::Avx2, false) => unsafe { x86::$avx2(a, b, out, m, k, n) },
                // SAFETY: as above.
                #[cfg(target_arch = "x86_64")]
                (Isa::Avx2, true) => unsafe { x86::$skip_avx2(a, b, out, m, k, n) },
                // SAFETY: an `Isa::Avx512` value only exists once
                // `is_x86_feature_detected!("avx512f")` returned true (`Isa::supported`).
                #[cfg(target_arch = "x86_64")]
                (Isa::Avx512, false) => unsafe { x86::$avx512(a, b, out, m, k, n) },
                // SAFETY: as above.
                #[cfg(target_arch = "x86_64")]
                (Isa::Avx512, true) => unsafe { x86::$skip_avx512(a, b, out, m, k, n) },
            }
        }
    )*};
}

dispatch! {
    /// [`gemm_nn_body`] at level `isa`.
    gemm_nn = gemm_nn_body<16, 8, 8> {
        gemm_nn_avx2, gemm_nn_skip_avx2, gemm_nn_avx512, gemm_nn_skip_avx512,
    }
    /// [`gemm_tn_acc_body`] at level `isa` (`out` is the accumulator, `k` its rows).
    gemm_tn_acc = gemm_tn_acc_body<8> {
        gemm_tn_acc_avx2, gemm_tn_acc_skip_avx2, gemm_tn_acc_avx512, gemm_tn_acc_skip_avx512,
    }
    /// [`gemm_nt_body`] at level `isa`.
    gemm_nt = gemm_nt_body<8> {
        gemm_nt_avx2, gemm_nt_skip_avx2, gemm_nt_avx512, gemm_nt_skip_avx512,
    }
}

/// A dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: AlignedBuf,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: AlignedBuf::zeroed(rows * cols),
        }
    }

    /// Create a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Create a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if the vector length does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        Self {
            rows,
            cols,
            data: AlignedBuf::from_slice(&data),
        }
    }

    /// Create a 1×n row matrix from a slice.
    pub fn row_from_slice(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "matrix dimensions must be positive");
        Self {
            rows: 1,
            cols: values.len(),
            data: AlignedBuf::from_slice(values),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Set the element at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// A view of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A mutable view of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Reshape in place to `rows × cols`, reusing the existing allocation, and zero the
    /// contents (the shape every accumulating product expects).
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn reset_to(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        self.rows = rows;
        self.cols = cols;
        self.data.resize_zeroed(rows * cols);
    }

    /// Reshape in place without zeroing (the caller overwrites every element). Keeps
    /// stale contents in the buffer, so this stays private to the kernels.
    fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        self.rows = rows;
        self.cols = cols;
        self.data.resize_for_overwrite(rows * cols);
    }

    /// Copy another matrix's shape and contents into this one, reusing the allocation.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.assign(&other.data);
    }

    /// Matrix product `self · other` written into `out` (reshaped as needed, allocation
    /// reused). The workhorse behind [`Matrix::matmul`] for preallocated pipelines.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.product_into(other, out, false);
    }

    /// [`Matrix::matmul_into`] skipping the terms of zero elements of `self`: the same
    /// bits, provided every element of `finite` is finite. A non-finite element of
    /// `finite` facing a zero of `self` would make the dense product NaN and this one
    /// not, so callers must hold a proof of finiteness.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub(crate) fn matmul_into_skipping_zeros(&self, finite: &Matrix, out: &mut Matrix) {
        self.product_into(finite, out, true);
    }

    fn product_into(&self, other: &Matrix, out: &mut Matrix, skip_zeros: bool) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reshape_for_overwrite(self.rows, other.cols);
        gemm_nn(
            Isa::current(),
            skip_zeros,
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Accumulate the transpose-free product `selfᵀ · other` into `acc` (which must
    /// already have the `cols × other.cols` shape), without materialising the
    /// transposed copy: the backward pass's `dL/dW += inputᵀ · dL/dz`, written straight
    /// into the gradient buffer with no temporary.
    ///
    /// # Panics
    /// Panics if shapes are inconsistent.
    pub fn matmul_tn_acc(&self, other: &Matrix, acc: &mut Matrix) {
        self.tn_acc(other, acc, false);
    }

    /// [`Matrix::matmul_tn_acc`] leaving alone the accumulator rows of the columns of
    /// `self` that are zero in every row while every element of `other` is finite (it
    /// checks, and runs the dense loop otherwise): the same bits, provided no element
    /// of `acc` is `−0.0` (the dense sum would add `±0` terms, which turn a `−0.0` into
    /// `+0.0`; with a non-finite `other`, a `0·∞` into NaN).
    ///
    /// # Panics
    /// Panics if shapes are inconsistent.
    pub(crate) fn matmul_tn_acc_skipping_zeros(&self, other: &Matrix, acc: &mut Matrix) {
        self.tn_acc(other, acc, true);
    }

    fn tn_acc(&self, other: &Matrix, acc: &mut Matrix, skip_zeros: bool) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn dimension mismatch: {}x{}ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (acc.rows, acc.cols),
            (self.cols, other.cols),
            "matmul_tn accumulator shape mismatch"
        );
        gemm_tn_acc(
            Isa::current(),
            skip_zeros,
            &self.data,
            &other.data,
            &mut acc.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Transpose-free product `self · otherᵀ` (a `rows × other.rows` result), without
    /// materialising the transposed copy; this is the backward pass's
    /// `dL/d(input) = dL/dz · Wᵀ`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `self · otherᵀ` written into `out` (reshaped as needed, allocation reused).
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        self.nt_into(other, out, false);
    }

    /// [`Matrix::matmul_nt_into`] skipping the terms of zero elements of `self`: the
    /// same bits, provided every element of `finite` is finite (as for
    /// [`Matrix::matmul_into_skipping_zeros`]).
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub(crate) fn matmul_nt_into_skipping_zeros(&self, finite: &Matrix, out: &mut Matrix) {
        self.nt_into(finite, out, true);
    }

    fn nt_into(&self, other: &Matrix, out: &mut Matrix, skip_zeros: bool) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt dimension mismatch: {}x{} · {}x{}ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reshape_for_overwrite(self.rows, other.rows);
        gemm_nt(
            Isa::current(),
            skip_zeros,
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
        );
    }

    /// Transposed copy (the explicit reference of the transpose-free products' tests).
    #[cfg(test)]
    fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut out = self.clone();
        out.map_assign(f);
        out
    }

    /// Element-wise map in place (e.g. applying an activation to a preallocated
    /// pre-activation buffer). Identical per-element results to [`Matrix::map`].
    pub fn map_assign(&mut self, f: impl Fn(f64) -> f64) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// Element-wise combination in place: every element `x` becomes `f(x, y)` with `y`
    /// the element at the same position of `other`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn zip_map_assign(&mut self, other: &Matrix, f: impl Fn(f64, f64) -> f64) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Add a row vector (e.g. a bias) to every row.
    ///
    /// # Panics
    /// Panics if the vector length does not equal the column count.
    pub fn add_row_broadcast(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "broadcast length mismatch");
        for i in 0..self.rows {
            for (a, &b) in self.row_mut(i).iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// Column-wise sums (used for bias gradients) written into `sums` (resized to the
    /// column count, allocation reused). Each sum starts from `0.0` and adds the rows in
    /// order.
    pub fn column_sums_into(&self, sums: &mut Vec<f64>) {
        sums.clear();
        sums.resize(self.cols, 0.0);
        for i in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(i)) {
                *s += v;
            }
        }
    }

    /// Index of the maximum element of row `i`.
    pub fn row_argmax(&self, i: usize) -> usize {
        let row = self.row(i);
        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        best
    }

    /// Frobenius norm (root of the sum of squared elements).
    #[cfg(test)]
    pub(crate) fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_fn_and_set() {
        let mut m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(1, 1), 11.0);
        m.set(0, 0, 7.0);
        assert_eq!(m.get(0, 0), 7.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn matmul_into_reuses_and_matches() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Matrix::zeros(5, 5); // wrong shape on purpose: reset_to reshapes
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Run again into the same buffer: contents must not accumulate.
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 4, (1..=12).map(f64::from).collect());
        let mut acc = Matrix::zeros(2, 4);
        a.matmul_tn_acc(&b, &mut acc);
        assert_eq!(acc, a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_tn_acc_accumulates() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let mut acc = Matrix::zeros(2, 2);
        a.matmul_tn_acc(&b, &mut acc);
        a.matmul_tn_acc(&b, &mut acc);
        let once = a.transpose().matmul(&b);
        let mut doubled = once.clone();
        doubled.add_assign(&once);
        assert_eq!(acc, doubled);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 0.0, -1.0]);
        let b = Matrix::from_vec(4, 3, (1..=12).map(f64::from).collect());
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn copy_from_and_reset_reuse_the_allocation() {
        let src = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut dst = Matrix::zeros(1, 8);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.reset_to(2, 3);
        assert_eq!(dst.rows(), 2);
        assert_eq!(dst.cols(), 3);
        assert!(dst.data().iter().all(|&x| x == 0.0));
    }

    /// Whether `m`'s first element sits on a 64-byte boundary.
    fn starts_on_a_cache_line(m: &Matrix) -> bool {
        m.data().as_ptr().addr().is_multiple_of(64)
    }

    #[test]
    fn storage_starts_on_a_cache_line_after_every_construction_and_reshape() {
        // Every matrix is kept alive, so the allocator hands out starts at every
        // 16-byte offset of a cache line.
        let mut kept = Vec::new();
        for len in 1..=40 {
            let values: Vec<f64> = (0..len).map(|i| i as f64 - 3.5).collect();
            let from_vec = Matrix::from_vec(1, len, values.clone());
            assert_eq!(from_vec.data(), &values[..]);
            let row = Matrix::row_from_slice(&values);
            assert_eq!(row, from_vec);
            let clone = from_vec.clone();
            assert_eq!(clone, from_vec);
            let mut copy = Matrix::zeros(1, 1);
            copy.copy_from(&from_vec);
            assert_eq!(copy, from_vec);
            let mut reset = Matrix::zeros(1, 1);
            reset.reset_to(len, 3);
            assert!(reset.data().iter().all(|&x| x.to_bits() == 0));
            let grown = reset.data().as_ptr();
            let mut reshaped = Matrix::zeros(1, 1);
            reshaped.reshape_for_overwrite(len, 5);
            for m in [
                Matrix::zeros(len, 2),
                Matrix::from_fn(2, len, |i, j| (i * len + j) as f64),
                from_vec,
                row,
                clone,
                copy,
                reset.clone(),
                reshaped,
            ] {
                assert!(starts_on_a_cache_line(&m), "{len}: {m:?}");
                kept.push(m);
            }
            // Shrinking keeps the allocation and its boundary.
            reset.reset_to(1, 1);
            assert!(starts_on_a_cache_line(&reset));
            assert_eq!(reset.data().as_ptr(), grown);
            reset.reset_to(len, 3);
            assert_eq!(reset.data().as_ptr(), grown);
            kept.push(reset);
        }
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_operations() {
        let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, -4.0, 6.0]);
        let mut c = a.clone();
        c.zip_map_assign(&b, |x, y| x * 10.0 + y);
        assert_eq!(c.data(), &[20.0, 0.0, 60.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[11.0, 18.0, 33.0]);
        c.map_assign(|x| x * 0.5);
        assert_eq!(c.data(), &[5.5, 9.0, 16.5]);
    }

    #[test]
    fn broadcast_and_column_sums() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        m.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(m.data(), &[11.0, 22.0, 13.0, 24.0]);
        let mut sums = vec![7.0; 5];
        m.column_sums_into(&mut sums);
        assert_eq!(sums, vec![24.0, 46.0]);
    }

    #[test]
    fn row_statistics() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 5.0, 3.0, -1.0, -5.0, -3.0]);
        assert_eq!(m.row_argmax(0), 1);
        assert_eq!(m.row_argmax(1), 0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        Matrix::zeros(0, 3);
    }

    #[test]
    fn zero_times_non_finite_poisons_the_product() {
        // IEEE 754: 0·∞ and 0·NaN are NaN. The old kernels skipped zero left-hand
        // operands ("sparse" shortcut) and silently produced 0 instead.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let inf = Matrix::from_vec(2, 1, vec![f64::INFINITY, 2.0]);
        let nan = Matrix::from_vec(2, 1, vec![f64::NAN, 2.0]);
        assert!(a.matmul(&inf).get(0, 0).is_nan());
        assert!(a.matmul(&nan).get(0, 0).is_nan());
        let mut out = Matrix::zeros(1, 1);
        a.matmul_into(&inf, &mut out);
        assert!(out.get(0, 0).is_nan());

        // aᵀ · b with a zero in the transposed operand row hitting a non-finite b.
        let left = Matrix::from_vec(1, 2, vec![0.0, 3.0]);
        let right = Matrix::from_vec(1, 1, vec![f64::INFINITY]);
        let mut acc = Matrix::zeros(2, 1);
        left.matmul_tn_acc(&right, &mut acc);
        assert!(acc.get(0, 0).is_nan(), "0·∞ must be NaN in matmul_tn_acc");
        assert!(acc.get(1, 0).is_infinite());

        // a · bᵀ where the zero lane of a meets an infinite lane of b.
        let bt = Matrix::from_vec(1, 2, vec![f64::INFINITY, 0.5]);
        assert!(a.matmul_nt(&bt).get(0, 0).is_nan());
    }

    /// The scalar reference loop of the blocked NN kernels (strict ascending-k).
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0f64;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    /// The scalar reference loop of `acc += aᵀ · b` (strict ascending row order, seeded
    /// from the accumulator).
    fn reference_tn_acc(a: &Matrix, b: &Matrix, acc: &mut Matrix) {
        for j in 0..a.cols() {
            for l in 0..b.cols() {
                let mut s = acc.get(j, l);
                for i in 0..a.rows() {
                    s += a.get(i, j) * b.get(i, l);
                }
                acc.set(j, l, s);
            }
        }
    }

    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}"
        );
        for (x, y) in got.data().iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} diverged");
        }
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_scalar_reference_on_ragged_shapes() {
        // Shapes straddling every tile boundary: < MR/NR, exact multiples, and
        // multiples plus remainders.
        let mut shapes = vec![
            (1, 1, 1),
            (1, 15, 32),
            (3, 7, 5),
            (4, 8, 8),
            (5, 9, 17),
            (9, 13, 19),
            (12, 32, 24),
        ];
        // Widths on both sides of the 16-lane tile, its 8-lane tail and the scalar
        // edge columns, at row counts below, at and above the 4-row tile.
        for rows in [3, 4, 5, 8, 9] {
            for width in [15, 16, 17, 31, 32, 33, 48] {
                shapes.push((rows, 11, width));
            }
        }
        for isa in Isa::supported() {
            FORCED_ISA.with(|forced| forced.set(Some(isa)));
            for &(m, k, n) in &shapes {
                let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 7) as f64 * 0.37).sin());
                let b = Matrix::from_fn(k, n, |i, j| ((i * 13 + j * 11) as f64 * 0.23).cos());
                let what = format!("{isa:?} {m}x{k}·{k}x{n}");
                assert_same_bits(&a.matmul(&b), &reference_matmul(&a, &b), &what);
                let mut out = Matrix::from_fn(2, 3, |_, _| f64::NAN);
                a.matmul_into(&b, &mut out);
                assert_same_bits(&out, &reference_matmul(&a, &b), &what);

                // aᵀ · b with `a` read as m × k: k accumulator rows of n lanes.
                let b = Matrix::from_fn(m, n, |i, j| ((i * 5 + j * 3) as f64 * 0.71).cos());
                let seed = Matrix::from_fn(k, n, |i, j| ((i + j * 19) as f64 * 0.11).sin());
                let mut acc = seed.clone();
                a.matmul_tn_acc(&b, &mut acc);
                let mut reference = seed;
                reference_tn_acc(&a, &b, &mut reference);
                assert_same_bits(&acc, &reference, &format!("{what} TN"));
                // The same products with the tile rows running over n instead of k.
                let wide = Matrix::from_fn(m, n, |i, j| ((i * 3 + j) as f64 * 0.29).sin());
                let narrow = Matrix::from_fn(m, k, |i, j| ((i + j * 2) as f64 * 0.53).cos());
                let mut acc = Matrix::zeros(n, k);
                wide.matmul_tn_acc(&narrow, &mut acc);
                let mut reference = Matrix::zeros(n, k);
                reference_tn_acc(&wide, &narrow, &mut reference);
                assert_same_bits(&acc, &reference, &format!("{what} TN rows"));
            }
            FORCED_ISA.with(|forced| forced.set(None));
        }
    }
}

/// Every instruction-set level the host supports, pinned bit-identical to the scalar
/// references of `tests/kernel_properties.rs` on shapes straddling each level's tile
/// edges, and the paper network pinned bit-identical across levels end to end.
#[cfg(test)]
mod isa_tests {
    use super::*;
    use crate::dueling::DuelingQNetwork;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Output widths straddling the single-row tile widths (16/32/128) and their halves
    /// (8/16/64), the 4-row tile widths (8/16) and the 8-lane tail.
    const EDGE_WIDTHS: [usize; 17] = [
        15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 127, 128, 129, 191, 192, 193, 256,
    ];

    /// Run `f` with every kernel on this thread forced to level `isa`.
    fn at_level<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
        FORCED_ISA.with(|forced| forced.set(Some(isa)));
        let out = f();
        FORCED_ISA.with(|forced| forced.set(None));
        out
    }

    /// Deterministic filler: values in roughly ±2 plus exact zeros.
    fn fill(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let h = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64 * 131);
                if h.is_multiple_of(13) {
                    0.0
                } else {
                    ((h % 10_007) as f64 / 10_007.0 - 0.5) * 4.0
                }
            })
            .collect()
    }

    /// Strict ascending-`k` reference of `a · b`.
    fn reference_nn(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for kk in 0..k {
                    s += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    /// Strict ascending-row reference of `acc += aᵀ · b`.
    fn reference_tn_acc(a: &[f64], b: &[f64], acc: &mut [f64], m: usize, ja: usize, n: usize) {
        for j in 0..ja {
            for l in 0..n {
                let mut s = acc[j * n + l];
                for i in 0..m {
                    s += a[i * ja + j] * b[i * n + l];
                }
                acc[j * n + l] = s;
            }
        }
    }

    /// The 8-lane interleave and balanced combine tree reference of `a · bᵀ`.
    fn reference_nt(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for l in 0..n {
                let mut lanes = [0.0f64; 8];
                for kk in 0..k {
                    lanes[kk % 8] += a[i * k + kk] * b[l * k + kk];
                }
                let q0 = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
                let q1 = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
                out[i * n + l] = q0 + q1;
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn detected_level_is_the_best_supported_one() {
        let levels = Isa::supported();
        assert_eq!(levels.last(), Some(&Isa::Baseline));
        assert_eq!(kernel_isa(), levels[0].name());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn nn_matches_the_scalar_reference_at_every_level(
            dims in (1usize..10, 1usize..40, 0..EDGE_WIDTHS.len(), 0usize..24, 0u64..1_000_000),
        ) {
            // m < 4 runs only the single-row tiles; m ≥ 4 mixes MR tiles and edge rows.
            let (m, k, wi, extra, seed) = dims;
            for n in [EDGE_WIDTHS[wi], extra + 1] {
                let a = fill(m * k, seed);
                let b = fill(k * n, seed ^ 0x5bd1);
                let reference = bits(&reference_nn(&a, &b, m, k, n));
                for isa in Isa::supported() {
                    let mut out = vec![f64::NAN; m * n];
                    gemm_nn(isa, false, &a, &b, &mut out, m, k, n);
                    prop_assert_eq!(bits(&out), reference.clone(), "{:?} {}x{}x{}", isa, m, k, n);
                }
            }
        }

        #[test]
        fn tn_acc_matches_the_scalar_reference_at_every_level(
            dims in (1usize..24, 1usize..14, 0..EDGE_WIDTHS.len(), 0usize..24, 0u64..1_000_000),
        ) {
            let (m, ja, wi, extra, seed) = dims;
            for n in [EDGE_WIDTHS[wi], extra + 1] {
                let a = fill(m * ja, seed);
                let b = fill(m * n, seed ^ 0x94d0);
                let mut reference = fill(ja * n, seed ^ 0x27d4);
                let seeded = reference.clone();
                reference_tn_acc(&a, &b, &mut reference, m, ja, n);
                for isa in Isa::supported() {
                    let mut acc = seeded.clone();
                    gemm_tn_acc(isa, false, &a, &b, &mut acc, m, ja, n);
                    prop_assert_eq!(bits(&acc), bits(&reference), "{:?} {}x{}x{}", isa, m, ja, n);
                }
            }
        }

        #[test]
        fn nt_matches_the_lane_reference_at_every_level(
            dims in (1usize..10, 1usize..70, 0..EDGE_WIDTHS.len(), 0usize..24, 0u64..1_000_000),
        ) {
            // m < 4 runs only the dot products; m ≥ 4 mixes packed-panel tiles, edge
            // rows and edge outputs. n spans n % NT_OUTS ≠ 0 and k spans
            // k % DOT_LANES ≠ 0.
            let (m, k, wi, extra, seed) = dims;
            for n in [EDGE_WIDTHS[wi], extra + 1] {
                let a = fill(m * k, seed);
                let b = fill(n * k, seed ^ 0x1656);
                let reference = bits(&reference_nt(&a, &b, m, k, n));
                for isa in Isa::supported() {
                    let mut out = vec![f64::NAN; m * n];
                    gemm_nt(isa, false, &a, &b, &mut out, m, k, n);
                    prop_assert_eq!(bits(&out), reference.clone(), "{:?} {}x{}x{}", isa, m, k, n);
                }
            }
        }
    }

    /// Rows of ReLU-like inputs: an all-zero row (`+0.0` and `−0.0` alternating),
    /// nonzero runs between runs of `+0.0` and of `−0.0`, and [`fill`] values with a
    /// `−0.0` in every fifth place, by turns.
    fn sparse_fill(m: usize, k: usize, seed: u64) -> Vec<f64> {
        let dense = fill(m * k, seed);
        let mut a = vec![0.0; m * k];
        for i in 0..m {
            for kk in 0..k {
                let signed_zero = if kk % 2 == 0 { 0.0 } else { -0.0 };
                a[i * k + kk] = match (i + seed as usize) % 3 {
                    0 => signed_zero,
                    1 if (kk / 3) % 3 == 1 => 0.0,
                    1 if (kk / 3) % 3 == 2 => -0.0,
                    2 if kk % 5 == 4 => -0.0,
                    _ => dense[i * k + kk],
                };
            }
        }
        a
    }

    #[test]
    fn zero_skipping_matches_the_scalar_reference_at_every_level() {
        // m = 5 runs one 4-row tile and one edge row, both zero-skipping.
        for m in [1, 2, 3, 5] {
            for k in EDGE_WIDTHS {
                for n in EDGE_WIDTHS {
                    let seed = (m * 1_000 + k) as u64;
                    let a = sparse_fill(m, k, seed);
                    let b = fill(k * n, seed ^ 0x7f4a);
                    let reference = bits(&reference_nn(&a, &b, m, k, n));
                    for isa in Isa::supported() {
                        let mut out = vec![f64::NAN; m * n];
                        gemm_nn(isa, true, &a, &b, &mut out, m, k, n);
                        assert_eq!(bits(&out), reference, "{isa:?} {m}x{k}x{n}");
                    }
                }
            }
        }
    }

    /// A copy of `values` starting `shift` elements past a 64-byte boundary: read it
    /// as `&copy[shift..]`.
    fn shifted(values: &[f64], shift: usize) -> AlignedBuf {
        let mut copy = AlignedBuf::zeroed(shift + values.len());
        copy[shift..].copy_from_slice(values);
        copy
    }

    #[test]
    fn misaligned_operands_give_the_aligned_bits_at_every_level() {
        // Single rows, edge rows and 4-row blocks, on both sides of MIN_SKIP_LANES.
        for (m, k, n) in [
            (1, 15, 256),
            (3, 256, 128),
            (5, 70, 64),
            (67, 33, 129),
            (64, 128, 24),
        ] {
            let a = sparse_fill(m, k, (m * k) as u64);
            let (b_nn, b_nt, b_tn) = (fill(k * n, 1), fill(n * k, 2), fill(m * n, 3));
            // Finite, with `+0.0`s and no `−0.0`, as TN-acc skipping needs.
            let acc_seed = fill(k * n, 4);
            for isa in Isa::supported() {
                for skip_zeros in [false, true] {
                    // Every operand and output `s` elements past a boundary.
                    let run = |s: usize| {
                        let [a, b_nn, b_nt, b_tn] =
                            [&a, &b_nn, &b_nt, &b_tn].map(|v| shifted(v, s));
                        let [mut nn, mut nt] = [(); 2].map(|()| shifted(&vec![f64::NAN; m * n], s));
                        let mut tn = shifted(&acc_seed, s);
                        gemm_nn(isa, skip_zeros, &a[s..], &b_nn[s..], &mut nn[s..], m, k, n);
                        gemm_nt(isa, skip_zeros, &a[s..], &b_nt[s..], &mut nt[s..], m, k, n);
                        gemm_tn_acc(isa, skip_zeros, &a[s..], &b_tn[s..], &mut tn[s..], m, k, n);
                        [nn, nt, tn].map(|out| bits(&out[s..]))
                    };
                    let aligned = run(0);
                    for shift in 1..8 {
                        assert_eq!(
                            run(shift),
                            aligned,
                            "{isa:?} skip_zeros={skip_zeros} shift={shift} {m}x{k}x{n}"
                        );
                    }
                }
            }
        }
    }

    /// An `m × k` batch of ReLU-like inputs: some columns zero in every row, some
    /// 4-row blocks zero in a column, and half of the other values zero, the zeros
    /// `+0.0` or `−0.0` at random.
    fn relu_batch(m: usize, k: usize, rng: &mut StdRng) -> Matrix {
        let dead: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.3)).collect();
        let mut a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-2.0..2.0));
        for i0 in (0..m).step_by(4) {
            for (kk, &dead) in dead.iter().enumerate() {
                let block_zero = rng.gen_bool(0.2);
                for i in i0..(i0 + 4).min(m) {
                    if dead || block_zero || rng.gen_bool(0.5) {
                        a.set(i, kk, if rng.gen_bool(0.5) { 0.0 } else { -0.0 });
                    }
                }
            }
        }
        a
    }

    #[test]
    fn skipping_products_give_the_dense_bits_at_every_level() {
        let mut rng = StdRng::seed_from_u64(30);
        for case in 0..60 {
            // m spans whole 4-row blocks plus 0–3 edge rows; k spans k % DOT_LANES ≠ 0;
            // n spans every level's tile widths plus ragged edges, on both sides of
            // MIN_SKIP_LANES.
            let m = rng.gen_range(4..=67);
            let k = rng.gen_range(1..=70);
            let n = if case % 2 == 0 {
                EDGE_WIDTHS[case / 2 % EDGE_WIDTHS.len()]
            } else {
                rng.gen_range(1..=200)
            };
            let input = relu_batch(m, k, &mut rng);
            let weights = Matrix::from_fn(k, n, |_, _| rng.gen_range(-1.0..1.0));
            let weights_t = Matrix::from_fn(n, k, |_, _| rng.gen_range(-1.0..1.0));
            let grad_z = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
            // An accumulator of finite values and `+0.0`s, never `−0.0`.
            let seed = Matrix::from_fn(k, n, |_, _| {
                if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            });
            for isa in Isa::supported() {
                let what = format!("{isa:?} {m}x{k}x{n}");
                at_level(isa, || {
                    let (mut dense, mut skipping) = (Matrix::zeros(1, 1), Matrix::zeros(1, 1));
                    input.matmul_into(&weights, &mut dense);
                    input.matmul_into_skipping_zeros(&weights, &mut skipping);
                    assert_eq!(bits(skipping.data()), bits(dense.data()), "NN {what}");
                    input.matmul_nt_into(&weights_t, &mut dense);
                    input.matmul_nt_into_skipping_zeros(&weights_t, &mut skipping);
                    assert_eq!(bits(skipping.data()), bits(dense.data()), "NT {what}");
                    let (mut dense, mut skipping) = (seed.clone(), seed.clone());
                    input.matmul_tn_acc(&grad_z, &mut dense);
                    input.matmul_tn_acc_skipping_zeros(&grad_z, &mut skipping);
                    assert_eq!(bits(skipping.data()), bits(dense.data()), "TN-acc {what}");
                });
            }
        }
    }

    #[test]
    fn zero_times_infinity_is_nan_in_every_tile_at_every_level() {
        // A zero in column 0 of `a` meets an infinite row 0 of `b`: every output of the
        // NN product must be NaN, whichever tile (MR rows, W-lane, NR-lane, scalar edge)
        // computed it.
        let (k, n) = (3, 77);
        for m in [1, 5] {
            let mut a = fill(m * k, 7);
            let mut b = fill(k * n, 11);
            for i in 0..m {
                a[i * k] = 0.0;
            }
            b[..n].fill(f64::INFINITY);
            for isa in Isa::supported() {
                let mut out = vec![0.0; m * n];
                gemm_nn(isa, false, &a, &b, &mut out, m, k, n);
                assert!(out.iter().all(|v| v.is_nan()), "{isa:?} NN m={m}");

                // aᵀ · b: `a` read as (m × k)ᵀ, so row 0 of `at` pairs with row 0 of `bt`.
                let at = a[..k].to_vec();
                let bt = b[..n].to_vec();
                let mut acc = vec![0.0; k * n];
                gemm_tn_acc(isa, false, &at, &bt, &mut acc, 1, k, n);
                assert!(acc[..n].iter().all(|v| v.is_nan()), "{isa:?} TN m={m}");

                // a · bᵀ: lane 0 of every row of `a` is zero; make lane 0 of every row of
                // `b` (n of them, k each) infinite.
                let mut bn = fill(n * k, 13);
                for l in 0..n {
                    bn[l * k] = f64::INFINITY;
                }
                let mut nt = vec![0.0; m * n];
                gemm_nt(isa, false, &a, &bn, &mut nt, m, k, n);
                assert!(nt.iter().all(|v| v.is_nan()), "{isa:?} NT m={m}");
            }
        }
    }

    /// FNV-1a over the bits of every value.
    fn digest(values: &[f64], mut h: u64) -> u64 {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Forward at batch 1, 3 and 64, then one `forward_train` + `backward` at batch 64,
    /// hashing the Q-values, the input gradient and every parameter gradient.
    fn paper_network_digest() -> u64 {
        let mut net = DuelingQNetwork::paper(15, &mut StdRng::seed_from_u64(42));
        let inputs = Matrix::from_vec(64, 15, fill(64 * 15, 3));
        let mut h = 0xcbf2_9ce4_8422_2325;
        for batch in [1, 3, 64] {
            let x = Matrix::from_vec(batch, 15, inputs.data()[..batch * 15].to_vec());
            h = digest(net.forward(&x).data(), h);
        }
        let q = net.forward_train(&inputs);
        h = digest(q.data(), h);
        let grad_q = Matrix::from_vec(64, 2, fill(64 * 2, 5));
        h = digest(net.backward(&grad_q).data(), h);
        for layer in net
            .trunk()
            .iter()
            .chain([net.value_head(), net.advantage_head()])
        {
            h = digest(layer.grad_weights().data(), h);
            h = digest(layer.grad_bias(), h);
        }
        h
    }

    #[test]
    fn paper_network_bits_do_not_depend_on_the_level() {
        let baseline = at_level(Isa::Baseline, paper_network_digest);
        for isa in Isa::supported() {
            assert_eq!(at_level(isa, paper_network_digest), baseline, "{isa:?}");
        }
    }
}
