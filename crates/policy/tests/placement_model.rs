//! `Placement` against a dense model of itself: two `Vec<Vec<_>>`, one
//! source byte and one stored flag per GPU and entry, the layout the
//! placement had before its sources became interned rows and its stored
//! flags bit-rows. Random sequences of writes drive both, on 1, 2, 4 and
//! 8 GPUs and on key spaces that end inside a 64-entry word, and every
//! public reader must answer as the model does, to the bit.

use cache_policy::{BitRow, Hotness, Placement, RowTableFull, SourceIdx};
use gpu_platform::Location;
use proptest::prelude::*;

/// The dense model.
#[derive(Debug, Clone)]
struct Dense {
    access: Vec<Vec<SourceIdx>>,
    stored: Vec<Vec<bool>>,
}

impl Dense {
    fn all_host(g: usize, e: usize) -> Self {
        Dense {
            access: vec![vec![g as SourceIdx; e]; g],
            stored: vec![vec![false; e]; g],
        }
    }

    fn host(&self) -> SourceIdx {
        self.access.len() as SourceIdx
    }

    /// The first GPU (then entry) reading from a GPU that does not store
    /// the entry, in `Placement::validate`'s words.
    fn validate(&self) -> Result<(), String> {
        for (i, row) in self.access.iter().enumerate() {
            for (e, &s) in row.iter().enumerate() {
                if s != self.host() && !self.stored[s as usize][e] {
                    return Err(format!(
                        "GPU{i} reads entry {e} from GPU{s} which does not store it"
                    ));
                }
            }
        }
        Ok(())
    }

    fn split_keys(&self, gpu: usize, keys: &[u32]) -> Vec<(Location, u64)> {
        let g = self.access.len();
        let mut counts = vec![0u64; g + 1];
        for &k in keys {
            counts[self.access[gpu][k as usize] as usize] += 1;
        }
        (0..=g)
            .filter(|&j| counts[j] > 0)
            .map(|j| {
                let loc = if j == g {
                    Location::Host
                } else {
                    Location::Gpu(j)
                };
                (loc, counts[j])
            })
            .collect()
    }

    /// `(local, remote, host)` weight shares, summed in entry order.
    fn access_split(&self, gpu: usize, weights: &[f64]) -> (f64, f64, f64) {
        let total = weights.iter().fold(0.0, |sum, w| sum + w);
        if total <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let (mut local, mut remote, mut host) = (0.0, 0.0, 0.0);
        for (e, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            match self.access[gpu][e] {
                s if s == self.host() => host += w,
                s if s as usize == gpu => local += w,
                _ => remote += w,
            }
        }
        (local / total, remote / total, host / total)
    }
}

/// One write: GPU `gpu` stores entry `entry` or not, or reads it from
/// `src`.
#[derive(Debug, Clone, Copy)]
enum Write {
    Store {
        gpu: usize,
        entry: usize,
        on: bool,
    },
    Read {
        gpu: usize,
        entry: usize,
        src: SourceIdx,
    },
}

/// A write drawn from `bits` on `g` GPUs and `e` entries: stores and
/// reads alike, and a read from a GPU that holds the entry, from one
/// that does not, or from host.
fn write_from(bits: u64, g: usize, e: usize) -> Write {
    let gpu = (bits >> 8) as usize % g;
    let entry = (bits >> 16) as usize % e;
    let src = ((bits >> 40) % (g as u64 + 1)) as SourceIdx;
    if bits & 1 == 0 {
        Write::Store {
            gpu,
            entry,
            on: bits & 2 == 0,
        }
    } else {
        Write::Read { gpu, entry, src }
    }
}

fn apply(p: &mut Placement, model: &mut Dense, write: Write) {
    match write {
        Write::Store { gpu, entry, on } => {
            p.stored[gpu].set(entry, on);
            model.stored[gpu][entry] = on;
        }
        Write::Read { gpu, entry, src } => {
            p.set_source(gpu, entry, src).unwrap();
            model.access[gpu][entry] = src;
        }
    }
}

/// Every public reader of `p` against the model, `keys` as each GPU's
/// batch and `weights` as the hotness.
fn check(p: &Placement, model: &Dense, keys: &[u32], weights: &[f64], what: &str) {
    let (g, e) = (model.access.len(), model.access[0].len());
    assert_eq!((p.num_gpus, p.num_entries), (g, e), "{what}");
    for i in 0..g {
        let access = p.access(i);
        assert_eq!(access.len(), e);
        for k in 0..e {
            assert_eq!(
                p.source(i, k),
                model.access[i][k],
                "{what}: GPU{i} entry {k}"
            );
            assert_eq!(access[k], model.access[i][k], "{what}: GPU{i} entry {k}");
        }
        let bits: Vec<bool> = p.stored[i].iter().collect();
        assert_eq!(bits, model.stored[i], "{what}: GPU{i} stored");
        let flags: Vec<bool> = (&p.stored[i]).into_iter().collect();
        assert_eq!(flags, model.stored[i], "{what}: GPU{i} stored");
        let ones: Vec<usize> = p.stored[i].ones().collect();
        let want: Vec<usize> = (0..e).filter(|&k| model.stored[i][k]).collect();
        assert_eq!(ones, want, "{what}: GPU{i} stored entries");
        assert_eq!(p.cached_count(i), want.len(), "{what}: GPU{i} count");
        assert_eq!(p.split_keys(i, keys), model.split_keys(i, keys), "{what}");
    }
    assert_eq!(p.validate(), model.validate(), "{what}");
    let mut tiers = [0u64; 3];
    for gpu in 0..g {
        for (loc, count) in model.split_keys(gpu, keys) {
            tiers[match loc {
                Location::Gpu(j) if j == gpu => 0,
                Location::Gpu(_) => 1,
                Location::Host => 2,
            }] += count;
        }
    }
    let batches = vec![keys.to_vec(); g];
    assert_eq!(p.tier_keys(&batches), tiers, "{what}");
    let hotness = Hotness::new(weights.to_vec());
    let (mut local, mut global) = (0.0, 0.0);
    for i in 0..g {
        let (l, r, h) = model.access_split(i, weights);
        let got = p.access_split(i, &hotness);
        let bits = |(a, b, c): (f64, f64, f64)| [a.to_bits(), b.to_bits(), c.to_bits()];
        assert_eq!(bits(got), bits((l, r, h)), "{what}: GPU{i} split");
        local += l;
        global += l + r;
    }
    let local = local / g as f64;
    let global = global / g as f64;
    assert_eq!(
        p.local_hit_rate(&hotness).to_bits(),
        local.to_bits(),
        "{what}"
    );
    assert_eq!(
        p.global_hit_rate(&hotness).to_bits(),
        global.to_bits(),
        "{what}"
    );
}

/// The model's contents written into a fresh placement in another
/// order than `apply` wrote them: entries from the last, GPUs from the
/// last, so the rows are interned in another order.
fn rewritten(model: &Dense) -> Placement {
    let (g, e) = (model.access.len(), model.access[0].len());
    let mut p = Placement::all_host(g, e);
    for k in (0..e).rev() {
        for i in (0..g).rev() {
            p.set_source(i, k, model.access[i][k]).unwrap();
            p.stored[i].set(k, model.stored[i][k]);
        }
    }
    p
}

proptest! {
    #[test]
    fn a_placement_reads_as_its_dense_model(
        g_pick in 0usize..4,
        e_pick in 0usize..5,
        writes in prop::collection::vec(0u64..u64::MAX, 0..160),
        key_bits in prop::collection::vec(0u64..u64::MAX, 0..48),
        weight_bits in prop::collection::vec(0u64..16, 200),
    ) {
        let g = [1, 2, 4, 8][g_pick];
        let e = [1, 63, 65, 130, 200][e_pick];
        let keys: Vec<u32> = key_bits.iter().map(|&b| (b % e as u64) as u32).collect();
        // Some weights zero, many alike.
        let weights: Vec<f64> = weight_bits[..e].iter().map(|&b| (b % 5) as f64 * 0.5).collect();
        let mut p = Placement::all_host(g, e);
        let mut model = Dense::all_host(g, e);
        check(&p, &model, &keys, &weights, "all host");
        for (n, &bits) in writes.iter().enumerate() {
            apply(&mut p, &mut model, write_from(bits, g, e));
            if n % 16 == 15 {
                check(&p, &model, &keys, &weights, &format!("after {} writes", n + 1));
            }
        }
        check(&p, &model, &keys, &weights, "at the end");

        // Equal by contents, however the rows were interned.
        let other = rewritten(&model);
        prop_assert_eq!(&other, &p);
        prop_assert_eq!(&p, &other);
        let mut moved = other.clone();
        let src = if model.access[0][e - 1] == 0 { g as SourceIdx } else { 0 };
        moved.set_source(0, e - 1, src).unwrap();
        prop_assert!(moved != p);
        let mut unstored = other;
        let flag = !model.stored[g - 1][0];
        unstored.stored[g - 1].set(0, flag);
        prop_assert!(unstored != p);

        // The other kind of error: `stored` not one row of E bits a GPU.
        let mut short = p.clone();
        short.stored.pop();
        prop_assert!(short.validate().unwrap_err().contains("arity"));
        let mut long = p.clone();
        long.stored[g - 1] = BitRow::new(e + 1);
        prop_assert!(long.validate().unwrap_err().contains("stored row"));
    }
}

#[test]
fn a_full_row_table_is_an_error_that_changes_nothing() {
    // Eight GPUs, each entry's sources the base-9 digits of its id: every
    // entry a row of its own, and every step towards it another.
    let (g, e) = (8, 70_000);
    let mut p = Placement::all_host(g, e);
    let digit = |k: usize, i: usize| (k / 9usize.pow(i as u32) % 9) as SourceIdx;
    let mut full = None;
    'entries: for k in 0..e {
        for i in 0..g {
            let before: Vec<SourceIdx> = (0..g).map(|j| p.source(j, k)).collect();
            match p.set_source(i, k, digit(k, i)) {
                Ok(()) => {}
                Err(err) => {
                    assert_eq!(err, RowTableFull);
                    let after: Vec<SourceIdx> = (0..g).map(|j| p.source(j, k)).collect();
                    assert_eq!(after, before, "entry {k}: a failed write changed it");
                    full = Some(k);
                    break 'entries;
                }
            }
        }
    }
    let k = full.expect("65 537 rows were asked for");
    assert!(k < 65_536, "the table took {k} entries' rows");
    // Every entry before reads as written. A row already in the table can
    // still be written (entry 0's first step interned GPU0 reading
    // itself, the rest host), a new one cannot (GPU7 alone off host is
    // no step towards an id below 9^7).
    for done in [0, 1, k / 2, k - 1] {
        for i in 0..g {
            assert_eq!(p.source(i, done), digit(done, i), "entry {done}");
        }
    }
    p.set_source(0, k + 1, 0).unwrap();
    assert_eq!(p.source(0, k + 1), 0);
    assert_eq!(p.set_source(7, k + 2, 5), Err(RowTableFull));
    p.validate().unwrap_err();
}
