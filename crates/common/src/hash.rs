//! Fast non-cryptographic hashing and key encoding for join/group keys.
//!
//! The engine's hash joins and aggregations are dominated by hashing short
//! integer/string keys, where the std `SipHash` is needlessly slow. This is
//! the well-known `FxHash` multiply-xor scheme (as used by rustc), implemented
//! locally to keep the dependency set minimal.
//!
//! Composite keys come in two physical layouts, chosen per operator by
//! [`FixedKeySpec::plan`]:
//!
//! * **fixed-width** — when every key column is `Int`/`Date`/`Bool`, the key
//!   packs into a single `u64` or `u128` word (one bit-slot per column, with
//!   a validity bit folded in when nulls can occur), so hash maps key on a
//!   machine word instead of a heap-allocated byte string;
//! * **byte-encoded fallback** — strings and mixed numeric keys encode into
//!   one contiguous [`KeyArena`] buffer; maps then key on borrowed `&[u8]`
//!   slices, which costs zero per-row allocations on both build and probe.

use crate::column::Column;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher (FxHash). Not DoS-resistant; keys are internal.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Encodes one scalar into `buf` as a self-delimiting byte string so composite
/// keys can be compared byte-wise. Integers that compare equal to floats do
/// **not** encode equal — callers normalize numeric key columns first.
pub fn encode_value(buf: &mut Vec<u8>, v: &crate::value::Value) {
    use crate::value::Value;
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        // -0.0 and NaN payloads normalize so equal floats encode equal.
        Value::Float(f) => push_f64(buf, *f),
        Value::Bool(b) => buf.extend_from_slice(&[3, u8::from(*b)]),
        Value::Str(s) => {
            buf.push(4);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            buf.push(5);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
}

/// Widens ints/dates/bools to floats so `1 = 1.0` matches across
/// differently-typed key columns (SQL comparison semantics for the
/// byte-encoded key fallback; the fixed-width path never mixes in floats, so
/// it compares integer keys exactly).
pub fn normalize_key(v: crate::value::Value) -> crate::value::Value {
    use crate::value::Value;
    match v {
        Value::Int(i) => Value::Float(i as f64),
        Value::Date(d) => Value::Float(f64::from(d)),
        Value::Bool(b) => Value::Float(f64::from(u8::from(b))),
        other => other,
    }
}

// ---------------- fixed-width key packing ----------------

/// Machine-word width of a packed fixed-width key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyWidth {
    /// Fits in 64 bits.
    U64,
    /// Fits in 128 bits.
    U128,
}

/// One key column's bit-slot inside the packed word.
#[derive(Debug, Clone, Copy)]
struct KeySlot {
    /// Bit offset of the value inside the word.
    shift: u32,
    /// Value width in bits (sign-extended two's complement, masked).
    bits: u32,
    /// Whether a validity bit follows the value bits (group semantics with a
    /// nullable column: NULL keys form their own group).
    null_bit: bool,
}

/// Layout for packing a multi-column fixed-width key into one word.
///
/// Planned jointly over every participating side (one column set for
/// group-by/distinct, two for joins) so position `i` of each side lands in
/// the same slot with the same width: an `Int` joined against a `Date` packs
/// both sides as 64-bit sign-extended values, keeping cross-type equality
/// consistent with the byte-encoded fallback.
#[derive(Debug, Clone)]
pub struct FixedKeySpec {
    slots: Vec<KeySlot>,
    width: KeyWidth,
    total_bits: u32,
}

fn fixed_bits(c: &Column) -> Option<u32> {
    match c {
        Column::Int(..) => Some(64),
        Column::Date(..) => Some(32),
        Column::Bool(..) => Some(1),
        // Dictionary codes are dense u32s — but only comparable when every
        // participating column shares one lineage; `plan` checks that per
        // position before trusting this width.
        Column::DictStr { .. } => Some(32),
        Column::Float(..) | Column::Str(..) => None,
    }
}

/// `true` when position `i`'s columns can compare by dictionary code: either
/// no side is dictionary-encoded, or *every* side is and they share one
/// lineage (versions of one append-only code list: a code means the same
/// string in each, whichever is longer). A mix of encoded and plain strings,
/// or unrelated dictionaries, must fall back to byte keys.
fn dict_codes_comparable(col_sets: &[&[&Column]], i: usize) -> bool {
    let mut shared: Option<&crate::column::Dictionary> = None;
    for set in col_sets {
        match set[i].dict_parts() {
            Some((_, dict, _)) => match shared {
                None => shared = Some(dict),
                Some(d) => {
                    if !d.same_lineage(dict) {
                        return false;
                    }
                }
            },
            None => {
                if shared.is_some() || set[i].dtype() == crate::column::DType::Str {
                    // A plain string column can never pack; if any side is
                    // encoded while another isn't, codes are meaningless.
                    return false;
                }
            }
        }
    }
    true
}

impl FixedKeySpec {
    /// Plans a fixed-width layout for the key columns, or `None` when any
    /// column is `Float`/`Str` or the packed key exceeds 128 bits.
    ///
    /// `col_sets` holds one slice of key columns per participating side —
    /// `&[&keys]` for group-by/distinct, `&[&left_keys, &right_keys]` for
    /// joins. `nulls_matter` selects group semantics (NULL is a key value and
    /// gets a validity bit) over join semantics (NULL keys never match; the
    /// caller skips rows flagged by the pack step instead).
    pub fn plan(col_sets: &[&[&Column]], nulls_matter: bool) -> Option<FixedKeySpec> {
        let ncols = col_sets.first()?.len();
        if col_sets.iter().any(|s| s.len() != ncols) {
            return None;
        }
        let mut slots = Vec::with_capacity(ncols);
        let mut shift = 0u32;
        for i in 0..ncols {
            let mut bits = 0u32;
            let mut nullable = false;
            for set in col_sets {
                bits = bits.max(fixed_bits(set[i])?);
                nullable |= set[i].validity().is_some();
            }
            if !dict_codes_comparable(col_sets, i) {
                return None;
            }
            let null_bit = nulls_matter && nullable;
            slots.push(KeySlot {
                shift,
                bits,
                null_bit,
            });
            shift += bits + u32::from(null_bit);
        }
        let width = match shift {
            0..=64 => KeyWidth::U64,
            65..=128 => KeyWidth::U128,
            _ => return None,
        };
        Some(FixedKeySpec {
            slots,
            width,
            total_bits: shift,
        })
    }

    /// The planned word width.
    pub fn width(&self) -> KeyWidth {
        self.width
    }

    /// Total bits used by the layout (values plus validity bits).
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Packs one side's key columns into `u64` words, column-at-a-time.
    ///
    /// The second return is `Some(skip)` when the layout has no validity bits
    /// but a column is nullable (join semantics): `skip[i]` marks rows whose
    /// key contains a NULL and must not participate in matching.
    pub fn pack_u64(&self, cols: &[&Column]) -> (Vec<u64>, Option<Vec<bool>>) {
        self.pack_generic::<u64>(cols)
    }

    /// Packs one side's key columns into `u128` words; see [`Self::pack_u64`].
    pub fn pack_u128(&self, cols: &[&Column]) -> (Vec<u128>, Option<Vec<bool>>) {
        self.pack_generic::<u128>(cols)
    }

    fn pack_generic<W: KeyWord>(&self, cols: &[&Column]) -> (Vec<W>, Option<Vec<bool>>) {
        let n = cols.first().map_or(0, |c| c.len());
        let mut keys = vec![W::default(); n];
        let mut skip: Option<Vec<bool>> = None;
        for (slot, col) in self.slots.iter().zip(cols) {
            match col {
                Column::Int(d, v) => {
                    pack_col(&mut keys, &mut skip, d, v.as_deref(), slot, |x| x as u64)
                }
                Column::Date(d, v) => pack_col(&mut keys, &mut skip, d, v.as_deref(), slot, |x| {
                    i64::from(x) as u64
                }),
                Column::Bool(d, v) => {
                    pack_col(&mut keys, &mut skip, d, v.as_deref(), slot, u64::from)
                }
                Column::DictStr { codes, valid, .. } => pack_col(
                    &mut keys,
                    &mut skip,
                    codes,
                    valid.as_deref(),
                    slot,
                    u64::from,
                ),
                _ => unreachable!("plan admits only fixed-width dtypes"),
            }
        }
        (keys, skip)
    }
}

/// Word types a fixed-width key can pack into. Sealed to `u64`/`u128`.
trait KeyWord: Copy + Default + std::ops::BitOrAssign {
    fn from_bits(v: u64, shift: u32) -> Self;
    fn bit(pos: u32) -> Self;
}

impl KeyWord for u64 {
    #[inline]
    fn from_bits(v: u64, shift: u32) -> u64 {
        v << shift
    }
    #[inline]
    fn bit(pos: u32) -> u64 {
        1u64 << pos
    }
}

impl KeyWord for u128 {
    #[inline]
    fn from_bits(v: u64, shift: u32) -> u128 {
        u128::from(v) << shift
    }
    #[inline]
    fn bit(pos: u32) -> u128 {
        1u128 << pos
    }
}

/// Monomorphic per-column packing loop: value bits are the sign-extended
/// two's-complement representation masked to the slot width, so equal values
/// of different physical types (Int vs Date) pack identically.
#[inline]
fn pack_col<W: KeyWord, T: Copy>(
    keys: &mut [W],
    skip: &mut Option<Vec<bool>>,
    data: &[T],
    valid: Option<&[bool]>,
    slot: &KeySlot,
    to_bits: impl Fn(T) -> u64,
) {
    let mask = if slot.bits >= 64 {
        u64::MAX
    } else {
        (1u64 << slot.bits) - 1
    };
    match (valid, slot.null_bit) {
        (None, false) => {
            for (k, &v) in keys.iter_mut().zip(data) {
                *k |= W::from_bits(to_bits(v) & mask, slot.shift);
            }
        }
        (None, true) => {
            let nb = W::bit(slot.shift + slot.bits);
            for (k, &v) in keys.iter_mut().zip(data) {
                *k |= W::from_bits(to_bits(v) & mask, slot.shift);
                *k |= nb;
            }
        }
        (Some(vs), true) => {
            // NULL rows leave the slot zero (value bits and validity bit),
            // so all NULLs collide into one key — SQL GROUP BY semantics.
            let nb = W::bit(slot.shift + slot.bits);
            for ((k, &v), &ok) in keys.iter_mut().zip(data).zip(vs) {
                if ok {
                    *k |= W::from_bits(to_bits(v) & mask, slot.shift);
                    *k |= nb;
                }
            }
        }
        (Some(vs), false) => {
            let skip = skip.get_or_insert_with(|| vec![false; keys.len()]);
            for (((k, &v), &ok), s) in keys.iter_mut().zip(data).zip(vs).zip(skip.iter_mut()) {
                if ok {
                    *k |= W::from_bits(to_bits(v) & mask, slot.shift);
                } else {
                    *s = true;
                }
            }
        }
    }
}

// ---------------- byte-encoded key arena (fallback) ----------------

/// Row-major arena of byte-encoded composite keys.
///
/// All rows encode into one contiguous buffer up front; hash maps then key on
/// borrowed `&[u8]` slices (`Copy`, no per-row `Vec<u8>` allocation or clone
/// on either build or probe). This replaces the old
/// `table.entry(buf.clone())` pattern wholesale.
#[derive(Debug)]
pub struct KeyArena {
    buf: Vec<u8>,
    /// Per-row `(start, end)` into `buf`; `start == usize::MAX` marks a row
    /// whose key contains a NULL under join semantics (skipped).
    spans: Vec<(usize, usize)>,
}

const NULL_SPAN: (usize, usize) = (usize::MAX, usize::MAX);

/// How one key position encodes in a [`KeyArena`].
///
/// The SQL engine's byte fallback must partition rows exactly like the packed
/// fast path would, so equality cannot depend on *which* layout got chosen:
/// positions where every participating column is `Int`/`Date`/`Bool` encode
/// as exact sign-extended `i64` (mirroring [`FixedKeySpec`]'s slot
/// unification), positions involving a `Float` widen every numeric to the
/// canonical f64 encoding (SQL `1 = 1.0`), and anything else keeps the raw
/// type-tagged [`encode_value`] layout under which values of different types
/// never compare equal (Pandas semantics; also SQL string positions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyEncoding {
    /// Raw type-tagged encoding (type-sensitive equality).
    Raw,
    /// Exact integer encoding unifying `Int`/`Date`/`Bool`.
    Int64,
    /// Canonical f64 encoding unifying all numerics.
    Float64,
}

/// Per-position [`KeyEncoding`] for SQL comparison semantics, planned jointly
/// over every participating side (like [`FixedKeySpec::plan`]).
pub fn sql_key_encodings(col_sets: &[&[&Column]]) -> Vec<KeyEncoding> {
    let ncols = col_sets.first().map_or(0, |s| s.len());
    (0..ncols)
        .map(|i| {
            let mut any_float = false;
            let mut all_numeric = true;
            for set in col_sets {
                match set[i] {
                    Column::Float(..) => any_float = true,
                    Column::Int(..) | Column::Date(..) | Column::Bool(..) => {}
                    Column::Str(..) | Column::DictStr { .. } => all_numeric = false,
                }
            }
            if !all_numeric {
                KeyEncoding::Raw
            } else if any_float {
                KeyEncoding::Float64
            } else {
                KeyEncoding::Int64
            }
        })
        .collect()
}

impl KeyArena {
    /// Encodes every row of the key columns, one [`KeyEncoding`] per column.
    ///
    /// `skip_nulls` selects join semantics: a row with any NULL key column
    /// gets no key at all ([`KeyArena::key`] returns `None`).
    pub fn encode(cols: &[&Column], enc: &[KeyEncoding], skip_nulls: bool) -> KeyArena {
        let n = cols.first().map_or(0, |c| c.len());
        let mut buf = Vec::with_capacity(n * cols.len() * 9);
        let mut spans = Vec::with_capacity(n);
        let valids: Vec<Option<&[bool]>> = cols.iter().map(|c| c.validity()).collect();
        'rows: for i in 0..n {
            let start = buf.len();
            for ((c, valid), e) in cols.iter().zip(&valids).zip(enc) {
                if !valid.map_or(true, |v| v[i]) {
                    if skip_nulls {
                        buf.truncate(start);
                        spans.push(NULL_SPAN);
                        continue 'rows;
                    }
                    buf.push(0);
                    continue;
                }
                match (c, e) {
                    (Column::Int(d, _), KeyEncoding::Raw | KeyEncoding::Int64) => {
                        push_i64(&mut buf, d[i]);
                    }
                    (Column::Int(d, _), KeyEncoding::Float64) => {
                        push_f64(&mut buf, d[i] as f64);
                    }
                    (Column::Float(d, _), _) => push_f64(&mut buf, d[i]),
                    (Column::Bool(d, _), KeyEncoding::Raw) => {
                        buf.extend_from_slice(&[3, u8::from(d[i])]);
                    }
                    (Column::Bool(d, _), KeyEncoding::Int64) => {
                        push_i64(&mut buf, i64::from(d[i]));
                    }
                    (Column::Bool(d, _), KeyEncoding::Float64) => {
                        push_f64(&mut buf, f64::from(u8::from(d[i])));
                    }
                    (Column::Str(d, _), _) => {
                        buf.push(4);
                        buf.extend_from_slice(&(d[i].len() as u32).to_le_bytes());
                        buf.extend_from_slice(d[i].as_bytes());
                    }
                    // Byte-identical to the plain-string encoding, so mixed
                    // encoded/plain key sides still compare equal on content.
                    (Column::DictStr { codes, dict, .. }, _) => {
                        let s = dict.get(codes[i]);
                        buf.push(4);
                        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                        buf.extend_from_slice(s.as_bytes());
                    }
                    (Column::Date(d, _), KeyEncoding::Raw) => {
                        buf.push(5);
                        buf.extend_from_slice(&d[i].to_le_bytes());
                    }
                    (Column::Date(d, _), KeyEncoding::Int64) => {
                        push_i64(&mut buf, i64::from(d[i]));
                    }
                    (Column::Date(d, _), KeyEncoding::Float64) => {
                        push_f64(&mut buf, f64::from(d[i]));
                    }
                }
            }
            spans.push((start, buf.len()));
        }
        KeyArena { buf, spans }
    }

    /// [`KeyArena::encode`] with the raw type-tagged encoding everywhere —
    /// the frame baseline's Pandas-style type-sensitive equality.
    pub fn encode_raw(cols: &[&Column], skip_nulls: bool) -> KeyArena {
        KeyArena::encode(cols, &vec![KeyEncoding::Raw; cols.len()], skip_nulls)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when no rows were encoded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The row's key bytes, `None` for NULL-containing keys under
    /// `skip_nulls` semantics.
    #[inline]
    pub fn key(&self, i: usize) -> Option<&[u8]> {
        let (s, e) = self.spans[i];
        (s != usize::MAX).then(|| &self.buf[s..e])
    }

    /// All keys as borrowed slices in row order, plus the NULL-key mask of
    /// an arena encoded with `skip_nulls = true` (`None` when no row was
    /// skipped; a skipped row's slice is empty and must not be matched).
    pub fn keys_and_nulls(&self) -> (Vec<&[u8]>, Option<Vec<bool>>) {
        let keys = (0..self.len())
            .map(|i| self.key(i).unwrap_or(&[]))
            .collect();
        let nulls: Vec<bool> = self.spans.iter().map(|s| *s == NULL_SPAN).collect();
        (keys, nulls.contains(&true).then_some(nulls))
    }

    /// All keys for arenas encoded with `skip_nulls = false` (every row has
    /// one): panics if any row was skipped.
    pub fn dense_keys(&self) -> Vec<&[u8]> {
        (0..self.len())
            .map(|i| self.key(i).expect("nulls are encoded, not skipped"))
            .collect()
    }
}

/// Exact integer encoding (tag 1 + little-endian i64), shared by raw Int and
/// the [`KeyEncoding::Int64`] unification.
#[inline]
fn push_i64(buf: &mut Vec<u8>, v: i64) {
    buf.push(1);
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bit pattern under which equal floats hash equal: `-0.0` folds into `0.0`
/// and every NaN payload folds into the canonical NaN. The same
/// canonicalization [`encode_value`] applies, exposed for typed hash sets
/// over float columns.
#[inline]
pub fn canonical_f64_bits(f: f64) -> u64 {
    let canonical = if f == 0.0 {
        0.0f64
    } else if f.is_nan() {
        f64::NAN
    } else {
        f
    };
    canonical.to_bits()
}

/// Canonical float encoding shared with [`encode_value`].
#[inline]
fn push_f64(buf: &mut Vec<u8>, f: f64) {
    buf.push(2);
    buf.extend_from_slice(&canonical_f64_bits(f).to_le_bytes());
}

// ---------------- CSR join index ----------------

/// Hashes one key with the engine's [`FxHasher`] (the partitioning hash of
/// [`PartitionedIndex`]; exposed so diagnostics can reproduce placements).
#[inline]
pub fn fx_hash_one<K: std::hash::Hash>(k: &K) -> u64 {
    use std::hash::BuildHasher;
    FxBuildHasher::default().hash_one(k)
}

/// A join key [`PartitionedIndex`] can take: packed `u64` words (which a
/// build over a dense range addresses directly), packed `u128` words and
/// byte-encoded keys (which always hash).
pub trait IndexKey: std::hash::Hash + Eq + Copy + Send + Sync {
    /// The key as one `u64` word, when it is one.
    fn word(&self) -> Option<u64>;
}

impl IndexKey for u64 {
    #[inline]
    fn word(&self) -> Option<u64> {
        Some(*self)
    }
}

impl IndexKey for u128 {
    #[inline]
    fn word(&self) -> Option<u64> {
        None
    }
}

impl IndexKey for &[u8] {
    #[inline]
    fn word(&self) -> Option<u64> {
        None
    }
}

/// The layout of a join index, read from the live build keys at execution
/// (see `docs/EXECUTION.md` § Join index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexLayout {
    /// Every live key is a `u64` word and `max − min < 4 ×` the live rows:
    /// runs are addressed by `key − min`, with no hashing.
    Direct {
        /// The smallest live key.
        min: u64,
        /// `max − min`.
        span: u64,
        /// Live (non-NULL) build rows.
        live: usize,
    },
    /// Key → dense slot through a hash map, partitioned on large builds.
    Hashed,
}

impl IndexLayout {
    /// One pass over the live keys: [`IndexLayout::Direct`] when they are
    /// `u64` words spanning fewer than four slots per live row — its offsets
    /// then cost at most 16 bytes a row, less than the hashed slot map's
    /// ≥ 19 bytes a distinct key — else [`IndexLayout::Hashed`]. An empty or
    /// all-NULL build hashes (into nothing).
    pub fn choose<K: IndexKey>(keys: &[K], nulls: Option<&[bool]>) -> IndexLayout {
        let (mut min, mut max, mut live) = (u64::MAX, 0u64, 0usize);
        for (i, k) in keys.iter().enumerate() {
            if nulls.is_some_and(|n| n[i]) {
                continue;
            }
            let Some(w) = k.word() else {
                return IndexLayout::Hashed;
            };
            min = min.min(w);
            max = max.max(w);
            live += 1;
        }
        if live > 0 && max - min < (live as u64).saturating_mul(4) {
            IndexLayout::Direct {
                min,
                span: max - min,
                live,
            }
        } else {
            IndexLayout::Hashed
        }
    }

    /// The bytes a build of this layout allocates that are known before it
    /// runs, for a build side of `rows` rows: all of a direct index (its
    /// `span + 2` offsets and a row id per live row), and a row id plus a
    /// slot-scratch word per row of a hashed one, whose key state is known
    /// only once built.
    pub fn upfront_bytes(&self, rows: usize) -> u64 {
        match *self {
            IndexLayout::Direct { span, live, .. } => 4 * (span + 2) + 4 * live as u64,
            IndexLayout::Hashed => 8 * rows as u64,
        }
    }
}

/// Rows per partition-id morsel in [`PartitionedIndex::build`].
const PARTITION_MORSEL: usize = 64 * 1024;

/// Trailing control bytes of a hashbrown table: one SIMD group (16 on
/// x86-64's SSE2, fewer elsewhere), so the probe never wraps mid-group.
const CTRL_GROUP_BYTES: usize = 16;

/// Bytes std's `HashMap<K, u32>` (hashbrown) allocates at `capacity`: the
/// capacity is 7/8 of a power-of-two bucket count (one less than the count
/// below 8 buckets), each bucket holds a `(K, u32)` tuple with its padding
/// plus one control byte, and one group of control bytes trails.
fn slot_map_bytes<K>(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        capacity + 1
    } else {
        capacity / 7 * 8
    };
    buckets * (std::mem::size_of::<(K, u32)>() + 1) + CTRL_GROUP_BYTES
}

/// One partition of a hashed join index in CSR form: every distinct key
/// owns a dense slot, and slot `s`'s build rows are the contiguous run
/// `rows[offsets[s]..offsets[s + 1]]`. Three flat arrays and one
/// key → slot map — nothing is allocated per key or per row.
#[derive(Debug)]
struct CsrPart<K> {
    slots: FxHashMap<K, u32>,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl<K: std::hash::Hash + Eq + Copy> CsrPart<K> {
    /// Builds from the partition's build rows, visited in **ascending**
    /// order, in two counted passes: the first assigns slots (first
    /// occurrence order) and counts each slot's rows, the second scatters
    /// row ids to their slot's run. The scatter keeps visit order, so every
    /// run is ascending — the order a row-at-a-time `push` build yields.
    /// `at_most` bounds the row count (it sizes the per-row slot scratch);
    /// the slot map grows with the distinct keys it meets, never the rows.
    fn build(keys: &[K], rows: impl Iterator<Item = u32> + Clone, at_most: usize) -> CsrPart<K> {
        let mut slots: FxHashMap<K, u32> = FxHashMap::default();
        let mut counts: Vec<u32> = Vec::new();
        let mut slot_of: Vec<u32> = Vec::with_capacity(at_most);
        for i in rows.clone() {
            let s = *slots.entry(keys[i as usize]).or_insert(counts.len() as u32);
            if s as usize == counts.len() {
                counts.push(0);
            }
            counts[s as usize] += 1;
            slot_of.push(s);
        }
        // Exclusive prefix sum; `counts` then serves as the scatter cursor.
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut total = 0u32;
        for c in &mut counts {
            offsets.push(total);
            total += std::mem::replace(c, total);
        }
        offsets.push(total);
        let mut out = vec![0u32; total as usize];
        for (i, s) in rows.zip(slot_of) {
            let at = &mut counts[s as usize];
            out[*at as usize] = i;
            *at += 1;
        }
        CsrPart {
            slots,
            offsets,
            rows: out,
        }
    }

    #[inline]
    fn get(&self, k: &K) -> Option<&[u32]> {
        let s = *self.slots.get(k)? as usize;
        Some(&self.rows[self.offsets[s] as usize..self.offsets[s + 1] as usize])
    }

    fn heap_bytes(&self) -> u64 {
        (slot_map_bytes::<K>(self.slots.capacity()) + 4 * (self.offsets.len() + self.rows.len()))
            as u64
    }
}

/// A join index addressed by key: key `k`'s build rows are the run
/// `rows[offsets[k − min]..offsets[k − min + 1]]`, empty for a key in
/// range that no row carries. Two flat arrays and no key state.
#[derive(Debug)]
struct DirectCsr {
    min: u64,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl DirectCsr {
    /// The hashed part's counted passes with `key − min` in place of the
    /// slot map: count each key's live rows one entry ahead of its slot,
    /// prefix-sum (each entry `s + 1` then holds slot `s`'s start, the
    /// scatter cursor), scatter the live rows in ascending order (leaving
    /// entry `s + 1` at slot `s`'s end, which is slot `s + 1`'s start).
    fn build<K: IndexKey>(keys: &[K], nulls: Option<&[bool]>, min: u64, span: u64) -> DirectCsr {
        let slot = |k: &K| {
            let w = k.word().expect("a direct layout's keys are words");
            (w - min) as usize
        };
        let live = || (0..keys.len()).filter(move |&i| nulls.map_or(true, |n| !n[i]));
        let mut offsets = vec![0u32; span as usize + 2];
        for i in live() {
            offsets[slot(&keys[i]) + 1] += 1;
        }
        let mut total = 0u32;
        for o in &mut offsets[1..] {
            total += std::mem::replace(o, total);
        }
        let mut rows = vec![0u32; total as usize];
        for i in live() {
            let at = &mut offsets[slot(&keys[i]) + 1];
            rows[*at as usize] = i as u32;
            *at += 1;
        }
        DirectCsr { min, offsets, rows }
    }

    /// A bounds check plus two loads. A word below `min` wraps to a slot
    /// far above the range and fails the same check as one above `max`.
    #[inline]
    fn get(&self, w: u64) -> Option<&[u32]> {
        let s = w.wrapping_sub(self.min);
        if s >= (self.offsets.len() - 1) as u64 {
            return None;
        }
        let (start, end) = (self.offsets[s as usize], self.offsets[s as usize + 1]);
        (start < end).then(|| &self.rows[start as usize..end as usize])
    }

    fn heap_bytes(&self) -> u64 {
        4 * (self.offsets.len() + self.rows.len()) as u64
    }
}

/// A join build side in CSR form (see `docs/EXECUTION.md` § Join index):
/// direct-addressed when [`IndexLayout::choose`] finds the keys dense,
/// else hashed, optionally split into `P` hash partitions built
/// concurrently (P = the worker count rounded up to a power of two, capped
/// at 64). Both layouts answer every lookup alike: a present key's rows in
/// ascending order, `None` for an absent one.
///
/// Hashed keys are assigned to partitions by hash bits **just below the
/// top 7**: hashbrown (std's `HashMap`) tags control bytes with the top-7
/// bits (h2) and picks buckets from the low bits (h1), so partition bits
/// taken from either end would be constant within a partition and skew tag
/// matching or bucket spread — bits 51+ (below the tag, far above the
/// buckets) touch neither. A morsel-parallel pass buckets row ids per
/// (morsel, partition); one worker per partition then walks its buckets in
/// morsel order, so every key's row run is ascending — exactly what a
/// single-threaded build over the same keys produces, and lookups are
/// indistinguishable from the unpartitioned index. Total work is O(n)
/// regardless of the partition count. NULL keys (join semantics) are never
/// inserted.
#[derive(Debug)]
pub struct PartitionedIndex<K> {
    runs: Runs<K>,
}

#[derive(Debug)]
enum Runs<K> {
    Direct(DirectCsr),
    /// `bits == 0` means a single partition (serial build, no hash on probe).
    Hashed {
        parts: Vec<CsrPart<K>>,
        bits: u32,
    },
}

/// Build sides smaller than this stay unpartitioned: the scan-per-partition
/// build costs more than it saves below ~tens of thousands of rows.
pub const MIN_PARTITIONED_BUILD: usize = 16 * 1024;

impl<K: IndexKey> PartitionedIndex<K> {
    /// Builds the index over per-row keys; `nulls[i]` marks a row whose key
    /// contains a NULL (the `skip` mask of [`FixedKeySpec::pack_u64`], or
    /// [`KeyArena::keys_and_nulls`]), in the layout
    /// [`IndexLayout::choose`] picks for them.
    pub fn build(keys: &[K], nulls: Option<&[bool]>, threads: usize) -> PartitionedIndex<K> {
        PartitionedIndex::build_as(IndexLayout::choose(keys, nulls), keys, nulls, threads)
    }

    /// [`PartitionedIndex::build`] in a `layout` already chosen for these
    /// keys by [`IndexLayout::choose`]. A direct build is serial: it is
    /// O(rows) with no hashing. A hashed build with `threads <= 1` or
    /// below [`MIN_PARTITIONED_BUILD`] rows is the serial single-partition
    /// build.
    pub fn build_as(
        layout: IndexLayout,
        keys: &[K],
        nulls: Option<&[bool]>,
        threads: usize,
    ) -> PartitionedIndex<K> {
        if let IndexLayout::Direct { min, span, .. } = layout {
            let direct = DirectCsr::build(keys, nulls, min, span);
            return PartitionedIndex {
                runs: Runs::Direct(direct),
            };
        }
        let live = |i: &u32| nulls.map_or(true, |n| !n[*i as usize]);
        if threads <= 1 || keys.len() < MIN_PARTITIONED_BUILD {
            let part = CsrPart::build(keys, (0..keys.len() as u32).filter(live), keys.len());
            return PartitionedIndex {
                runs: Runs::Hashed {
                    parts: vec![part],
                    bits: 0,
                },
            };
        }
        let p = threads.next_power_of_two().min(64);
        let bits = p.trailing_zeros();
        // Phase 1: bucket row ids per (morsel, partition) — morsel-parallel,
        // each row hashed once.
        let buckets: Vec<Vec<Vec<u32>>> = crate::pool::par_morsels(
            threads,
            keys.len(),
            PARTITION_MORSEL,
            "index-partition",
            |_, r| {
                let mut local: Vec<Vec<u32>> = vec![Vec::new(); p];
                for i in (r.start as u32..r.end as u32).filter(live) {
                    local[partition_of(fx_hash_one(&keys[i as usize]), bits)].push(i);
                }
                Ok(local)
            },
        )
        .expect("partition pass is infallible")
        .results;
        // Phase 2: one task per partition builds its CSR part from its
        // buckets in morsel order (ascending row ids) — O(n) total.
        let parts = crate::pool::par_morsels(threads, p, 1, "index-build", |pi, _| {
            let mine = buckets.iter().flat_map(|m| m[pi].iter().copied());
            let len = buckets.iter().map(|m| m[pi].len()).sum();
            Ok(CsrPart::build(keys, mine, len))
        })
        .expect("partition build is infallible")
        .results;
        PartitionedIndex {
            runs: Runs::Hashed { parts, bits },
        }
    }

    /// The build-side rows matching `k`, in ascending row order.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&[u32]> {
        match &self.runs {
            Runs::Direct(direct) => direct.get(k.word()?),
            Runs::Hashed { parts, bits: 0 } => parts[0].get(k),
            Runs::Hashed { parts, bits } => parts[partition_of(fx_hash_one(k), *bits)].get(k),
        }
    }

    /// [`PartitionedIndex::get`] for probe row `i` of per-row keys with
    /// their NULL mask: NULL keys never match.
    #[inline]
    pub fn probe(&self, keys: &[K], nulls: Option<&[bool]>, i: usize) -> Option<&[u32]> {
        if nulls.is_some_and(|n| n[i]) {
            return None;
        }
        self.get(&keys[i])
    }

    /// `true` when the index is direct-addressed (no hashing on build or
    /// probe).
    pub fn is_direct(&self) -> bool {
        matches!(self.runs, Runs::Direct(_))
    }

    /// Number of physical partitions (1 = one serial build, direct or
    /// hashed).
    pub fn num_partitions(&self) -> usize {
        match &self.runs {
            Runs::Direct(_) => 1,
            Runs::Hashed { parts, .. } => parts.len(),
        }
    }

    /// `true` when the build actually partitioned (and ran concurrently).
    pub fn partitioned(&self) -> bool {
        matches!(self.runs, Runs::Hashed { bits, .. } if bits != 0)
    }

    /// Bytes the index holds: a direct index's offset and row arrays, or a
    /// hashed one's slot maps (their real bucket allocation) plus offset
    /// and row arrays, summed over partitions.
    pub fn heap_bytes(&self) -> u64 {
        match &self.runs {
            Runs::Direct(direct) => direct.heap_bytes(),
            Runs::Hashed { parts, .. } => parts.iter().map(CsrPart::heap_bytes).sum(),
        }
    }
}

/// Partition of a hash under a `2^bits`-way split: bits 51.. up to the tag
/// boundary — below hashbrown's top-7 h2 tag bits, above its low h1 bucket
/// bits, so neither per-map mechanism degenerates within a partition
/// (`bits <= 6`, matching the 64-partition cap).
#[inline]
fn partition_of(hash: u64, bits: u32) -> usize {
    ((hash >> (57 - bits)) & ((1 << bits) - 1)) as usize
}

/// First-occurrence indices of distinct keys.
pub fn distinct_keep<K: std::hash::Hash + Eq + Copy>(keys: &[K]) -> Vec<usize> {
    let mut seen: FxHashSet<K> = FxHashSet::default();
    let mut keep = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        if seen.insert(*k) {
            keep.push(i);
        }
    }
    keep
}

/// First-occurrence indices of the distinct rows over `cols` (NULL is a
/// value, as in `drop_duplicates`): packed words when every column is
/// fixed-width, raw arena bytes otherwise.
pub fn distinct_rows(cols: &[&Column]) -> Vec<usize> {
    match FixedKeySpec::plan(&[cols], true) {
        Some(spec) if spec.width() == KeyWidth::U64 => distinct_keep(&spec.pack_u64(cols).0),
        Some(spec) => distinct_keep(&spec.pack_u128(cols).0),
        None => distinct_keep(&KeyArena::encode_raw(cols, false).dense_keys()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        FxBuildHasher::default().hash_one(t)
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
    }

    #[test]
    fn encode_distinguishes_types() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_value(&mut a, &Value::Int(1));
        encode_value(&mut b, &Value::Bool(true));
        assert_ne!(a, b);
    }

    #[test]
    fn encode_composite_keys_are_unambiguous() {
        // ("ab", "c") must differ from ("a", "bc") thanks to length prefixes.
        let mut k1 = Vec::new();
        encode_value(&mut k1, &Value::Str("ab".into()));
        encode_value(&mut k1, &Value::Str("c".into()));
        let mut k2 = Vec::new();
        encode_value(&mut k2, &Value::Str("a".into()));
        encode_value(&mut k2, &Value::Str("bc".into()));
        assert_ne!(k1, k2);
    }

    #[test]
    fn encode_normalizes_negative_zero() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_value(&mut a, &Value::Float(0.0));
        encode_value(&mut b, &Value::Float(-0.0));
        assert_eq!(a, b);
    }

    fn nullable_int(vals: &[Option<i64>]) -> Column {
        let mut c = Column::new(crate::column::DType::Int);
        for v in vals {
            match v {
                Some(x) => c.push(Value::Int(*x)).unwrap(),
                None => c.push_null(),
            }
        }
        c
    }

    #[test]
    fn plan_picks_minimal_width() {
        let i = Column::from_i64(vec![1]);
        let d = Column::from_dates(vec![1]);
        let b = Column::from_bool(vec![true]);
        let s = Column::from_strs(&["x"]);
        let f = Column::from_f64(vec![1.0]);
        let w = |cols: &[&Column], nm: bool| FixedKeySpec::plan(&[cols], nm).map(|s| s.width());
        assert_eq!(w(&[&i], false), Some(KeyWidth::U64));
        assert_eq!(w(&[&d, &d], false), Some(KeyWidth::U64)); // 32 + 32
        assert_eq!(w(&[&i, &i], false), Some(KeyWidth::U128));
        assert_eq!(w(&[&i, &d], false), Some(KeyWidth::U128)); // 64 + 32
        assert_eq!(w(&[&i, &b], false), Some(KeyWidth::U128)); // 64 + 1
        assert_eq!(w(&[&i, &i, &i], false), None);
        assert_eq!(w(&[&s], false), None);
        assert_eq!(w(&[&f], false), None);
        // A nullable column only costs a bit under group semantics.
        let ni = nullable_int(&[Some(1), None]);
        assert_eq!(w(&[&ni], false), Some(KeyWidth::U64));
        assert_eq!(w(&[&ni], true), Some(KeyWidth::U128)); // 64 + 1 null bit
    }

    #[test]
    fn plan_unifies_widths_across_sides() {
        // Int joined against Date: both sides get a 64-bit slot, so equal
        // values pack identically.
        let l = Column::from_i64(vec![5, -3]);
        let r = Column::from_dates(vec![5, -3]);
        let spec = FixedKeySpec::plan(&[&[&l], &[&r]], false).unwrap();
        let (lk, _) = spec.pack_u64(&[&l]);
        let (rk, _) = spec.pack_u64(&[&r]);
        assert_eq!(lk, rk);
    }

    #[test]
    fn pack_distinguishes_null_from_zero_under_group_semantics() {
        let c = nullable_int(&[Some(0), None, None]);
        let spec = FixedKeySpec::plan(&[&[&c]], true).unwrap();
        let (keys, skip) = spec.pack_u128(&[&c]);
        assert!(skip.is_none());
        assert_ne!(keys[0], keys[1]); // 0 != NULL
        assert_eq!(keys[1], keys[2]); // NULL == NULL
    }

    #[test]
    fn pack_flags_null_rows_under_join_semantics() {
        let c = nullable_int(&[Some(7), None]);
        let spec = FixedKeySpec::plan(&[&[&c]], false).unwrap();
        let (keys, skip) = spec.pack_u64(&[&c]);
        assert_eq!(keys[0], 7);
        assert_eq!(skip, Some(vec![false, true]));
    }

    #[test]
    fn arena_raw_matches_encode_value() {
        let i = nullable_int(&[Some(3), None]);
        let s = Column::from_strs(&["ab", "c"]);
        let arena = KeyArena::encode_raw(&[&i, &s], false);
        for row in 0..2 {
            let mut want = Vec::new();
            encode_value(&mut want, &i.get(row));
            encode_value(&mut want, &s.get(row));
            assert_eq!(arena.key(row), Some(want.as_slice()));
        }
        assert_eq!(arena.dense_keys().len(), 2);
    }

    #[test]
    fn sql_encodings_unify_int_like_positions_exactly() {
        // Int joined against Date: both sides encode as exact i64, matching
        // the packed fast path's slot unification.
        let i = Column::from_i64(vec![4]);
        let d = Column::from_dates(vec![4]);
        let enc = sql_key_encodings(&[&[&i], &[&d]]);
        assert_eq!(enc, vec![KeyEncoding::Int64]);
        let a = KeyArena::encode(&[&i], &enc, false);
        let b = KeyArena::encode(&[&d], &enc, false);
        assert_eq!(a.key(0), b.key(0));
    }

    #[test]
    fn sql_encodings_widen_to_f64_only_with_floats() {
        let i = Column::from_i64(vec![4]);
        let f = Column::from_f64(vec![4.0]);
        let s = Column::from_strs(&["x"]);
        let enc = sql_key_encodings(&[&[&i, &s], &[&f, &s]]);
        assert_eq!(enc, vec![KeyEncoding::Float64, KeyEncoding::Raw]);
        let a = KeyArena::encode(&[&i, &s], &enc, false);
        let b = KeyArena::encode(&[&f, &s], &enc, false);
        // 4 == 4.0 under SQL semantics (normalize_key + encode_value).
        assert_eq!(a.key(0), b.key(0));
        let mut want = Vec::new();
        encode_value(&mut want, &normalize_key(Value::Int(4)));
        encode_value(&mut want, &Value::Str("x".into()));
        assert_eq!(a.key(0), Some(want.as_slice()));
    }

    /// Splits optional keys into the packed `(keys, nulls)` form the index
    /// builds from.
    fn split(keys: &[Option<u64>]) -> (Vec<u64>, Option<Vec<bool>>) {
        let nulls: Vec<bool> = keys.iter().map(Option::is_none).collect();
        (
            keys.iter().map(|k| k.unwrap_or(0)).collect(),
            nulls.contains(&true).then_some(nulls),
        )
    }

    /// The CSR index against the obvious grouping, for every input shape
    /// the executor produces, both layouts and both hashed build paths.
    #[test]
    fn csr_index_matches_naive_grouping() {
        use std::collections::BTreeMap;
        let big = MIN_PARTITIONED_BUILD + 1234;
        let n = 1000u64;
        // Packed words of `Int` keys: two's complement, so negatives sit at
        // the top of the `u64` range.
        let int = |i: i64| Some(i as u64);
        // (name, keys, direct layout expected)
        let shapes: Vec<(&str, Vec<Option<u64>>, bool)> = vec![
            ("empty", vec![], false),
            ("all-null", vec![None; 300], false),
            ("single", vec![Some(42)], true),
            (
                "unique",
                (0..5000u64).map(|i| Some(i * 7919)).collect(),
                false,
            ),
            (
                "duplicated",
                (0..5000u64).map(|i| Some(i % 25)).collect(),
                true,
            ),
            (
                "big-mixed",
                (0..big as u64)
                    .map(|i| (i % 97 != 0).then_some(i % 4096))
                    .collect(),
                true,
            ),
            (
                "big-mixed-sparse",
                (0..big as u64)
                    .map(|i| (i % 97 != 0).then_some(i % 4096 * 7919))
                    .collect(),
                false,
            ),
            ("big-unique", (0..big as u64).map(Some).collect(), true),
            (
                "big-unique-sparse",
                (0..big as u64).map(|i| Some(i * 7919)).collect(),
                false,
            ),
            (
                "negative-dense",
                (1..=1000).map(|i| int(-i)).collect(),
                true,
            ),
            ("straddles-zero", (-500..500).map(int).collect(), false),
            // NULL rows pack as 0, far below the live keys: they must not
            // widen the range.
            (
                "null-rows",
                (0..200u64)
                    .map(|i| (i % 2 == 0).then_some(1000 + i))
                    .collect(),
                true,
            ),
            (
                "span-4n-1",
                (0..n - 1).map(Some).chain([Some(4 * n - 1)]).collect(),
                true,
            ),
            (
                "span-4n",
                (0..n - 1).map(Some).chain([Some(4 * n)]).collect(),
                false,
            ),
        ];
        for (name, opt, direct) in &shapes {
            let mut naive: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for (i, k) in opt.iter().enumerate() {
                if let Some(k) = k {
                    naive.entry(*k).or_default().push(i as u32);
                }
            }
            let (keys, nulls) = split(opt);
            let layout = IndexLayout::choose(&keys, nulls.as_deref());
            assert_eq!(
                matches!(layout, IndexLayout::Direct { .. }),
                *direct,
                "{name}: {layout:?}"
            );
            // Probes just outside the live range (`min − 1` wraps at 0),
            // inside a gap, and at the extremes of the word.
            let (lo, hi) = (
                naive.keys().next().copied().unwrap_or(0),
                naive.keys().last().copied().unwrap_or(0),
            );
            let probes = [
                lo.wrapping_sub(1),
                lo,
                lo + (hi - lo) / 2,
                hi,
                hi.wrapping_add(1),
                0,
                u64::MAX,
                4096 * 7919 + 1,
            ];
            for threads in [1, 2, 7] {
                let idx = PartitionedIndex::build(&keys, nulls.as_deref(), threads);
                assert_eq!(idx.is_direct(), *direct, "{name} @ {threads}");
                let partitioned = threads > 1 && keys.len() >= MIN_PARTITIONED_BUILD && !direct;
                assert_eq!(idx.partitioned(), partitioned, "{name} @ {threads}");
                for (k, rows) in &naive {
                    assert_eq!(idx.get(k), Some(rows.as_slice()), "{name} @ {threads}: {k}");
                    assert!(rows.windows(2).all(|w| w[0] < w[1]));
                }
                // Absent keys (including the NULL rows' placeholder 0 when no
                // real row carries it) miss with `None`, never an empty run.
                for k in probes {
                    let want = naive.get(&k).map(Vec::as_slice);
                    assert_eq!(idx.get(&k), want, "{name} @ {threads}: probe {k}");
                }
                // NULL probe rows never match.
                for (i, k) in opt.iter().enumerate().take(200) {
                    let want = k.and_then(|k| naive.get(&k)).map(Vec::as_slice);
                    assert_eq!(idx.probe(&keys, nulls.as_deref(), i), want);
                }
            }
        }
    }

    /// Wider words and byte keys always hash, however dense.
    #[test]
    fn only_u64_words_build_direct() {
        let wide: Vec<u128> = (0..100).collect();
        assert!(!PartitionedIndex::build(&wide, None, 1).is_direct());
        let arena = KeyArena::encode_raw(&[&Column::from_i64((0..100).collect())], true);
        let (bytes, nulls) = arena.keys_and_nulls();
        let idx = PartitionedIndex::build(&bytes, nulls.as_deref(), 1);
        assert!(!idx.is_direct());
        assert_eq!(idx.get(&bytes[7]), Some(&[7u32][..]));
    }

    #[test]
    fn partition_count_follows_the_worker_count() {
        // Keys spanning ≥ 4× the rows hash, and partition by workers.
        let keys: Vec<u64> = (0..MIN_PARTITIONED_BUILD as u64 + 1)
            .map(|k| k * 7919)
            .collect();
        assert_eq!(PartitionedIndex::build(&keys, None, 7).num_partitions(), 8);
        assert_eq!(PartitionedIndex::build(&keys, None, 1).num_partitions(), 1);
        assert_eq!(
            PartitionedIndex::build(&keys[..100], None, 8).num_partitions(),
            1
        );
        // Dense keys build direct: one serial part at any worker count.
        let dense: Vec<u64> = (0..MIN_PARTITIONED_BUILD as u64 + 1).collect();
        let idx = PartitionedIndex::build(&dense, None, 7);
        assert!(idx.is_direct() && !idx.partitioned());
        assert_eq!(idx.num_partitions(), 1);
    }

    /// The index holds O(distinct) key state plus one `u32` per build row:
    /// 25 keys over 300 K rows cost the row array and little else, in
    /// either layout.
    #[test]
    fn heavily_duplicated_builds_hold_no_per_row_key_state() {
        let n = 300_000usize;
        for scale in [1, 100_003] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i % 25 * scale).collect();
            let dup = PartitionedIndex::build(&keys, None, 1);
            assert_eq!(dup.is_direct(), scale == 1);
            assert!(
                dup.heap_bytes() < (4 * n + 4096) as u64,
                "{}",
                dup.heap_bytes()
            );
        }
        // Unique keys: a hashed index holds a slot-map bucket (17 bytes,
        // ≥ 8/7 of them per key) and an offset per key besides the row ids;
        // a direct one an offset per key in range.
        let spread: Vec<u64> = (0..n as u64).map(|k| k * 7919).collect();
        let uniq = PartitionedIndex::build(&spread, None, 1);
        assert!(!uniq.is_direct());
        assert!(uniq.heap_bytes() >= (4 * n + 4 * n + 19 * n) as u64);
        let dense: Vec<u64> = (0..n as u64).collect();
        let direct = PartitionedIndex::build(&dense, None, 1);
        assert!(direct.is_direct());
        assert_eq!(direct.heap_bytes(), (4 * (n + 1) + 4 * n) as u64);
    }

    /// `heap_bytes` is the real allocation, pinned for one build of each
    /// layout over 5 000 unique keys (and the up-front charge of a direct
    /// build is all of it).
    #[test]
    fn heap_bytes_counts_the_real_allocation() {
        let n = 5000usize;
        // Grown from empty, the slot map of 5 000 keys has 8 192 buckets
        // (capacity 7 168): a 16-byte `(u64, u32)` or 32-byte `(u128, u32)`
        // tuple and a control byte each, plus one 16-byte control group.
        // Offsets (n + 1) and row ids (n) are 4 bytes each.
        let arrays = 4 * (n + 1 + n);
        let spread: Vec<u64> = (0..n as u64).map(|k| k * 7919).collect();
        let hashed = PartitionedIndex::build(&spread, None, 1);
        assert_eq!(hashed.heap_bytes(), (8192 * 17 + 16 + arrays) as u64);
        let wide: Vec<u128> = spread.iter().map(|&k| u128::from(k)).collect();
        let hashed = PartitionedIndex::build(&wide, None, 1);
        assert_eq!(hashed.heap_bytes(), (8192 * 33 + 16 + arrays) as u64);
        // Direct over 0..n: span n − 1, so n + 1 offsets, and n row ids.
        let dense: Vec<u64> = (0..n as u64).collect();
        let layout = IndexLayout::choose(&dense, None);
        let direct = PartitionedIndex::build_as(layout, &dense, None, 1);
        assert_eq!(direct.heap_bytes(), arrays as u64);
        assert_eq!(layout.upfront_bytes(n), arrays as u64);
        assert_eq!(IndexLayout::Hashed.upfront_bytes(n), 8 * n as u64);
    }

    #[test]
    fn arena_skips_null_keys_in_join_mode() {
        let i = nullable_int(&[Some(1), None]);
        let arena = KeyArena::encode(&[&i], &[KeyEncoding::Int64], true);
        assert!(arena.key(0).is_some());
        assert_eq!(arena.key(1), None);
    }
}
