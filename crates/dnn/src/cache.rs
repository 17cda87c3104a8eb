//! Content-keyed inference caching: memoization at layer boundaries.
//!
//! WSC inference traffic is redundant in two ways the forward pass can
//! exploit (see DESIGN.md §14):
//!
//! * **Exact duplicates** — IMC/DIG style services see the same input
//!   tensor again and again (retries, hot content, identical thumbnails).
//!   [`ExactCache`] memoizes the *full* network output keyed by the
//!   input's content, so a repeat skips the forward pass entirely.
//! * **Hot vocabulary** — the SENNA NLP services (POS/CHK/NER) re-embed
//!   the same word-window rows on every request even when the full
//!   input tensor is novel. [`EmbedCache`] memoizes the embedding-layer
//!   (first fully-connected + activation) output *per input row*, so a
//!   partially-hot input still hits on its hot rows.
//!
//! Both caches share one engine, [`ShardedLru`]: a hash-sharded map with
//! strict byte-budget LRU eviction. Keys are the exact bit patterns of
//! the input floats (shape included for the full-output memo), and every
//! hit re-verifies the **full key** against the stored copy — a hash
//! collision can never serve another input's output, only cost a miss.
//! `-0.0` vs `0.0` and differing NaN payloads are distinct keys by
//! construction, which is what makes a hit bitwise-equivalent to the
//! compute it replaced.
//!
//! Consistency model: models are immutable after load (the registry is
//! load-once, share-read-only), so a cached output can never go stale —
//! eviction exists purely to bound memory, never for correctness.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tensor::Tensor;

/// Hash function over canonical key words. Pluggable so tests can force
/// collisions and prove hits compare the full key, not just the hash.
pub type KeyHasher = fn(&[u32]) -> u64;

/// The default [`KeyHasher`]: four independent lanes, each folding one
/// pair of `u64`s (four key words) per sixteen-word block through a
/// 64x64 -> 128-bit multiply, with the key length mixed in at the end.
/// A 28x350 input is a 39 KB key; a byte-serial chain (the FNV-1a this
/// replaced) spends one dependent multiply per *byte* on it, this one
/// four overlapping multiplies per 64 bytes. Deterministic across
/// processes and platforms.
pub fn word_hash(words: &[u32]) -> u64 {
    let mut h = WordHasher::new();
    h.write(words, |w| w);
    h.finish()
}

const LANES: usize = 4;
/// Key words per [`WordHasher`] block: two `u64`s for each lane.
const BLOCK: usize = 4 * LANES;
/// Odd 64-bit lane seeds, also xored into each lane's input.
const LANE_KEYS: [u64; LANES] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0xd6e8_feb8_6659_fd93,
];
/// Final-mix multiplier (splitmix64's). Which shard a key lands on
/// follows from it: `tests/caching.rs` races two 636-byte entries through
/// 1 KB shards and needs them on different ones, which one choice of
/// constant in eight does not give.
const FINISH_KEY: u64 = 0xbf58_476d_1ce4_e5b9;

/// Full 64x64 -> 128-bit product folded back to 64 bits, so every input
/// bit reaches both halves of the result.
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

fn absorb(lanes: &mut [u64; LANES], block: &[u32; BLOCK]) {
    let pair = |i: usize| u64::from(block[i]) | u64::from(block[i + 1]) << 32;
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = fold_mul(pair(4 * i) ^ LANE_KEYS[i], pair(4 * i + 2) ^ *lane);
    }
}

/// Streaming form of [`word_hash`]: the result depends only on the word
/// sequence written, not on how it was split across `write` calls — so a
/// key can be hashed in place from its parts (shape words, then float
/// bit patterns) and land on the hash its materialised copy was stored
/// under.
struct WordHasher {
    lanes: [u64; LANES],
    /// Words written since the last whole block; `filled` of them.
    partial: [u32; BLOCK],
    filled: usize,
    len: u64,
}

impl WordHasher {
    fn new() -> Self {
        WordHasher {
            lanes: LANE_KEYS,
            partial: [0; BLOCK],
            filled: 0,
            len: 0,
        }
    }

    fn write<T: Copy>(&mut self, mut words: &[T], bits: impl Fn(T) -> u32) {
        self.len += words.len() as u64;
        if self.filled > 0 {
            let take = (BLOCK - self.filled).min(words.len());
            for (slot, &w) in self.partial[self.filled..].iter_mut().zip(&words[..take]) {
                *slot = bits(w);
            }
            self.filled += take;
            words = &words[take..];
            if self.filled < BLOCK {
                return;
            }
            absorb(&mut self.lanes, &self.partial);
        }
        let mut blocks = words.chunks_exact(BLOCK);
        let mut lanes = self.lanes;
        for b in &mut blocks {
            absorb(&mut lanes, &std::array::from_fn(|i| bits(b[i])));
        }
        self.lanes = lanes;
        let rest = blocks.remainder();
        for (slot, &w) in self.partial.iter_mut().zip(rest) {
            *slot = bits(w);
        }
        self.filled = rest.len();
    }

    fn finish(mut self) -> u64 {
        if self.filled > 0 {
            self.partial[self.filled..].fill(0);
            absorb(&mut self.lanes, &self.partial);
        }
        // The zero padding above makes `[.., x]` and `[.., x, 0]` the same
        // blocks; the length is what tells them apart.
        let mut h = self.len.wrapping_mul(FINISH_KEY);
        for lane in self.lanes {
            h = fold_mul(h ^ lane, FINISH_KEY);
        }
        h
    }
}

/// A key seen in place: the `head` words followed by the bit patterns of
/// `body`. Lookups hash and compare through this view, so only an insert
/// ever copies a key out of the tensor it came from.
#[derive(Clone, Copy)]
struct KeyView<'a> {
    head: &'a [u32],
    body: &'a [f32],
}

impl KeyView<'_> {
    fn to_words(self) -> Vec<u32> {
        let mut key = Vec::with_capacity(self.head.len() + self.body.len());
        key.extend_from_slice(self.head);
        key.extend(self.body.iter().map(|v| v.to_bits()));
        key
    }

    fn matches(self, stored: &[u32]) -> bool {
        stored.len() == self.head.len() + self.body.len() && {
            let (head, body) = stored.split_at(self.head.len());
            // No early exit: a full compare only runs when the hashes
            // already agree, and the straight-line form vectorises.
            head == self.head
                && body
                    .iter()
                    .zip(self.body)
                    .fold(0, |diff, (k, v)| diff | (k ^ v.to_bits()))
                    == 0
        }
    }
}

/// Point-in-time cache telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (full key verified).
    pub hits: u64,
    /// Lookups that found nothing (or only a colliding key).
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Bytes currently resident (keys + values).
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hits over lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Field-wise sum, for reporting two cache layers as one line.
    #[must_use]
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            insertions: self.insertions + other.insertions,
            resident_bytes: self.resident_bytes + other.resident_bytes,
            entries: self.entries + other.entries,
        }
    }
}

struct Entry<V> {
    key: Box<[u32]>,
    value: V,
    bytes: usize,
    tick: u64,
}

struct Shard<V> {
    /// Hash → chain of entries with that hash. Chains hold every
    /// colliding key; a lookup walks the chain comparing full keys.
    chains: HashMap<u64, Vec<Entry<V>>>,
    /// LRU index: recency tick → hash of the entry stamped with it.
    /// Ticks are unique within a shard, so the map's first key is always
    /// the least-recently-used entry.
    lru: BTreeMap<u64, u64>,
    bytes: usize,
    tick: u64,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            chains: HashMap::new(),
            lru: BTreeMap::new(),
            bytes: 0,
            tick: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A hash-sharded, byte-budgeted LRU map from content keys to values —
/// the storage engine behind [`ExactCache`] and [`EmbedCache`].
///
/// Keys are canonical `u32` words (float bit patterns, shape words).
/// Every hit compares the stored key word-for-word before answering, so
/// hash collisions degrade to misses, never to wrong answers. Each shard
/// owns an equal slice of the byte budget and evicts least-recently-used
/// entries whenever an insert would overflow it.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_budget: usize,
    /// `None` is [`word_hash`], streamed over a [`KeyView`] in place.
    hasher: Option<KeyHasher>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

/// Shards per cache: enough to keep concurrent readers and writers (a
/// serving loop probing, a dispatch thread inserting) off each other's
/// locks, few enough that tiny budgets still hold real entries.
const SHARDS: usize = 8;

impl<V: Clone> ShardedLru<V> {
    /// A cache holding at most `budget_bytes` of keys + values, using
    /// the default hasher, [`word_hash`].
    pub fn new(budget_bytes: usize) -> Self {
        Self::build(budget_bytes, None)
    }

    /// Like [`ShardedLru::new`] with a caller-chosen hash function —
    /// the hook collision-hardening tests use to force every key onto
    /// one chain.
    pub fn with_hasher(budget_bytes: usize, hasher: KeyHasher) -> Self {
        Self::build(budget_bytes, Some(hasher))
    }

    fn build(budget_bytes: usize, hasher: Option<KeyHasher>) -> Self {
        ShardedLru {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: (budget_bytes / SHARDS).max(1),
            hasher,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, hash: u64) -> &Mutex<Shard<V>> {
        // Take shard bits from the top of the hash so they stay
        // independent of whatever low bits HashMap buckets by.
        &self.shards[(hash >> 56) as usize % self.shards.len()]
    }

    fn hash(&self, key: KeyView<'_>) -> u64 {
        match self.hasher {
            None => {
                let mut h = WordHasher::new();
                h.write(key.head, |w| w);
                h.write(key.body, f32::to_bits);
                h.finish()
            }
            // A plain `fn` over a slice needs the key in one piece.
            Some(custom) => custom(&key.to_words()),
        }
    }

    /// Looks `key` up, returning a clone of the stored value on a
    /// verified full-key match and refreshing the entry's recency.
    pub fn get(&self, key: &[u32]) -> Option<V> {
        self.get_view(KeyView {
            head: key,
            body: &[],
        })
    }

    fn get_view(&self, key: KeyView<'_>) -> Option<V> {
        let hash = self.hash(key);
        let mut shard = self
            .shard_of(hash)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let tick = shard.next_tick();
        if let Some(chain) = shard.chains.get_mut(&hash) {
            if let Some(entry) = chain.iter_mut().find(|e| key.matches(&e.key)) {
                let old = entry.tick;
                entry.tick = tick;
                let value = entry.value.clone();
                shard.lru.remove(&old);
                shard.lru.insert(tick, hash);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(value);
            }
        }
        drop(shard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts (or refreshes) `key → value`, charging `bytes` against
    /// the shard's budget and evicting LRU entries to make room. An
    /// entry larger than a whole shard's budget is not admitted at all —
    /// caching it would evict everything and still overflow.
    pub fn insert(&self, key: Vec<u32>, value: V, bytes: usize) {
        if bytes > self.shard_budget {
            return;
        }
        let hash = self.hash(KeyView {
            head: &key,
            body: &[],
        });
        let mut shard = self
            .shard_of(hash)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let tick = shard.next_tick();
        // Replace an existing entry for this exact key (concurrent
        // misses race to insert the same computation; last write wins).
        if let Some(chain) = shard.chains.get_mut(&hash) {
            if let Some(entry) = chain.iter_mut().find(|e| *e.key == key[..]) {
                let (old_tick, old_bytes) = (entry.tick, entry.bytes);
                entry.value = value;
                entry.bytes = bytes;
                entry.tick = tick;
                shard.lru.remove(&old_tick);
                shard.lru.insert(tick, hash);
                shard.bytes = shard.bytes - old_bytes + bytes;
                self.evict_over_budget(&mut shard);
                return;
            }
        }
        shard.bytes += bytes;
        shard.chains.entry(hash).or_default().push(Entry {
            key: key.into_boxed_slice(),
            value,
            bytes,
            tick,
        });
        shard.lru.insert(tick, hash);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evict_over_budget(&mut shard);
    }

    fn evict_over_budget(&self, shard: &mut Shard<V>) {
        while shard.bytes > self.shard_budget {
            let Some((&tick, &hash)) = shard.lru.iter().next() else {
                break; // unreachable: bytes > 0 implies an entry exists
            };
            shard.lru.remove(&tick);
            let mut freed = 0;
            if let Some(chain) = shard.chains.get_mut(&hash) {
                if let Some(pos) = chain.iter().position(|e| e.tick == tick) {
                    freed = chain[pos].bytes;
                    chain.swap_remove(pos);
                }
                if chain.is_empty() {
                    shard.chains.remove(&hash);
                }
            }
            shard.bytes -= freed;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bytes currently resident across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).bytes)
            .sum()
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).lru.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte budget one shard enforces (total budget / shard count).
    pub fn shard_budget(&self) -> usize {
        self.shard_budget
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes() as u64,
            entries: self.len() as u64,
        }
    }
}

/// Canonical key words for a whole tensor: rank, dims, then the bit
/// pattern of every float. Two tensors map to the same key iff they are
/// bitwise identical in shape and content.
pub fn tensor_key(t: &Tensor) -> Vec<u32> {
    KeyView {
        head: &shape_words(t),
        body: t.data(),
    }
    .to_words()
}

/// The shape part of [`tensor_key`]: rank, then dims.
fn shape_words(t: &Tensor) -> Vec<u32> {
    let dims = t.shape().dims();
    std::iter::once(dims.len() as u32)
        .chain(dims.iter().map(|&d| d as u32))
        .collect()
}

/// One row's key: just the float bit patterns (the row length is implied
/// by the model's input width).
fn row_view(row: &[f32]) -> KeyView<'_> {
    KeyView {
        head: &[],
        body: row,
    }
}

/// Full-output memo: input tensor content → network output. A hit is a
/// request that never needs the forward pass (nor, in the serving
/// engine, the queue or the device lease).
pub struct ExactCache {
    lru: ShardedLru<Tensor>,
}

impl ExactCache {
    /// An exact-match cache bounded by `budget_bytes`.
    pub fn new(budget_bytes: usize) -> Self {
        ExactCache {
            lru: ShardedLru::new(budget_bytes),
        }
    }

    /// Like [`ExactCache::new`] with a custom hasher (collision tests).
    pub fn with_hasher(budget_bytes: usize, hasher: KeyHasher) -> Self {
        ExactCache {
            lru: ShardedLru::with_hasher(budget_bytes, hasher),
        }
    }

    /// The cached output for a bitwise-identical prior input, if any.
    /// Hashes and compares `input` where it lies; no key is built.
    pub fn get(&self, input: &Tensor) -> Option<Tensor> {
        self.lru.get_view(KeyView {
            head: &shape_words(input),
            body: input.data(),
        })
    }

    /// Memoizes `input → output`. The charge covers both the key (a
    /// bitwise copy of the input) and the stored output.
    pub fn insert(&self, input: &Tensor, output: &Tensor) {
        let key = tensor_key(input);
        let bytes = key.len() * 4 + output.byte_len();
        self.lru.insert(key, output.clone(), bytes);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.lru.resident_bytes()
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

/// Embedding-layer row memo: one input row's content → the embedding
/// prefix's output row (see [`crate::Network::forward_embed_cached`]).
/// Keying per row is what lets a *partially* hot input — a SENNA window
/// batch where only some word windows repeat — still hit on the hot
/// rows while computing the cold ones.
pub struct EmbedCache {
    lru: ShardedLru<Arc<[f32]>>,
}

impl EmbedCache {
    /// A per-row cache bounded by `budget_bytes`.
    pub fn new(budget_bytes: usize) -> Self {
        EmbedCache {
            lru: ShardedLru::new(budget_bytes),
        }
    }

    /// Like [`EmbedCache::new`] with a custom hasher (collision tests).
    pub fn with_hasher(budget_bytes: usize, hasher: KeyHasher) -> Self {
        EmbedCache {
            lru: ShardedLru::with_hasher(budget_bytes, hasher),
        }
    }

    /// The cached prefix output for a bitwise-identical prior row.
    pub fn get_row(&self, row: &[f32]) -> Option<Arc<[f32]>> {
        self.lru.get_view(row_view(row))
    }

    /// Memoizes `row → prefix output row`.
    pub fn insert_row(&self, row: &[f32], out: &[f32]) {
        let key = row_view(row).to_words();
        let bytes = (key.len() + out.len()) * 4;
        self.lru.insert(key, Arc::from(out), bytes);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.lru.resident_bytes()
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

/// Which cache layers a service enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// No caching (the pre-cache serving path, byte for byte).
    #[default]
    Off,
    /// Full-output memoization only.
    Exact,
    /// Embedding-layer row memoization only.
    Embed,
    /// Both layers, splitting the byte budget evenly.
    Both,
}

impl std::str::FromStr for CacheMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(CacheMode::Off),
            "exact" => Ok(CacheMode::Exact),
            "embed" => Ok(CacheMode::Embed),
            "both" => Ok(CacheMode::Both),
            other => Err(format!(
                "unknown cache mode `{other}` (want off|exact|embed|both)"
            )),
        }
    }
}

impl std::fmt::Display for CacheMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheMode::Off => "off",
            CacheMode::Exact => "exact",
            CacheMode::Embed => "embed",
            CacheMode::Both => "both",
        })
    }
}

/// One model's cache configuration: the enabled layers under a shared
/// byte budget. [`InferenceCache::new`] returns `None` for
/// [`CacheMode::Off`] so a disabled cache costs the serving path nothing
/// — not even a branch into this module.
pub struct InferenceCache {
    exact: Option<ExactCache>,
    embed: Option<EmbedCache>,
}

impl std::fmt::Debug for InferenceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceCache")
            .field("exact", &self.exact_stats())
            .field("embed", &self.embed_stats())
            .finish()
    }
}

impl InferenceCache {
    /// Builds the caches `mode` enables under `budget_bytes` total
    /// ([`CacheMode::Both`] splits the budget evenly); `None` for
    /// [`CacheMode::Off`].
    pub fn new(mode: CacheMode, budget_bytes: usize) -> Option<Self> {
        match mode {
            CacheMode::Off => None,
            CacheMode::Exact => Some(InferenceCache {
                exact: Some(ExactCache::new(budget_bytes)),
                embed: None,
            }),
            CacheMode::Embed => Some(InferenceCache {
                exact: None,
                embed: Some(EmbedCache::new(budget_bytes)),
            }),
            CacheMode::Both => Some(InferenceCache {
                exact: Some(ExactCache::new(budget_bytes / 2)),
                embed: Some(EmbedCache::new(budget_bytes / 2)),
            }),
        }
    }

    /// The full-output memo, when enabled.
    pub fn exact(&self) -> Option<&ExactCache> {
        self.exact.as_ref()
    }

    /// The embedding-row memo, when enabled.
    pub fn embed(&self) -> Option<&EmbedCache> {
        self.embed.as_ref()
    }

    /// Exact-layer counters, when that layer is enabled. **Unit:
    /// whole requests** — one lookup per inference, so
    /// [`CacheStats::hit_rate`] here is the fraction of *requests*
    /// answered from cache, directly comparable to the client-observed
    /// `cache_hit` trace flag.
    pub fn exact_stats(&self) -> Option<CacheStats> {
        self.exact.as_ref().map(ExactCache::stats)
    }

    /// Embed-layer counters, when that layer is enabled. **Unit: input
    /// rows** — one lookup per row of every forwarded batch, so
    /// [`CacheStats::hit_rate`] here is the fraction of *rows* that
    /// reused a cached embedding. Dividing these hits by a request
    /// count mixes units and overstates the hit rate by the batch size;
    /// reconcile against rows sent, not requests sent.
    pub fn embed_stats(&self) -> Option<CacheStats> {
        self.embed.as_ref().map(EmbedCache::stats)
    }

    /// Combined counters across the enabled layers. Byte/entry fields
    /// add cleanly; the hit/miss counters keep their *layer-local*
    /// units (exact counts whole requests, embed counts rows), so a
    /// [`CacheStats::hit_rate`] over this merged snapshot is a lookup
    /// rate, not a request rate — use [`InferenceCache::exact_stats`] /
    /// [`InferenceCache::embed_stats`] when the unit matters.
    pub fn stats(&self) -> CacheStats {
        let exact = self.exact_stats().unwrap_or_default();
        let embed = self.embed_stats().unwrap_or_default();
        exact.merged(&embed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Shape;

    fn tens(seed: u64, n: usize) -> Tensor {
        Tensor::random_uniform(Shape::mat(1, n), 1.0, seed)
    }

    #[test]
    fn exact_cache_round_trips_bitwise() {
        let cache = ExactCache::new(1 << 20);
        let input = tens(1, 16);
        let output = tens(2, 4);
        assert!(cache.get(&input).is_none(), "cold cache misses");
        cache.insert(&input, &output);
        let hit = cache.get(&input).expect("warm cache hits");
        assert_eq!(hit.shape(), output.shape());
        let bitwise: Vec<u32> = hit.data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = output.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bitwise, want, "hit must be bitwise-identical");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn different_shapes_with_same_bytes_are_different_keys() {
        let cache = ExactCache::new(1 << 20);
        let flat = Tensor::from_vec(Shape::mat(1, 4), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let tall = Tensor::from_vec(Shape::mat(4, 1), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        cache.insert(&flat, &tens(9, 2));
        assert!(cache.get(&tall).is_none(), "shape is part of the key");
    }

    #[test]
    fn negative_zero_and_nan_payloads_are_distinct_keys() {
        let cache = ExactCache::new(1 << 20);
        let pos = Tensor::from_vec(Shape::mat(1, 2), vec![0.0, 1.0]).unwrap();
        let neg = Tensor::from_vec(Shape::mat(1, 2), vec![-0.0, 1.0]).unwrap();
        cache.insert(&pos, &tens(5, 2));
        assert!(
            cache.get(&neg).is_none(),
            "-0.0 == 0.0 numerically but must not alias in a bitwise cache"
        );
    }

    #[test]
    fn eviction_keeps_resident_bytes_under_budget() {
        let budget = 64 << 10;
        let cache = ExactCache::new(budget);
        for seed in 0..200 {
            cache.insert(&tens(seed, 256), &tens(seed + 1000, 64));
            assert!(
                cache.resident_bytes() <= budget,
                "resident {} exceeds budget {budget}",
                cache.resident_bytes()
            );
        }
        let s = cache.stats();
        assert!(
            s.evictions > 0,
            "200 x ~1.3KB entries must evict under 64KB"
        );
        assert!(!cache.is_empty(), "eviction must not empty a warm cache");
    }

    #[test]
    fn eviction_is_lru_not_random() {
        // One shard's worth of traffic: keys all collide onto one chain
        // via a constant hasher, so recency alone decides who survives.
        let cache = ExactCache::with_hasher(8 << 10, |_| 7);
        let (a, b) = (tens(1, 64), tens(2, 64));
        cache.insert(&a, &tens(10, 8));
        cache.insert(&b, &tens(11, 8));
        assert!(cache.get(&a).is_some(), "touch `a` so `b` is now LRU");
        // Fill until something must go: the survivor set must favor `a`.
        for seed in 100..103 {
            cache.insert(&tens(seed, 64), &tens(seed + 1, 8));
        }
        let (a_alive, b_alive) = (cache.get(&a).is_some(), cache.get(&b).is_some());
        assert!(
            a_alive || !b_alive,
            "b (LRU) survived while a (recently touched) was evicted"
        );
    }

    /// The strict true-LRU contract: a key that is *read* on every
    /// round of churn must never be evicted, no matter how many cold
    /// keys stream past it. A FIFO cache — one whose `get` does not
    /// refresh recency — fails this within the first few rounds, because
    /// the hot key keeps its original insertion tick and becomes the
    /// eviction victim as soon as the budget fills. (The weaker
    /// `eviction_is_lru_not_random` check above can pass under FIFO when
    /// both probed keys die; this one cannot.)
    #[test]
    fn hot_key_survives_sustained_churn() {
        // Constant hasher pins everything to one shard so its budget —
        // which fits only a handful of entries — is the whole cache.
        let cache = ExactCache::with_hasher(8 << 10, |_| 3);
        let hot = tens(777, 64);
        cache.insert(&hot, &tens(778, 8));
        for seed in 0..64 {
            assert!(
                cache.get(&hot).is_some(),
                "hot key evicted after {seed} churn inserts despite being \
                 read every round — `get` is not refreshing recency"
            );
            cache.insert(&tens(seed, 64), &tens(seed + 1, 8));
        }
        let s = cache.stats();
        assert_eq!(s.hits, 64, "every hot-key read must hit");
        assert!(
            s.evictions > 0,
            "the churn must actually overflow the shard"
        );
    }

    #[test]
    fn colliding_hashes_never_cross_answers() {
        // Constant hasher: every key lands on one chain. Both inputs
        // must still get their own outputs back.
        let cache = ExactCache::with_hasher(1 << 20, |_| 42);
        let (in_a, in_b) = (tens(1, 16), tens(2, 16));
        let (out_a, out_b) = (tens(3, 4), tens(4, 4));
        cache.insert(&in_a, &out_a);
        cache.insert(&in_b, &out_b);
        let hit_a = cache.get(&in_a).expect("a hits");
        let hit_b = cache.get(&in_b).expect("b hits");
        assert_eq!(hit_a.data(), out_a.data());
        assert_eq!(hit_b.data(), out_b.data());
    }

    /// What a content hash over float bit patterns must tell apart:
    /// one changed word anywhere, a trailing zero word (length only),
    /// and two words trading places.
    #[test]
    fn word_hash_separates_near_identical_keys() {
        for len in [1usize, 2, 7, 8, 9, 16, 37, 9803] {
            let key: Vec<u32> = (0..len as u32)
                .map(|i| i.wrapping_mul(0x9e37_79b9))
                .collect();
            let h = word_hash(&key);
            assert_eq!(h, word_hash(&key.clone()), "deterministic");
            for at in [0, len / 2, len - 1] {
                let mut other = key.clone();
                other[at] ^= 1;
                assert_ne!(h, word_hash(&other), "len {len}: word {at} changed");
            }
            let mut longer = key.clone();
            longer.push(0);
            assert_ne!(h, word_hash(&longer), "len {len}: trailing zero word");
            if len >= 2 {
                for (i, j) in [(0, 1), (0, len - 1), (len / 2, len - 1)] {
                    if key[i] != key[j] {
                        let mut swapped = key.clone();
                        swapped.swap(i, j);
                        assert_ne!(h, word_hash(&swapped), "len {len}: swap {i}<->{j}");
                    }
                }
            }
        }
        assert_ne!(word_hash(&[]), word_hash(&[0]));
        assert_ne!(word_hash(&[0; 8]), word_hash(&[0; 16]));
    }

    /// A lookup hashes the tensor in place, an insert hashes the key it
    /// materialised; the two must agree for every split of the words
    /// between shape and data, block-aligned or not.
    #[test]
    fn in_place_hash_equals_the_materialised_keys_hash() {
        let lru: ShardedLru<u32> = ShardedLru::new(1 << 20);
        for (dims, seed) in [
            (vec![1, 1], 1),
            (vec![3, 5], 2),
            (vec![2, 3, 4], 3),
            (vec![28, 350], 4),
        ] {
            let t = Tensor::random_uniform(Shape::new(&dims).unwrap(), 1.0, seed);
            let view = KeyView {
                head: &shape_words(&t),
                body: t.data(),
            };
            assert_eq!(lru.hash(view), word_hash(&tensor_key(&t)));
            assert!(view.matches(&tensor_key(&t)));
            assert_eq!(
                lru.hash(row_view(t.data())),
                word_hash(&row_view(t.data()).to_words())
            );
        }
    }

    #[test]
    fn oversized_entries_are_not_admitted() {
        let cache = ExactCache::new(1 << 10); // 128 B per shard
        let big = tens(1, 4096);
        cache.insert(&big, &tens(2, 4096));
        assert_eq!(cache.len(), 0, "an entry wider than a shard is skipped");
        assert!(cache.get(&big).is_none());
    }

    #[test]
    fn embed_cache_keys_per_row() {
        let cache = EmbedCache::new(1 << 20);
        let row_a = [1.0f32, 2.0, 3.0];
        let row_b = [4.0f32, 5.0, 6.0];
        cache.insert_row(&row_a, &[10.0, 20.0]);
        assert_eq!(cache.get_row(&row_a).as_deref(), Some(&[10.0f32, 20.0][..]));
        assert!(cache.get_row(&row_b).is_none(), "other rows miss");
    }

    #[test]
    fn mode_parsing_round_trips() {
        for mode in [
            CacheMode::Off,
            CacheMode::Exact,
            CacheMode::Embed,
            CacheMode::Both,
        ] {
            assert_eq!(mode.to_string().parse::<CacheMode>(), Ok(mode));
        }
        assert!("nonsense".parse::<CacheMode>().is_err());
        assert!(InferenceCache::new(CacheMode::Off, 1 << 20).is_none());
        let both = InferenceCache::new(CacheMode::Both, 1 << 20).unwrap();
        assert!(both.exact().is_some() && both.embed().is_some());
    }

    #[test]
    fn stats_merge_both_layers() {
        let cache = InferenceCache::new(CacheMode::Both, 1 << 20).unwrap();
        let input = tens(1, 8);
        assert!(cache.exact().unwrap().get(&input).is_none());
        cache.exact().unwrap().insert(&input, &tens(2, 4));
        assert!(cache.exact().unwrap().get(&input).is_some());
        cache.embed().unwrap().insert_row(input.data(), &[1.0]);
        assert!(cache.embed().unwrap().get_row(input.data()).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (2, 1, 2));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    /// Per-layer snapshots keep their units apart: exact counts whole
    /// requests, embed counts rows. A 4-row batch replayed once gives an
    /// exact request-hit-rate of 1/2 and an embed row-hit-rate of 1/2 —
    /// but 4 row hits against 2 requests, which a merged/naive division
    /// would misreport as a 200% "request" hit rate.
    #[test]
    fn layer_stats_keep_request_and_row_units_apart() {
        let cache = InferenceCache::new(CacheMode::Both, 1 << 20).unwrap();
        let batch = Tensor::random_uniform(Shape::mat(4, 8), 1.0, 42);
        let rows: Vec<&[f32]> = batch.data().chunks(8).collect();

        // Request 1 (cold): one exact miss, then per-row embed misses +
        // inserts, then the exact insert — the engine's miss path.
        assert!(cache.exact().unwrap().get(&batch).is_none());
        for row in &rows {
            assert!(cache.embed().unwrap().get_row(row).is_none());
            cache.embed().unwrap().insert_row(row, &[1.0, 2.0]);
        }
        cache.exact().unwrap().insert(&batch, &tens(9, 4));

        // Request 2 (replay): exact hits at admission; embed untouched.
        assert!(cache.exact().unwrap().get(&batch).is_some());

        let exact = cache.exact_stats().unwrap();
        let embed = cache.embed_stats().unwrap();
        assert_eq!(
            (exact.hits, exact.misses),
            (1, 1),
            "exact layer: one lookup per request"
        );
        assert_eq!(
            (embed.hits, embed.misses),
            (0, 4),
            "embed layer: one lookup per row"
        );
        // The trap this split exists to prevent: embed row hits after a
        // row-level replay divided by the request count.
        for row in &rows {
            assert!(cache.embed().unwrap().get_row(row).is_some());
        }
        let embed = cache.embed_stats().unwrap();
        assert_eq!(embed.hits, 4, "4 row hits...");
        let requests = 3.0; // ...across 3 requests
        assert!(
            embed.hits as f64 / requests > 1.0,
            "row hits exceed requests — per-request division is meaningless"
        );
        assert!((embed.hit_rate() - 0.5).abs() < 1e-9, "row hit rate is 4/8");
    }
}
